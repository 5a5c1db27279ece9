"""SweepSpec expansion and RunKey content-hash semantics."""

import numpy as np
import pytest

from repro.store import RunKey, SeedPolicy, SweepSpec


def make_spec(**over):
    base = dict(
        name="demo",
        process="cobra",
        graph="grid",
        graph_grid={"n": [8, 16], "d": [2]},
        params_grid={"k": [1, 2]},
        trials=4,
        seed=SeedPolicy(root=7),
    )
    base.update(over)
    return SweepSpec(**base)


class TestExpansion:
    def test_cross_product_size_and_determinism(self):
        spec = make_spec()
        cells = spec.expand()
        assert len(cells) == 2 * 1 * 2
        again = make_spec().expand()
        assert [c.hash for c in cells] == [c.hash for c in again]

    def test_axis_order_is_sorted_names_declared_values(self):
        spec = make_spec(graph_grid={"n": [16, 8], "d": [2]})
        ns = [dict(c.graph_params)["n"] for c in spec.expand()]
        # axis values keep their declared order
        assert ns == [16, 16, 8, 8]

    def test_metric_defaults_from_registry(self):
        assert make_spec().expand()[0].metric == "cover"
        spec = make_spec(process="push", params_grid={})
        assert spec.expand()[0].metric == "spread"

    def test_unknown_process_raises(self):
        with pytest.raises(KeyError, match="unknown process"):
            make_spec(process="nope").expand()

    def test_unsupported_metric_raises(self):
        with pytest.raises(ValueError, match="does not support"):
            make_spec(metric="coalesce").expand()

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            make_spec(graph_grid={"n": []})
        with pytest.raises(ValueError, match="sequence"):
            make_spec(graph_grid={"n": 8})
        with pytest.raises(ValueError, match="scalar"):
            make_spec(graph_grid={"n": [np.array([1, 2])]})
        with pytest.raises(ValueError, match="trials"):
            make_spec(trials=0)
        with pytest.raises(ValueError, match="both graph_grid and"):
            make_spec(graph_grid={"k": [2], "depth": [3]}, params_grid={"k": [1]})
        with pytest.raises(ValueError, match="target rule"):
            make_spec(target="middle")

    def test_numpy_scalars_normalise(self):
        spec = make_spec(graph_grid={"n": [np.int64(8)], "d": [2]})
        assert dict(spec.expand()[0].graph_params)["n"] == 8


class TestContentHash:
    def test_name_is_not_part_of_the_hash(self):
        a = make_spec(name="one").expand()
        b = make_spec(name="two").expand()
        assert [c.hash for c in a] == [c.hash for c in b]

    @pytest.mark.parametrize(
        "override",
        [
            {"trials": 5},
            {"seed": SeedPolicy(root=8)},
            {"seed": SeedPolicy(root=7, kind="fixed")},
            {"max_steps": 1000},
            {"params_grid": {"k": [2, 3]}},
            {"graph_grid": {"n": [8, 32], "d": [2]}},
            {"process": "simple", "params_grid": {}},
            {"metric": "hit", "target": "last"},
        ],
        ids=lambda o: next(iter(o)),
    )
    def test_hash_changes_when_content_changes(self, override):
        base = {c.hash for c in make_spec().expand()}
        changed = {c.hash for c in make_spec(**override).expand()}
        assert base != changed

    def test_hash_stable_across_processes_of_the_grid(self):
        # every cell of a sweep has a distinct hash
        hashes = [c.hash for c in make_spec().expand()]
        assert len(set(hashes)) == len(hashes)

    def test_explicit_default_param_shares_the_hash(self):
        # params canonicalize against the registry defaults: spelling
        # cobra's default k=2 out loud is the same cell as omitting it
        explicit = make_spec(params_grid={"k": [2]}).expand()
        implicit = make_spec(params_grid={}).expand()
        assert [c.hash for c in explicit] == [c.hash for c in implicit]
        assert dict(implicit[0].params)["k"] == 2


class TestSeedDerivation:
    def test_content_seed_is_position_independent(self):
        small = make_spec(graph_grid={"n": [8], "d": [2]})
        big = make_spec(graph_grid={"n": [4, 8, 16], "d": [2]})
        by_hash_small = {c.hash: c.seed_entropy() for c in small.expand()}
        by_hash_big = {c.hash: c.seed_entropy() for c in big.expand()}
        for h, entropy in by_hash_small.items():
            assert by_hash_big[h] == entropy

    def test_fixed_policy_shares_the_root(self):
        spec = make_spec(seed=SeedPolicy(root=11, kind="fixed"))
        entropies = {tuple(c.seed_entropy()) for c in spec.expand()}
        assert entropies == {(11,)}

    def test_root_changes_every_stream(self):
        a = [tuple(c.seed_entropy()) for c in make_spec(seed=SeedPolicy(0)).expand()]
        b = [tuple(c.seed_entropy()) for c in make_spec(seed=SeedPolicy(1)).expand()]
        assert not set(a) & set(b)

    def test_bad_policy(self):
        with pytest.raises(ValueError, match="kind"):
            SeedPolicy(root=0, kind="chaotic")
        with pytest.raises(ValueError, match="int"):
            SeedPolicy(root="zero")


class TestRunKey:
    def test_build_graph_and_resolve_target(self):
        key = RunKey(
            process="cobra",
            metric="hit",
            graph_builder="cycle_graph",
            graph_params=(("n", 12),),
            target="last",
        )
        g = key.build_graph()
        assert g.n == 12
        assert key.resolve_target(g) == 11

    def test_target_rules_and_validation(self):
        key = RunKey(
            process="cobra", metric="hit", graph_builder="cycle_graph",
            graph_params=(("n", 10),), target="center",
        )
        g = key.build_graph()
        assert key.resolve_target(g) == 5
        bad = RunKey(
            process="cobra", metric="hit", graph_builder="cycle_graph",
            graph_params=(("n", 10),), target=10,
        )
        with pytest.raises(ValueError, match="out of range"):
            bad.resolve_target(g)

    def test_unknown_builder(self):
        # deleted builders (old stores may still name them) and
        # repro.graphs helpers that build no graph fail the same way
        for name in ("not_a_builder", "erdos_renyi", "margulis", "random_tree",
                     "diameter"):
            key = RunKey(
                process="cobra", metric="cover", graph_builder=name,
                graph_params=(),
            )
            with pytest.raises(ValueError, match=f"unknown graph builder {name!r}"):
                key.build_graph()

    def test_every_listed_builder_resolves(self):
        import repro.graphs as graphs
        from repro.store.spec import resolve_graph_builder

        for name in graphs.GRAPH_BUILDERS:
            assert resolve_graph_builder(name) is getattr(graphs, name)

    def test_farthest_target_rule(self):
        # on a cycle the BFS-farthest vertex from 0 is the antipode
        key = RunKey(
            process="cobra", metric="hit", graph_builder="cycle_graph",
            graph_params=(("n", 12),), target="farthest",
        )
        assert key.resolve_target(key.build_graph()) == 6
        # on a path it is the far end
        path = RunKey(
            process="cobra", metric="hit", graph_builder="path_graph",
            graph_params=(("n", 9),), target="farthest",
        )
        assert path.resolve_target(path.build_graph()) == 8


class TestSequenceGraphValues:
    def test_sequence_axis_expands_builds_and_hashes(self):
        spec = make_spec(
            graph="circulant",
            graph_grid={"n": [16, 24], "offsets": [(1, 2)]},
            params_grid={},
        )
        cells = spec.expand()
        assert len(cells) == 2
        for cell in cells:
            assert dict(cell.graph_params)["offsets"] == (1, 2)
            g = cell.build_graph()
            assert g.n == dict(cell.graph_params)["n"]
        # payload serialises the tuple as a JSON list
        assert cells[0].payload()["graph"]["params"]["offsets"] == [1, 2]

    def test_list_and_tuple_values_are_the_same_cell(self):
        as_tuple = make_spec(
            graph="circulant", graph_grid={"n": [16], "offsets": [(1, 2)]},
            params_grid={},
        ).expand()
        as_list = make_spec(
            graph="circulant", graph_grid={"n": [16], "offsets": [[1, 2]]},
            params_grid={},
        ).expand()
        assert [c.hash for c in as_tuple] == [c.hash for c in as_list]

    def test_sequence_content_changes_the_hash(self):
        a = make_spec(
            graph="circulant", graph_grid={"n": [16], "offsets": [(1, 2)]},
            params_grid={},
        ).expand()[0]
        b = make_spec(
            graph="circulant", graph_grid={"n": [16], "offsets": [(1, 3)]},
            params_grid={},
        ).expand()[0]
        assert a.hash != b.hash

    def test_bad_sequence_values_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            make_spec(graph_grid={"n": [()], "d": [2]})
        with pytest.raises(ValueError, match="scalar"):
            make_spec(graph_grid={"n": [({},)], "d": [2]})
        # process params stay scalar-only
        with pytest.raises(ValueError, match="scalar"):
            make_spec(params_grid={"k": [(1, 2)]})
