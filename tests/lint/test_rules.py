"""Per-rule fixtures for the AST rules in ``repro.lint.rules``.

Each rule gets at least one positive fixture (the violation fires, at
the right line, with the right severity) and one negative fixture (the
compliant spelling stays silent).  Paths are synthetic POSIX strings —
the rules scope themselves by path substring, so a fixture opts into a
scope by naming itself e.g. ``src/repro/store/foo.py``.
"""

import textwrap

import pytest

from repro.lint import ERROR, WARNING, all_rules, get_rule, lint_source

# paths inside / outside the scopes the rules key on
ENGINE = "src/repro/sim/engine.py"
STORE = "src/repro/store/store.py"
LOCKING = "src/repro/store/locking.py"
BACKEND = "src/repro/store/backend.py"
RNG = "src/repro/sim/rng.py"
DISPATCH = "src/repro/store/dispatch.py"
FACADE = "src/repro/sim/facade.py"
EXAMPLE = "examples/demo.py"


def findings_for(source: str, path: str, rule_id: str | None = None):
    found = lint_source(textwrap.dedent(source), path)
    if rule_id is None:
        return found
    return [f for f in found if f.rule == rule_id]


class TestRegistry:
    def test_rule_ids_are_unique_and_sorted(self):
        ids = [r.id for r in all_rules()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_every_rule_has_invariant_and_fix(self):
        for rule in all_rules():
            assert rule.invariant, rule.id
            assert rule.fix, rule.id
            assert rule.severity in (ERROR, WARNING), rule.id

    def test_get_rule_raises_on_unknown_id(self):
        with pytest.raises(KeyError):
            get_rule("RPL999")


class TestRPL010Parse:
    def test_syntax_error_becomes_a_finding_not_a_crash(self):
        (finding,) = findings_for("def broken(:\n", EXAMPLE)
        assert finding.rule == "RPL010"
        assert finding.severity == ERROR
        assert "does not parse" in finding.message


class TestRPL100LegacyNumpyRandom:
    def test_np_random_seed_fires_anywhere(self):
        src = """\
        import numpy as np
        np.random.seed(0)
        """
        (finding,) = findings_for(src, EXAMPLE, "RPL100")
        assert finding.line == 2
        assert finding.severity == ERROR
        assert "global RNG" in finding.message

    def test_legacy_distribution_calls_fire(self):
        src = """\
        import numpy as np
        x = np.random.normal(0, 1, size=10)
        """
        assert findings_for(src, EXAMPLE, "RPL100")

    def test_from_import_alias_fires(self):
        src = """\
        from numpy.random import seed as np_seed
        np_seed(0)
        """
        assert findings_for(src, EXAMPLE, "RPL100")

    def test_generator_methods_do_not_fire(self):
        src = """\
        from repro.sim.rng import resolve_rng
        rng = resolve_rng(0)
        x = rng.normal(0, 1, size=10)
        """
        assert not findings_for(src, EXAMPLE, "RPL100")


class TestRPL101StdlibRandom:
    def test_import_random_in_engine_scope_fires(self):
        (finding,) = findings_for("import random\n", ENGINE, "RPL101")
        assert finding.severity == ERROR

    def test_from_random_import_fires(self):
        assert findings_for("from random import choice\n", STORE, "RPL101")

    def test_outside_engine_scope_is_allowed(self):
        assert not findings_for("import random\n", EXAMPLE, "RPL101")


class TestRPL102RngConstruction:
    def test_default_rng_outside_rng_module_fires(self):
        src = """\
        import numpy as np
        rng = np.random.default_rng(3)
        """
        (finding,) = findings_for(src, STORE, "RPL102")
        assert "sim/rng.py" in finding.message

    def test_from_import_generator_fires(self):
        src = """\
        from numpy.random import default_rng
        rng = default_rng(3)
        """
        assert findings_for(src, EXAMPLE, "RPL102")

    def test_rng_module_itself_is_exempt(self):
        src = """\
        import numpy as np
        rng = np.random.default_rng(3)
        """
        assert not findings_for(src, RNG, "RPL102")


class TestRPL103WallClock:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nt = time.time()\n",
            "import datetime\nnow = datetime.datetime.now()\n",
            "from datetime import datetime\nnow = datetime.utcnow()\n",
            "import os\nnoise = os.urandom(8)\n",
        ],
    )
    def test_wallclock_reads_fire_outside_allowlist(self, snippet):
        (finding,) = findings_for(snippet, ENGINE, "RPL103")
        assert finding.severity == ERROR
        assert "allowlist" in finding.message

    def test_dispatch_module_is_allowlisted(self):
        assert not findings_for("import time\nt = time.time()\n", DISPATCH, "RPL103")

    def test_monotonic_clock_is_allowed(self):
        assert not findings_for(
            "import time\nt = time.monotonic()\n", ENGINE, "RPL103"
        )


class TestRPL110RawStoreWrites:
    def test_builtin_open_write_mode_fires(self):
        src = 'handle = open("shards/x.jsonl", "w")\n'
        (finding,) = findings_for(src, STORE, "RPL110")
        assert "locking" in finding.message

    def test_path_open_append_mode_fires(self):
        src = """\
        from pathlib import Path
        with Path("claims.jsonl").open("a") as fh:
            fh.write("x")
        """
        assert findings_for(src, STORE, "RPL110")

    def test_mode_keyword_fires(self):
        src = 'open("x", mode="a+")\n'
        assert findings_for(src, STORE, "RPL110")

    def test_read_mode_is_allowed(self):
        assert not findings_for('open("x", "r")\n', STORE, "RPL110")

    @pytest.mark.parametrize("method", ["write_text", "write_bytes"])
    def test_whole_blob_rewrite_fires(self, method):
        src = f"""\
        from pathlib import Path
        Path("shards/x.jsonl").{method}(data)
        """
        (finding,) = findings_for(src, STORE, "RPL110")
        assert "compare_and_swap" in finding.message

    @pytest.mark.parametrize("path", [LOCKING, BACKEND])
    def test_seam_modules_are_exempt(self, path):
        assert not findings_for('open("x", "a")\n', path, "RPL110")
        assert not findings_for(
            'Path("x").write_text("y")\n', path, "RPL110"
        )

    def test_outside_store_is_allowed(self):
        assert not findings_for('open("x", "w")\n', EXAMPLE, "RPL110")
        assert not findings_for(
            'Path("x").write_text("y")\n', EXAMPLE, "RPL110"
        )


class TestRPL111FlockRelease:
    def test_bare_acquire_fires(self):
        src = """\
        import fcntl
        def grab(fh):
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            fh.write("claim")
        """
        (finding,) = findings_for(src, DISPATCH, "RPL111")
        assert finding.severity == ERROR
        assert "finally" in finding.message

    def test_acquire_inside_with_is_allowed(self):
        src = """\
        import fcntl
        def grab(path):
            with open(path) as fh:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
                fh.write("claim")
        """
        assert not findings_for(src, EXAMPLE, "RPL111")

    def test_try_finally_unlock_is_allowed(self):
        src = """\
        import fcntl
        def grab(fh):
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                fh.write("claim")
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        """
        assert not findings_for(src, EXAMPLE, "RPL111")

    def test_unlock_call_itself_does_not_fire(self):
        src = """\
        import fcntl
        def drop(fh):
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        """
        assert not findings_for(src, EXAMPLE, "RPL111")


class TestRPL111LeaseRelease:
    """The seam generalisation: try_claim must pair with a release on
    the error path, the lease analogue of flock/LOCK_UN."""

    def test_claim_without_abandon_path_fires(self):
        src = """\
        def work(ledger, hashes, owner):
            won = ledger.try_claim(hashes, owner=owner)
            for h in won:
                run(h)
                ledger.release(h, owner=owner, op="done")
        """
        (finding,) = findings_for(src, DISPATCH, "RPL111")
        assert "abandon" in finding.message

    def test_release_in_except_handler_is_allowed(self):
        src = """\
        def work(ledger, hashes, owner):
            won = ledger.try_claim(hashes, owner=owner)
            for h in won:
                try:
                    run(h)
                except BaseException:
                    ledger.release(h, owner=owner, op="abandon")
                    raise
                ledger.release(h, owner=owner, op="done")
        """
        assert not findings_for(src, DISPATCH, "RPL111")

    def test_release_in_finally_is_allowed(self):
        src = """\
        def work(ledger, h, owner):
            ledger.try_claim([h], owner=owner)
            try:
                run(h)
            finally:
                ledger.release(h, owner=owner)
        """
        assert not findings_for(src, DISPATCH, "RPL111")


SPEC_PREFIX = "from repro.sim.processes import ProcessSpec\n"


class TestRPL120CoverEngine:
    def test_cover_without_batch_cover_is_an_error(self):
        src = SPEC_PREFIX + (
            'spec = ProcessSpec(name="x", factory=object,'
            ' capabilities=frozenset({"cover"}))\n'
        )
        (finding,) = findings_for(src, ENGINE, "RPL120")
        assert finding.severity == ERROR

    def test_cover_with_batch_cover_is_allowed(self):
        src = SPEC_PREFIX + (
            'spec = ProcessSpec(name="x", factory=object,'
            ' capabilities=frozenset({"cover"}), batch_cover=object)\n'
        )
        assert not findings_for(src, ENGINE, "RPL120")


class TestRPL121HitEngineGap:
    def test_hit_without_batch_hit_is_a_warning(self):
        src = SPEC_PREFIX + (
            'spec = ProcessSpec(name="x", factory=object,'
            ' capabilities=frozenset({"hit"}))\n'
        )
        (finding,) = findings_for(src, ENGINE, "RPL121")
        assert finding.severity == WARNING

    def test_hit_with_batch_hit_is_allowed(self):
        src = SPEC_PREFIX + (
            'spec = ProcessSpec(name="x", factory=object,'
            ' capabilities=frozenset({"hit"}), batch_hit=object)\n'
        )
        assert not findings_for(src, ENGINE, "RPL121")


class TestRPL130Annotations:
    def test_unannotated_public_function_fires_in_gated_module(self):
        src = """\
        def simulate(graph, seed):
            return None
        """
        found = findings_for(src, FACADE, "RPL130")
        assert found
        assert any("graph" in f.message for f in found)
        assert any("return" in f.message for f in found)

    def test_fully_annotated_function_is_silent(self):
        src = """\
        def simulate(graph: object, seed: int | None = None) -> None:
            return None
        """
        assert not findings_for(src, FACADE, "RPL130")

    def test_private_functions_are_exempt(self):
        assert not findings_for("def _helper(x):\n    return x\n", FACADE, "RPL130")

    def test_public_method_self_is_exempt_but_args_are_not(self):
        src = """\
        class Facade:
            def run(self, trials):
                return trials
        """
        found = findings_for(src, FACADE, "RPL130")
        assert found
        assert all("self" not in f.message for f in found)

    def test_ungated_modules_are_exempt(self):
        assert not findings_for("def f(x):\n    return x\n", EXAMPLE, "RPL130")

    def test_simple_walk_module_is_gated(self):
        src = "def walk_blocks(oracle, pos, rng, max_steps, settle):\n    return 0\n"
        assert findings_for(src, "src/repro/walks/simple.py", "RPL130")


class TestRPL150RawClockReads:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nt = time.perf_counter()\n",
            "import time\nt = time.monotonic()\n",
            "import time\nt = time.time()\n",
            "import time\nt = time.process_time_ns()\n",
            "from time import perf_counter\nt = perf_counter()\n",
            "from time import perf_counter as pc\nt = pc()\n",
        ],
    )
    def test_clock_reads_fire_in_sim_and_store(self, snippet):
        for path in (ENGINE, STORE):
            (finding,) = findings_for(snippet, path, "RPL150")
            assert finding.severity == ERROR
            assert "Tracer clock" in finding.message

    def test_outside_sim_store_is_silent(self):
        src = "import time\nt = time.perf_counter()\n"
        assert not findings_for(src, EXAMPLE, "RPL150")

    def test_dispatch_lease_ttls_are_allowlisted(self):
        assert not findings_for(
            "import time\nt = time.time()\n", DISPATCH, "RPL150"
        )

    def test_sleep_is_waiting_not_reading(self):
        assert not findings_for(
            "import time\ntime.sleep(0.1)\n", ENGINE, "RPL150"
        )

    def test_injected_tracer_clock_is_the_compliant_spelling(self):
        src = """\
        from repro.obs.trace import current_tracer
        t0 = current_tracer().clock()
        """
        assert not findings_for(src, ENGINE, "RPL150")

    def test_shipped_sim_and_store_trees_are_clean(self):
        from pathlib import Path

        import repro.sim as sim

        src_root = Path(sim.__file__).resolve().parent.parent
        for module in sorted(src_root.glob("sim/*.py")) + sorted(
            src_root.glob("store/*.py")
        ):
            rel = f"src/repro/{module.parent.name}/{module.name}"
            assert not findings_for(
                module.read_text(encoding="utf-8"), rel, "RPL150"
            ), rel


class TestOrderingAndRendering:
    def test_findings_sorted_by_position(self):
        src = """\
        import numpy as np
        import random
        np.random.seed(0)
        """
        found = findings_for(src, ENGINE)
        assert [f.line for f in found] == sorted(f.line for f in found)

    def test_render_is_path_line_col_rule(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        (finding,) = findings_for(src, EXAMPLE, "RPL100")
        rendered = finding.render()
        assert rendered.startswith(f"{EXAMPLE}:2:")
        assert "RPL100" in rendered and "[error]" in rendered
