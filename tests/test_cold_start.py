"""Import budget of the ``sweep`` verbs, and the lazy package exports.

A sweep verb pays for every module its import pulls in before it does
any work.  Package ``__init__`` modules export lazily
(:mod:`repro._lazy`) and scipy is imported only inside the functions
that use it, so the CLI and the read path stay off scipy, the paper's
process modules and the batched engines.  The budget checks run in a
fresh interpreter: this suite's own imports have long since loaded
everything.
"""

import importlib
import json
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.graphs",
    "repro.obs",
    "repro.sim",
    "repro.store",
    "repro.walks",
]

#: modules no sweep verb may load just by importing the CLI
CLI_EXCLUDED = [
    "scipy",
    "repro.spectral",
    "repro.core",
    "repro.graphs.product",
    "repro.analysis.plot",
]


def _fresh(code: str) -> str:
    """Run *code* in a new interpreter with ``src`` on the path."""
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return out.stdout


def _loaded_after(module: str, candidates: list[str]) -> list[str]:
    code = (
        f"import {module}\n"
        f"print(json.dumps([m for m in {candidates!r} if m in sys.modules]))"
    )
    return json.loads(_fresh("import json\n" + code))


@pytest.mark.parametrize(
    ("module", "excluded"),
    [
        ("repro.experiments.cli", CLI_EXCLUDED),
        ("repro.store.service", [*CLI_EXCLUDED, "repro.sim.batch"]),
    ],
)
def test_import_budget(module, excluded):
    assert _loaded_after(module, excluded) == []


def test_serve_verb_loads_no_campaign_or_engine_modules():
    """``sweep serve`` up to binding its server: the read path only."""
    excluded = [
        *CLI_EXCLUDED,
        "repro.sim.batch",
        "repro.sim.montecarlo",
        "repro.store.campaign",
        "multiprocessing",
    ]
    code = f"""
import json
import repro.store.service as service

def stop(store, **kwargs):
    print(json.dumps([m for m in {excluded!r} if m in sys.modules]))
    raise SystemExit(0)

service.make_server = stop
from repro.experiments.cli import main
main(["sweep", "serve", "--store", ":memory:", "--port", "0"])
"""
    assert json.loads(_fresh(code)) == []


def test_every_lazy_name_resolves_to_its_object_cold():
    """Each exported name is the object, not a same-named submodule,
    even when every submodule was imported first (the order that makes
    the import system bind a module over a lazy name)."""
    code = f"""
import importlib, json, pkgutil, types
for name in {LAZY_PACKAGES!r}:
    for info in pkgutil.iter_modules(importlib.import_module(name).__path__):
        if not info.ispkg and info.name != "__main__":
            importlib.import_module(f"{{name}}.{{info.name}}")
bad = [f"{{name}}.{{attr}}" for name in {LAZY_PACKAGES!r}
       for attr in importlib.import_module(name).__all__
       if isinstance(getattr(importlib.import_module(name), attr), types.ModuleType)]
print(json.dumps(bad))
"""
    assert json.loads(_fresh(code)) == []


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestLazyExports:
    def test_all_names_resolve_and_are_listed(self, name):
        pkg = importlib.import_module(name)
        listing = dir(pkg)
        for attr in pkg.__all__:
            assert attr in listing
            assert getattr(pkg, attr) is not None

    def test_star_import_binds_exactly_all(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(
            importlib.import_module(name).__all__
        )

    def test_submodules_are_attributes(self, name):
        pkg = importlib.import_module(name)
        for info in pkgutil.iter_modules(pkg.__path__):
            if info.name != "__main__":
                assert isinstance(getattr(pkg, info.name), types.ModuleType) or (
                    info.name in pkg.__all__
                )

    def test_unknown_name_raises_attribute_error(self, name):
        pkg = importlib.import_module(name)
        with pytest.raises(AttributeError):
            pkg.no_such_name  # noqa: B018
        assert not hasattr(pkg, "__no_such_dunder__")


def test_top_level_front_door():
    from repro import __version__, grid, run_batch

    import repro

    assert repro.__all__[0] == "__version__" and __version__
    assert run_batch(grid(4, 2), "cobra", trials=2, seed=0).values.size == 2
