"""Docstring gate for the sim facade layer and its registered engines.

The CI pipeline runs ``ruff check --select D1,D417`` (pydocstyle
missing-docstring rules plus undocumented-parameters, numpy
convention via ruff.toml) over ``sim/facade.py``, ``sim/batch.py``,
``sim/processes.py`` and ``walks/simple.py`` (whose ``rw_trials`` is
the simple walk's registered batch engine); this in-repo twin keeps the
core of that contract enforceable offline (ruff is not vendored): every public
symbol carries a real docstring, and every public function's
docstring names each of its parameters.
"""

import inspect

import pytest

import repro.sim.batch as batch
import repro.sim.facade as facade
import repro.sim.processes as processes
import repro.walks.simple as simple

MODULES = [facade, batch, processes, simple]


def _public_functions(module):
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            yield name, obj


def _public_classes(module):
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj):
            yield name, obj


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
class TestDocstrings:
    def test_module_docstring(self, module):
        assert module.__doc__ and len(module.__doc__.strip()) > 40

    def test_every_public_symbol_documented(self, module):
        undocumented = [
            name
            for name in module.__all__
            if callable(getattr(module, name))
            and not (getattr(module, name).__doc__ or "").strip()
        ]
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_function_docstrings_name_every_parameter(self, module):
        offenders = []
        for name, fn in _public_functions(module):
            doc = fn.__doc__ or ""
            for pname, param in inspect.signature(fn).parameters.items():
                if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                    continue
                if pname not in doc:
                    offenders.append(f"{name}({pname})")
        assert not offenders, f"parameters missing from docstrings: {offenders}"

    def test_public_methods_documented(self, module):
        offenders = []
        for cname, cls in _public_classes(module):
            for mname, member in inspect.getmembers(cls):
                if mname.startswith("_"):
                    continue
                if inspect.isfunction(member) or isinstance(
                    inspect.getattr_static(cls, mname), property
                ):
                    doc = (
                        member.fget.__doc__
                        if isinstance(member, property)
                        else member.__doc__
                    )
                    if not (doc or "").strip():
                        offenders.append(f"{cname}.{mname}")
        assert not offenders, f"undocumented public members: {offenders}"
