"""Smoke tests for the example scripts.

Each example is importable (no side effects at import) and exposes a
``main()``; the cheap ones run end-to-end under a subprocess so the
documented entry points stay alive.  The two that step a cobra walk
by hand pin one seeded table row each, so a change to the serial
stepping classes that moves a value shows here.
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = [
    "quickstart.py",
    "epidemic_sis.py",
    "rumor_spreading.py",
    "grid_coverage.py",
    "worst_case_graphs.py",
]


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_importable_with_main(script):
    path = EXAMPLES / script
    assert path.exists()
    spec = importlib.util.spec_from_file_location(script[:-3], path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)  # type: ignore[union-attr]
    assert callable(getattr(mod, "main", None))


def test_quickstart_runs():
    out = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert out.returncode == 0, out.stderr
    assert "2-cobra walk covered all vertices" in out.stdout
    assert "slower" in out.stdout


def _run(script: str) -> list[str]:
    """Run an example; its stdout lines with trailing spaces stripped."""
    out = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert out.returncode == 0, out.stderr
    return [line.rstrip() for line in out.stdout.splitlines()]


def test_rumor_spreading_runs():
    lines = _run("rumor_spreading.py")
    assert "2-cobra forwarding  18.3           18               1.923e+04" in lines
    assert "push gossip         22.1           22               1.892e+04" in lines


def test_epidemic_sis_runs():
    lines = _run("epidemic_sis.py")
    # the proximity network's k = 2 row
    assert "2                   94              49           71           77.2%" in lines
