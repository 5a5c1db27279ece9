"""CI smoke: two real ``sweep work`` OS processes drain one campaign.

The multi-worker acceptance contract, proven with genuinely separate
processes coordinating only through the shared store directory::

    PYTHONPATH=src python ci/smoke_dispatch.py [STORE_DIR]

Two ``cobra-experiments sweep work DEMO_grid2x2 --trace`` workers are
launched concurrently against one store.  Afterward:

* the campaign is complete and ``sweep fsck`` exits 0 (clean store);
* ``claims.jsonl`` replays every raw line, with exactly one ``claim``
  and one ``done`` line per cell;
* a third ``sweep work`` over the finished store reports every cell
  cached and leaves ``claims.jsonl`` byte-identical (no claim written);
* every stored cell's values are **identical** to an uninterrupted
  single-worker ``Campaign.run()`` reference (content-derived seeds —
  worker placement cannot matter);
* the interleaved ``events.jsonl`` round-trips with **no torn lines**:
  exactly cells × phases phase records, every one attributed to one of
  the two workers, and every stored cell's provenance names the worker
  that computed it;
* ``sweep report`` renders a straggler table attributing every cell,
  and its double-computed and torn-event counts equal ``fsck``'s
  duplicates and torn event lines (one shard scan, one line reader);
* ``sweep compact`` prunes the claim ledger and the store stays clean;
* an in-library ``Campaign(spec, store, workers=2).run()`` over a
  second, fresh store directory drains the same sweep on a local pool:
  every cell runs exactly once across the pool (one ``claim`` and one
  ``done`` ledger line each, no duplicate shard records), and every
  stored value equals the single-worker reference.

Runnable locally and testable (``tests/test_ci_smokes.py``).  Exits
non-zero on any violation.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
SWEEP = "DEMO_grid2x2"
SEED = 0


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{REPO_SRC}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else str(REPO_SRC)
    )
    return env


def _sweep_cli(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "sweep", *args],
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _wait(proc: subprocess.Popen, what: str) -> str:
    out, _ = proc.communicate(timeout=300)
    print(f"--- {what} (exit {proc.returncode}) ---")
    print(out, end="")
    assert proc.returncode == 0, f"{what} failed with exit {proc.returncode}"
    return out


def main(store_dir: str) -> int:
    """Run the dispatch smoke against *store_dir*.

    Parameters
    ----------
    store_dir : str
        Shared store directory the two workers drain.

    Returns
    -------
    int
        0 on success (assertions abort otherwise).
    """
    from repro.store import Campaign, ResultStore, fsck
    from repro.store.sweeps import build_sweep

    (spec,) = build_sweep(SWEEP, seed=SEED)
    cells = spec.expand()
    assert len(cells) == 4

    # uninterrupted single-worker reference, in memory
    reference = ResultStore()
    Campaign(spec, reference).run()

    # two concurrent OS-process workers drain the shared store; --wait
    # keeps each alive until every cell is stored by *someone*
    workers = [
        _sweep_cli(
            "work", SWEEP, "--store", store_dir, "--seed", str(SEED),
            "--owner", f"smoke-w{i}", "--wait", "--trace",
        )
        for i in range(2)
    ]
    outputs = [_wait(proc, f"worker {i}") for i, proc in enumerate(workers)]

    # between them the workers computed every cell exactly once
    # (bar a benign lease-expiry recompute, impossible at this TTL)
    ran_total = sum(int(out.split("ran ")[1].split(",")[0]) for out in outputs)
    assert ran_total == len(cells), f"workers ran {ran_total} cells, not {len(cells)}"

    # the two processes' claims (swaps that append to claims.jsonl) and
    # releases (locked appends) raced on one file: every raw line must
    # replay, and each cell holds exactly one claim and one done line
    from repro.store import ClaimLedger

    ledger = Path(store_dir) / "claims.jsonl"
    records = ClaimLedger(store_dir).records()
    raw_lines = len(ledger.read_bytes().splitlines())
    assert raw_lines == len(records), (
        f"claims.jsonl has {raw_lines} lines but replays {len(records)} records"
    )
    for cell in cells:
        ops = sorted(r["op"] for r in records if r["hash"] == cell.hash)
        assert ops == ["claim", "done"], f"cell {cell.hash[:12]} ledger ops {ops}"
    assert len(records) == 2 * len(cells), f"{len(records)} ledger records"

    # a third worker over the finished store finds every cell cached
    # and writes no claim: the ledger stays byte-identical
    before = ledger.read_bytes()
    third = _wait(
        _sweep_cli(
            "work", SWEEP, "--store", store_dir, "--seed", str(SEED),
            "--owner", "smoke-w2",
        ),
        "worker 2 (finished store)",
    )
    assert f"ran 0, cached {len(cells)}, deferred 0" in third, third
    assert ledger.read_bytes() == before, "a worker over a finished store wrote claims"

    # fsck via the CLI: clean store is exit 0
    _wait(_sweep_cli("fsck", "--store", store_dir), "fsck")

    # value-for-value identical to the single-worker reference, and
    # provenance attributes every cell to the worker that computed it
    store = ResultStore(store_dir)
    for cell in cells:
        record = store.get(cell)
        assert record is not None, f"cell {cell.hash[:12]} missing after drain"
        a = record["result"]["values"]
        b = reference.get(cell)["result"]["values"]
        assert a == b, f"cell {cell.hash[:12]} diverged across workers"
        worker = record["provenance"]["worker"]
        assert worker.startswith("smoke-w"), (
            f"cell {cell.hash[:12]} attributed to {worker!r}"
        )

    # the two processes interleaved their telemetry through one flock:
    # the event log round-trips with zero torn lines and exactly
    # cells × phases phase records, each attributed to a worker
    from repro.obs import EventLog
    from repro.store.campaign import CELL_PHASES

    log = EventLog(store_dir)
    assert log.torn_lines() == 0, f"{log.torn_lines()} torn event lines"
    phases = log.frame().filter(kind="phase")
    expected = len(cells) * len(CELL_PHASES)
    assert len(phases) == expected, (
        f"{len(phases)} phase events, expected {expected}"
    )
    event_workers = set(phases.column("worker"))
    assert event_workers <= {"smoke-w0", "smoke-w1"}, event_workers

    # the straggler report attributes every cell to a smoke worker
    report_out = _wait(
        _sweep_cli("report", SWEEP, "--store", store_dir, "--seed", str(SEED)),
        "report",
    )
    assert "worker attribution" in report_out, report_out
    assert "smoke-w" in report_out, report_out
    from repro.obs import build_report

    store_report = build_report(ResultStore(store_dir))
    health = fsck(ResultStore(store_dir))
    assert store_report.ledger["double_computed"] == len(health.duplicates), (
        store_report.ledger, health.duplicates
    )
    assert store_report.events["torn"] == health.events_corrupt, (
        store_report.events, health.events_corrupt
    )

    # compaction prunes the ledger and the store stays clean
    _wait(_sweep_cli("compact", "--store", store_dir), "compact")
    report = fsck(ResultStore(store_dir))
    assert report.clean and report.cells == len(cells), report.summary()

    # the same sweep through Campaign(workers=2)'s local pool, on a
    # fresh store: each cell runs once across the pool, value-identical
    pool_dir = Path(store_dir).with_name(Path(store_dir).name + "-pool")
    pool_report = Campaign(spec, ResultStore(pool_dir), workers=2).run()
    assert sorted(pool_report.ran) == sorted(c.hash for c in cells), pool_report
    assert not pool_report.cached and not pool_report.pending, pool_report
    pool_records = ClaimLedger(pool_dir).records()
    for cell in cells:
        ops = sorted(r["op"] for r in pool_records if r["hash"] == cell.hash)
        assert ops == ["claim", "done"], f"pool cell {cell.hash[:12]} ledger ops {ops}"
    pool_store = ResultStore(pool_dir)
    pool_health = fsck(pool_store)
    assert pool_health.clean and not pool_health.duplicates, pool_health.summary()
    for cell in cells:
        a = pool_store.get(cell)["result"]["values"]
        b = reference.get(cell)["result"]["values"]
        assert a == b, f"cell {cell.hash[:12]} diverged on the Campaign pool"
    print(
        "dispatch smoke: 2-worker drain value-identical, "
        f"{expected} events untorn, fsck clean; "
        "Campaign(workers=2) pool ran each cell once, value-identical"
    )
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_SRC))
    if len(sys.argv) > 1:
        raise SystemExit(main(sys.argv[1]))
    with tempfile.TemporaryDirectory() as tmp:
        raise SystemExit(main(f"{tmp}/store"))
