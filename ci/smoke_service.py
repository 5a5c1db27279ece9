"""CI smoke: the sweep service end to end, with no shared filesystem.

The PR-10 acceptance flow as real OS processes::

    PYTHONPATH=src python ci/smoke_service.py

* ``sweep serve --store :memory: --port 0`` boots the HTTP front end
  over an in-process CAS backend; the first stdout line
  (``serving … at http://host:port``) is parsed for the bound port;
* ``sweep declare DEMO_grid2x2`` announces the campaign in the served
  store's registry — through the blob seam, over HTTP;
* a ``sweep work --loop`` daemon polls the registry and drains all
  four cells through ``HTTPCASBackend`` (its only channel to the
  store is the server's conditional-put blob API);
* every drained cell, fetched back via ``GET /cell/<hash>``, is
  **value-for-value identical** to an uninterrupted local
  ``Campaign.run()`` reference;
* a ``GET /frame?groupby=…`` sent with the ETag taken before the
  drain answers **200**, never a stale 304; its body parses as the
  canonical ``repro.frame/1`` document and matches the reference's
  groupby rows; a second GET with the new ETag answers **304** with
  an empty body;
* ``sweep fsck --store http://…`` exits 0 against the served store;
* SIGTERM stops the worker (``stopped on signal`` — the lease-release
  path) and the server (``serve: stopped``), both with exit 0.

Runnable locally and testable (``tests/test_ci_smokes.py``).  Exits
non-zero on any violation.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import urllib.error
import urllib.request
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


def _terminate(proc: subprocess.Popen, what: str) -> str:
    """SIGTERM a daemon and require the clean exit-0 shutdown path."""
    proc.send_signal(signal.SIGTERM)
    return _wait(proc, what)


def _get(url: str, **headers: str):
    """One GET -> (status, headers, bytes); 304/404 are data, not errors."""
    req = urllib.request.Request(url, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def main() -> int:
    """Run the service smoke (serve + declare + loop worker over HTTP).

    Returns
    -------
    int
        0 on success (assertions abort otherwise).
    """
    from repro.store import Campaign, Frame, ResultStore
    from repro.store.sweeps import build_sweep

    (spec,) = build_sweep(SWEEP, seed=SEED)
    cells = spec.expand()
    assert len(cells) == 4

    # uninterrupted single-process reference, in memory
    reference = ResultStore()
    Campaign(spec, reference).run()

    server = _sweep_cli("serve", "--store", ":memory:", "--port", "0")
    worker = None
    try:
        # the documented supervisor parse point: first stdout line
        banner = server.stdout.readline().strip()
        assert " at http://" in banner, f"unexpected serve banner: {banner!r}"
        url = banner.rsplit(" at ", 1)[1]
        print(f"--- serve bound at {url} ---")

        _wait(
            _sweep_cli(
                "declare", SWEEP, "--store", url, "--seed", str(SEED)
            ),
            "declare",
        )
        # a validator taken before the drain must never revalidate
        # after it: the warm store has to notice every changed shard
        frame_url = f"{url}/frame?groupby=g_n&aggregate=mean&column=mean"
        status, headers, _ = _get(frame_url)
        assert status == 200, f"pre-drain /frame answered {status}"
        stale_etag = headers["ETag"]

        worker = _sweep_cli(
            "work", "--loop", "--store", url,
            "--owner", "smoke-loop", "--interval", "0.2",
        )

        # the daemon's own completion line gates the shutdown: once
        # `ran 4 cell(s)` prints, drain() has returned, so every
        # record is already committed behind the blob API
        while True:
            line = worker.stdout.readline()
            assert line, "worker exited before draining the declaration"
            print(f"[worker] {line}", end="")
            if f"ran {len(cells)} cell(s)" in line:
                break

        # every cell resolves through the point-lookup route, with the
        # content hash as its strong ETag
        records: dict[str, dict] = {}
        for cell in cells:
            status, headers, body = _get(f"{url}/cell/{cell.hash}")
            assert status == 200, f"cell {cell.hash[:12]} answered {status}"
            assert headers["ETag"] == f'"{cell.hash}"'
            records[cell.hash] = json.loads(body)

        # value-for-value identical to the local reference — worker
        # placement and transport cannot matter (content-derived seeds)
        for cell in cells:
            a = records[cell.hash]["result"]["values"]
            b = reference.get(cell)["result"]["values"]
            assert a == b, f"cell {cell.hash[:12]} diverged over HTTP"
        print(f"--- {len(cells)} cells value-identical to Campaign.run() ---")

        # one canonical frame groupby over HTTP matches the reference;
        # asked with the pre-drain ETag, it is a 200, never a stale 304
        status, headers, body = _get(
            frame_url, **{"If-None-Match": stale_etag}
        )
        assert status == 200, f"/frame with a stale ETag answered {status}"
        assert headers["ETag"] != stale_etag
        remote = Frame.from_json(body.decode("utf-8"))
        local = Frame(reference.frame().aggregate("g_n", column="mean"))
        assert remote.rows == local.rows, "HTTP frame diverged from reference"

        # strong ETag: the second GET revalidates to 304, empty body
        etag = headers["ETag"]
        status, _, body = _get(frame_url, **{"If-None-Match": etag})
        assert status == 304 and body == b"", (
            f"revalidation answered {status} with {len(body)} bytes"
        )
        print("--- stale ETag is 200; frame matches; revalidation is 304 ---")

        # fsck over the same URL store: clean is exit 0
        _wait(_sweep_cli("fsck", "--store", url), "fsck")

        # clean SIGTERM shutdown on both daemons
        out = _terminate(worker, "worker shutdown")
        worker = None
        assert "stopped on signal" in out, out
        out = _terminate(server, "serve shutdown")
        assert "serve: stopped" in out, out
    finally:
        for proc in (worker, server):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)

    print(
        "service smoke: declare + loop-worker drain over HTTP "
        "value-identical, frame 304 revalidation, fsck clean"
    )
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_SRC))
    raise SystemExit(main())
