"""Rumor spreading in a peer-to-peer overlay.

The paper's message-passing motivation: a vertex may forward k copies
of a message to random neighbors each round.  On a P2P-style overlay
(random 8-regular — the classical robust overlay topology) we compare
the time for one message to reach every peer under:

* 2-cobra forwarding (the paper's protocol),
* push gossip (every informed node forwards every round — more
  messages per round, the classical baseline),
* 2 parallel random walks (token passing, constant state),
* a single random walk (the minimal-state baseline).

We also measure the per-protocol *message cost* (total forwards until
full dissemination), the trade-off the paper's intro highlights: a
cobra walk's per-round message budget equals k·|active| ≤ 2·frontier,
while push pays |informed| forwards every round.

Usage::

    python examples/rumor_spreading.py
"""

from __future__ import annotations

import numpy as np

from repro import run_batch
from repro.analysis import Table, summarize
from repro.core import CobraWalk
from repro.graphs import random_regular
from repro.sim import spawn_seeds
from repro.walks import GossipSpread


def cobra_rounds_and_messages(graph, seed) -> tuple[int, int]:
    walk = CobraWalk(graph, k=2, start=0, seed=seed, record_history=True)
    while not walk.all_covered and walk.t < 10 * graph.n * 20:
        walk.step()
    if not walk.all_covered:
        raise RuntimeError("cobra forwarding did not finish")
    # every active vertex forwards k = 2 copies in each round but the last
    messages = int(2 * walk.history[:-1].sum())
    return int(walk.first_activation.max()), messages


def push_rounds_and_messages(graph, seed) -> tuple[int, int]:
    gossip = GossipSpread(graph, start=0, push=True, seed=seed)
    messages = 0
    while not gossip.all_covered and gossip.t < 10 * graph.n * 20:
        # every informed vertex forwards one copy this round
        messages += gossip.num_covered
        gossip.step()
    if not gossip.all_covered:
        raise RuntimeError("push did not finish")
    return gossip.t, messages


def main() -> None:
    n = 2048
    g = random_regular(n, 8, seed=5)
    print(f"overlay: {g.name}, n={g.n}, diameter-scale ~ log n = {np.log(n):.1f}\n")

    trials = 10
    rows = {
        "2-cobra forwarding": [],
        "push gossip": [],
    }
    msg = {"2-cobra forwarding": [], "push gossip": []}
    for s_cobra, s_push in zip(spawn_seeds(1, trials), spawn_seeds(2, trials)):
        r, m = cobra_rounds_and_messages(g, s_cobra)
        rows["2-cobra forwarding"].append(r)
        msg["2-cobra forwarding"].append(m)
        r, m = push_rounds_and_messages(g, s_push)
        rows["push gossip"].append(r)
        msg["push gossip"].append(m)

    # walk-based token-passing baselines through the unified facade
    par = run_batch(g, "parallel", trials=3, seed=3, walkers=2)
    rw = run_batch(g, "simple", trials=2, seed=4)

    table = Table(
        ["protocol", "rounds (mean)", "rounds (median)", "messages (mean)"],
        title="time and message cost to inform all peers",
    )
    for name in rows:
        s = summarize(rows[name])
        table.add_row([name, s.mean, s.median, float(np.mean(msg[name]))])
    table.add_row(["2 parallel walks", par.mean, par.median, par.mean * 2])
    table.add_row(["single random walk", rw.mean, rw.median, rw.mean])
    print(table.render())

    print(
        "\nReading: cobra forwarding finishes in O(log^2 n) rounds "
        "(Corollary 9)\nat a total message cost comparable to push "
        "gossip's — but with at most\ntwo forwards per active vertex per "
        "round and no 'already informed'\nbookkeeping, while token-passing "
        "protocols (walk-based) pay ~n log n\nrounds — the trade-off space "
        "the paper's introduction lays out."
    )


if __name__ == "__main__":
    main()
