#!/usr/bin/env python
"""Configuring CARD for a deployment — the paper's R/r/NoC tuning story.

Fig 9's point is that "for any given network, the values of R and r can be
configured to provide a desirable reachability distribution".  This example
automates that tuning: given a concrete network, it sweeps (R, r, NoC),
scores each configuration by reachability, overhead and the fraction of
nodes above the paper's 50 % "desirable" threshold, and prints a Pareto
summary a deployer could act on.

Run:  python examples/parameter_tuning.py
"""

from repro import CARDParams, SnapshotRunner, build_topology
from repro.util.tables import format_table

SEED = 5
NUM_NODES = 350
AREA = (600.0, 600.0)
TX = 50.0
SOURCES = 80  # measured sample


def main() -> None:
    topo = build_topology(NUM_NODES, AREA, TX, seed=SEED, salt="tuning")
    st = topo.stats()
    print(f"target network: {NUM_NODES} nodes, diameter {st.diameter}, "
          f"mean path {st.mean_hops:.1f} hops\n")

    import numpy as np

    rng = np.random.default_rng(SEED)
    sources = sorted(int(s) for s in rng.choice(NUM_NODES, SOURCES, replace=False))

    rows = []
    best = None
    for R in (2, 3, 4):
        for r_delta in (2, 4, 8):
            r = 2 * R + r_delta
            # one selection at the largest NoC; the smaller ones are its
            # prefixes, read off with view()
            runner = SnapshotRunner(
                topo, CARDParams(R=R, r=r, noc=8, depth=1), seed=SEED, sources=sources
            )
            runner.run()
            for noc in (3, 5, 8):
                result = runner.view(noc, 1)
                params = result.params
                ovh = result.selection_per_node() + result.backtracking_per_node()
                reach = result.reachability
                frac = float((reach >= 50.0).mean()) if reach.size else 0.0
                score = result.mean_reachability - 0.02 * ovh
                rows.append(
                    [R, r, noc,
                     round(result.mean_reachability, 1),
                     round(100 * frac, 1),
                     round(result.mean_contacts, 2),
                     round(ovh, 1),
                     round(score, 1)]
                )
                if best is None or score > best[0]:
                    best = (score, params)

    rows.sort(key=lambda row: -row[-1])
    print(format_table(
        ["R", "r", "NoC", "mean reach %", ">=50% nodes %", "contacts",
         "ovh/node", "score"],
        rows[:12],
        title="top configurations (score = reachability - 0.02*overhead)",
    ))
    assert best is not None
    print(f"\nrecommended: {best[1].describe()}")
    print("(depth of search D>1 multiplies reachability further at query "
          "time without extra standing state — see Fig 8)")


if __name__ == "__main__":
    main()
