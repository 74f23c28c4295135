"""The paper's qualitative claims, stated once as data and run by tier-1.

The golden fixtures hold every artifact bit-identical to the last
validated build; :data:`CLAIMS` holds the same artifacts to what the
*paper* says about them, so "matches the fixture" cannot drift away from
"agrees with the paper".  Each row runs through :func:`repro.api.run`
against one module-wide in-memory store: artifacts that share cells
(fig03/fig04/fig03_04, fig11/fig12) pay for them once.

Scale 0.4, 40 sources, seed 0 (~20 s for the module); every row also
holds at seeds 1 and 2.  fig11/fig12's *direction* (overhead and backtracking
fall as r widens) is a paper-scale effect that inverts on a network this
small, so those two rows keep the structural invariants only.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, NamedTuple

import pytest

import repro.api as api
from repro.artifacts.registry import ARTIFACTS
from repro.campaign.store import ResultStore

SCALE, SEED = 0.4, 0
SNAPSHOT = dict(num_sources=40)
SERIES = dict(SNAPSHOT, duration=10.0)
QUERIES = dict(num_queries=25)
EDGE_POLICIES = ("random", "spread", "degree")
MOBILITY_MODELS = ("RWP", "RandomWalk", "GaussMarkov")


def rising(xs, *, strict: bool = False) -> bool:
    xs = list(xs)
    return all(b > a if strict else b >= a for a, b in zip(xs, xs[1:]))


def falling(xs, *, strict: bool = False) -> bool:
    return rising([-x for x in xs], strict=strict)


def sweep(mapping, fmt: str, values) -> list:
    """``mapping``'s entries in sweep order: ``sweep(means, "NoC={}", (0, 4))``."""
    return [mapping[fmt.format(v)] for v in values]


def column(result, header: str) -> list:
    return [row[result.headers.index(header)] for row in result.rows]


def pick(result, header: str, *labels) -> list:
    """One column's cells for the rows labelled ``labels``, in that order."""
    by_label = dict(zip(column(result, result.headers[0]), column(result, header)))
    return [by_label[label] for label in labels]


def em_reaches_further(r) -> bool:
    em, pm = ([point[1] for point in r.raw[m]] for m in ("em", "pm"))
    return rising(em) and rising(pm) and all(e >= p for e, p in zip(em, pm))


def pm_backtracks_more(r) -> bool:
    return all(p[3] > e[3] for p, e in zip(r.raw["pm"], r.raw["em"]))


def rises_then_collapses(r) -> bool:
    means = sweep(r.raw["means"], "R={}", range(1, 8))
    peak = means.index(max(means))
    return rising(means[:3], strict=True) and 0 < peak < 6 and means[-1] < means[peak]


def diminishing_returns_in_r(r) -> bool:
    means = sweep(r.raw["means"], "r=2R{}", ("", *(f"+{d}" for d in range(2, 13, 2))))
    return rising(means, strict=True) and means[2] - means[0] >= means[6] - means[4]


def saturates_in_noc(r) -> bool:
    means = sweep(r.raw["means"], "NoC={}", (0, 4, 8, 12))
    gains = [b - a for a, b in zip(means, means[1:])]
    return rising(means) and falling(gains) and gains[0] > gains[-1]


def overhead_decomposes(r) -> bool:
    # every term ≥ 0, so backtracking is a component of, and ≤, the total
    parts = ("backtracking", "maintenance", "selection")
    return set(r.raw) == {"r=8", "r=9", "r=10", "r=12", "r=15"} and all(
        len(s["overhead"]) == 5
        and sum(s["overhead"]) > 0
        and all(
            min(back, *rest) >= 0 and abs(total - (back + sum(rest))) < 1e-6
            for total, back, *rest in zip(s["overhead"], *(s[p] for p in parts))
        )
        for s in r.raw.values()
    )


def reach_leads_overhead(r) -> bool:
    reach, cost = r.raw["reach"], r.raw["overhead"]
    if not (reach[-1] > 0 and cost[-1] > 0 and rising(reach) and rising(cost)):
        return False
    # strictly ahead wherever overhead is still climbing, never behind after
    return all(
        a / reach[-1] > b / cost[-1] or b == cost[-1] and a == reach[-1]
        for a, b in zip(reach, cost)
    )


def flooding_costs_most(r) -> bool:
    def per_size(unit):  # (flood, border, card) cost at each network size
        return zip(*(column(r, f"{who} {unit}") for who in ("Flood", "Border", "CARD")))

    msgs, events = per_size("msgs"), per_size("events")
    return all(f > max(b, c) for f, b, c in msgs) and all(f > b > c for f, b, c in events)


def links_follow_geometry(r) -> bool:
    links = [r.raw[f"scenario{i}"]["num_links"] for i in range(1, 9)]
    # scenarios 1-3 grow the area at fixed N; 4-6 grow the radio range
    return falling(links[0:3], strict=True) and rising(links[3:6], strict=True)


def contacts_are_shortcuts(r) -> bool:
    reports = [r.raw[k] for k in sorted(r.raw)]
    lengths = [rep["augmented_path_length"] for rep in reports]
    return (
        falling(lengths)
        and lengths[1] < lengths[0] == reports[0]["path_length"]
        and len({round(rep["clustering"], 6) for rep in reports}) == 1
    )


def overlap_falls_to_zero(r, *labels) -> bool:
    overlap = pick(r, "overlap %", *labels)
    return falling(overlap) and overlap[-2] > overlap[-1] == 0.0


def variants_are_live(r, labels, *headers) -> bool:
    """Exactly the rows ``labels``, each positive in every one of ``headers``."""
    return set(column(r, r.headers[0])) == set(labels) and all(
        min(pick(r, header, *labels)) > 0 for header in headers
    )


def dsq_beats_expanding_ring(r) -> bool:
    schemes = ("CARD DSQ (dedup)", "CARD DSQ (no dedup)", "Expanding ring")
    dedup, no_dedup, ring = pick(r, "total msgs", *schemes)
    return dedup <= no_dedup < ring


def crashes_hurt_and_repair_holds(r) -> bool:
    before, crash, repaired = (r.raw[k][0] for k in ("before", "crash", "repaired"))
    # repair recovers success modulo one marginal query: the band rule can
    # drop a repaired contact whose spliced route grew past r
    return crash <= before and repaired >= crash - 1 and column(r, "repair msgs")[2] > 0


def recovery_keeps_contacts(r) -> bool:
    lost_on, lost_off = pick(r, "contacts lost", "recovery ON", "recovery OFF")
    held_on, held_off = pick(r, "contacts at end", "recovery ON", "recovery OFF")
    return lost_on < lost_off and held_on >= held_off


class Claim(NamedTuple):
    artifact: str
    kwargs: dict
    holds: Callable[[object], bool]
    source: str
    says: str


# fmt: off
CLAIMS = [
    Claim("table1", {}, lambda r: len(r.rows) == 8 and links_follow_geometry(r), "Table 1",
          "eight scenarios; links fall as the area grows and rise with the radio range"),
    Claim("fig03", SNAPSHOT, em_reaches_further, "Fig 3",
          "reachability grows with NoC; EM reaches at least as far as PM at every NoC"),
    Claim("fig04", SNAPSHOT, pm_backtracks_more, "Fig 4, §III.C.2b",
          "PM (no query-id loop prevention) backtracks more than EM at every NoC"),
    Claim("fig03_04", SNAPSHOT, lambda r: em_reaches_further(r) and pm_backtracks_more(r),
          "Figs 3-4", "the combined table carries both claims"),
    Claim("fig05", SNAPSHOT, rises_then_collapses, "Fig 5",
          "reachability rises R=1..3, peaks mid-range, collapses once 2R nears r"),
    Claim("fig06", SNAPSHOT, diminishing_returns_in_r, "Fig 6",
          "reachability grows with r, the first steps gaining more than the last"),
    Claim("fig07", SNAPSHOT, saturates_in_noc, "Fig 7",
          "sharp rise then saturation: gains shrink over NoC 0-4-8-12"),
    Claim("fig08", SNAPSHOT,
          lambda r: rising(sweep(r.raw["means"], "D={}", (1, 2, 3)), strict=True),
          "Fig 8", "reachability rises strictly with the depth of search D"),
    Claim("fig09", SNAPSHOT,
          lambda r: set(r.raw["columns"]) == {"N=250", "N=500", "N=1000"}
          and all(c.sum() == SNAPSHOT["num_sources"] for c in r.raw["columns"].values()),
          "Fig 9", "one distribution per network size, every measured source in it"),
    Claim("fig10", SERIES,
          lambda r: rising(s["mean_overhead"] for s in sweep(r.raw, "NoC={}", (3, 4, 5, 7))),
          "Fig 10", "maintenance + re-selection overhead grows with NoC under mobility"),
    Claim("fig11", SERIES, overhead_decomposes, "Fig 11",
          "every r series present; overhead = maintenance + re-selection + backtracking"),
    Claim("fig12", SERIES, overhead_decomposes, "Fig 12",
          "every r series present; backtracking is a component of, never above, the total"),
    Claim("fig13", dict(SNAPSHOT, duration=20.0),
          lambda r: len(r.raw["series"]["times"]) == 10
          and min(r.raw["series"]["total_contacts"]) > 0,
          "Fig 13", "maintenance and replacement keep contacts alive through the whole run"),
    Claim("fig14", SNAPSHOT, reach_leads_overhead, "Fig 14",
          "reachability saturates first: its normalised curve leads overhead's until both top out"),
    Claim("fig15", QUERIES, flooding_costs_most, "Fig 15",
          "flooding costs most in messages and radio events at every size; CARD fewest events"),
    Claim("smallworld", SNAPSHOT, contacts_are_shortcuts, "§I (small-world motivation)",
          "contacts shorten the characteristic path length; clustering is untouched"),
    Claim("ablation_pm_eq", SNAPSHOT,
          lambda r: overlap_falls_to_zero(r, "PM eq.1", "PM eq.2", "EM"),
          "§III.C.2, eqs (1)-(2)", "eq.(2) overlaps no more than eq.(1); EM eliminates overlap"),
    Claim("ablation_overlap", SNAPSHOT,
          lambda r: overlap_falls_to_zero(r, "source check only", "no edge check", "full EM"),
          "§III.C.2b", "full EM has zero overlap; dropping the edge check reintroduces it"),
    Claim("ablation_edge_policy", SNAPSHOT,
          lambda r: variants_are_live(r, EDGE_POLICIES, "mean reach %", "contacts"),
          "§V (future work)", "every edge-launch policy selects contacts and reaches out"),
    Claim("ablation_query", QUERIES, dsq_beats_expanding_ring, "§III.C.4",
          "directed DSQ beats TTL-escalated flooding; dedup never hurts"),
    Claim("ablation_failures", QUERIES, crashes_hurt_and_repair_holds, "§III.C.3",
          "crashes cost query success; one validation + replenish round holds it"),
    Claim("ablation_recovery", SERIES, recovery_keeps_contacts, "§III.C.3",
          "local recovery loses fewer contacts than dropping at the first broken hop"),
    Claim("ablation_mobility", SERIES,
          lambda r: variants_are_live(r, MOBILITY_MODELS, "contacts lost", "ovh/node/bin"),
          "§IV.B", "every mobility model completes and reports contact churn"),
    Claim("mobility_rate", SERIES,
          lambda r: rising(column(r, "links changed/step"), strict=True)
          and rising(column(r, "contacts lost"), strict=True),
          "§IV.B", "faster nodes change more links per step and lose more contacts"),
    Claim("fig_des_latency", SNAPSHOT,
          lambda r: rising(column(r, "byte·s"), strict=True)
          and all(c["successes"] + c["failures"] == c["queries"] for c in r.raw.values()),
          "extension (DES regime)", "byte·s in flight grow with link latency; no query is lost"),
]
# fmt: on

NO_CLAIM = {
    "fig07_ci": "multi-seed mean ± CI rendering of fig07's cells; the claim is fig07's",
    "table1_ci": "multi-seed mean ± CI rendering of table1's cells; the claim is table1's",
}


@pytest.fixture(scope="module")
def store():
    return ResultStore(None)


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.artifact for c in CLAIMS])
def test_paper_claim(claim, store):
    result = api.run(claim.artifact, scale=SCALE, seed=SEED, store=store, **claim.kwargs)
    assert claim.holds(result), f"{claim.source} — {claim.says}\n{result.render()}"


def test_every_artifact_has_a_claim_or_a_reason():
    # exactly one of the two, for every registered id
    assert sorted([*{c.artifact for c in CLAIMS}, *NO_CLAIM]) == sorted(ARTIFACTS)


def test_predicates_reject_inverted_data():
    assert rising([1, 1, 2]) and not rising([1, 1, 2], strict=True)
    assert falling([3, 2, 2]) and not falling([2, 3])
    # fig07's row on its own shape, then on the same means in reversed NoC order
    means = {f"NoC={k}": v for k, v in zip((0, 4, 8, 12), (16.0, 44.0, 44.4, 44.4))}
    fig07 = next(c for c in CLAIMS if c.artifact == "fig07")
    assert fig07.holds(SimpleNamespace(raw={"means": means}))
    backwards = dict(zip(means, reversed(list(means.values()))))
    assert not fig07.holds(SimpleNamespace(raw={"means": backwards}))
