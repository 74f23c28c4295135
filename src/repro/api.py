"""Stable public facade over the paper-artifact registry.

This module is the supported way to script against the reproduction:

>>> import repro.api as api
>>> api.list_artifacts()[:3]
['ablation_edge_policy', 'ablation_failures', 'ablation_mobility']
>>> api.describe("fig07").section
'§IV.A, Fig 7'
>>> result = api.run("fig07", scale=0.2, num_sources=20)
>>> print(result.render())          # doctest: +SKIP

Everything runs campaign-first: :func:`run` expands the artifact's
declarative :class:`~repro.campaign.spec.CampaignSpec`, executes only
the cells missing from ``store`` (content-hash keyed, so warm stores —
including stores written before the campaign-first flip — are pure cache
hits), fans independent cells over ``workers`` processes, and reduces
the store back into an :class:`~repro.artifacts.result.ExperimentResult`.

Single seed (the default) reproduces the paper's artifact bit-for-bit
as validated by the ``pytest -m parity`` matrix.  A multi-seed tuple —
``run("fig07", seeds=(0, 1, 2))`` — reruns the sweep once per seed and
reduces to a mean ± 95 %-CI variant via
:func:`repro.campaign.aggregate.group_reduce` (one row per case/grid
configuration, averaged over seeds only).

Layering contract: the facade sits below every command line —
``python -m repro.campaign figure`` and the HTTP facade resolve and run
ids through *it*, and no ``*.__main__`` module is in its import-time
closure (``tests/test_api.py`` enforces this).  Output stability is
pinned by the golden fixtures under ``tests/golden/``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Union

from repro.artifacts.registry import (
    ARTIFACTS,
    Artifact,
    artifact_ids,
    campaign_note,
    ensure_report_ok,
    get_artifact,
)
from repro.artifacts.result import ExperimentResult
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import coerce_seed, coerce_seeds
from repro.campaign.store import CellStore, StoreLike, open_store

__all__ = ["list_artifacts", "describe", "run", "ExperimentResult", "Artifact"]


def list_artifacts() -> list:
    """All artifact ids the registry can regenerate, sorted."""
    return artifact_ids()


def describe(artifact_id: str) -> Artifact:
    """The artifact's definition: spec builder, reducer, options, metadata.

    Raises ``ValueError`` (with the valid ids) for unknown ids.
    """
    return get_artifact(artifact_id)


def _as_store(store: StoreLike) -> CellStore:
    """Backend selection by URI — ``sqlite:///path.db`` (or a bare
    ``*.db`` path) opens the concurrent sqlite store, any other path the
    JSONL store, None an ephemeral in-memory store."""
    return open_store(store)


def run(
    artifact_id: str,
    *,
    scale: Union[None, float, str] = None,
    seed: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    workers: int = 1,
    store: StoreLike = None,
    resume: bool = True,
    telemetry: object = None,
    **options,
) -> ExperimentResult:
    """Regenerate one artifact through the campaign engine.

    Parameters
    ----------
    artifact_id:
        An id from :func:`list_artifacts`.
    scale:
        Size scale — a number or a profile name from
        :data:`repro.scenarios.factory.SCALE_PROFILES` (``"paper"`` = 1.0,
        ``"xl"`` = 20× → N=10⁴ snapshots on the sparse ``DistanceView``
        substrate).  Defaults to the artifact's ``default_scale`` (1.0,
        the paper's configuration).
    seed:
        Root seed for the single-seed (paper-exact) artifact; defaults
        to the artifact's ``default_seeds[0]`` (0).  Mutually exclusive
        with ``seeds``.  Seeds follow the spec's integer rule: a bool or
        a non-integral number raises ``ValueError`` instead of being
        truncated into another seed's run.
    seeds:
        A tuple of distinct root seeds switches to the mean ± 95 %-CI
        variant: the sweep runs once per seed and
        :func:`~repro.campaign.aggregate.group_reduce` averages each
        case/grid configuration over seeds.  A one-element tuple
        degenerates to the exact single-seed artifact.
    workers:
        Campaign process-pool width (1 = deterministic in-process).
    store:
        A store instance, a path/URI (``sqlite:///campaign.db`` or a
        bare ``*.db`` path selects the concurrent sqlite backend, any
        other path append-only JSONL), or None (ephemeral).  A
        persistent store makes re-runs incremental: cells already
        stored are cache hits.
    resume:
        True (default) reuses stored cells; False re-executes every cell
        even when cached (a forced re-measurement — results are
        re-appended, the store is never rewritten).
    telemetry:
        Per-cell tracing, resolved by :func:`repro.obs.resolve_telemetry`:
        ``None``/``False`` off, ``True`` writes ``<store>.trace.jsonl``
        next to a persistent store (in memory only for an ephemeral
        one), a path selects the trace file explicitly.  The returned
        result carries the aggregated
        :meth:`~repro.obs.TraceSummary.as_dict` in ``result.telemetry``.
        Metrics, content hashes and golden parity are unaffected.
    options:
        Artifact-specific knobs, validated against the artifact's
        declared option names (e.g. ``noc_values=`` for fig07,
        ``duration=`` for the time-series artifacts).

    Returns
    -------
    ExperimentResult
        The rendered-table bundle; ``result.render()`` prints it.
    """
    artifact = get_artifact(artifact_id)
    if not isinstance(resume, bool):
        # a JSON body's "false" or 0 would otherwise be read for its
        # truthiness and silently pick the wrong branch
        raise ValueError(f"resume must be true or false, got {resume!r}")
    result_store = _as_store(store)
    if seed is not None:
        seed = coerce_seed(seed)
    if seeds is not None:
        if seed is not None:
            raise ValueError(
                "pass either seed= (exact artifact) or seeds= (mean±CI), "
                "not both"
            )
        seed_tuple = coerce_seeds(seeds)
        if not seed_tuple:
            raise ValueError("seeds must be a non-empty tuple of ints")
        if len(set(seed_tuple)) != len(seed_tuple):
            raise ValueError(
                f"seeds {seed_tuple} contains duplicates; each seed enters "
                "the mean/CI exactly once"
            )
        if len(seed_tuple) > 1:
            if scale is not None:
                options["scale"] = scale
            return _run_multi_seed(
                artifact,
                seed_tuple,
                store=result_store,
                workers=workers,
                force=not resume,
                telemetry=telemetry,
                **options,
            )
        seed = seed_tuple[0]  # degenerate tuple: the exact artifact
    # unset scale/seed fall through to the artifact's declared defaults
    if scale is not None:
        options["scale"] = scale
    if seed is not None:
        options["seed"] = seed
    return artifact.run(
        store=result_store,
        n_workers=workers,
        force=not resume,
        telemetry=telemetry,
        **options,
    )


def _run_multi_seed(
    artifact: Artifact,
    seeds: tuple,
    *,
    store: CellStore,
    workers: int,
    force: bool,
    telemetry: object = None,
    **options,
) -> ExperimentResult:
    """Mean ± CI variant: the artifact's sweep × seeds, group-reduced.

    The spec is the artifact's own (so every cell keeps the content hash
    a single-seed run would produce — the store is shared between both
    variants) with its seed axis widened to ``seeds``.
    """
    from repro.campaign.aggregate import aggregate_table

    reducer_only = artifact.reducer_only_options() & set(options)
    if reducer_only:
        raise ValueError(
            f"options {sorted(reducer_only)} only affect {artifact.id!r}'s "
            "exact single-seed reduction; the seeds= mean±CI variant "
            "reduces via group_reduce and would silently ignore them — "
            "drop them or run single-seed"
        )
    spec = dataclasses.replace(artifact.spec(seed=seeds[0], **options), seeds=seeds)
    report = CampaignRunner(
        spec, store=store, n_workers=workers, telemetry=telemetry
    ).run(force=force)
    ensure_report_ok(report, spec.name)
    result = aggregate_table(
        spec,
        store,
        title=f"{artifact.title} — mean ± 95% CI over {len(seeds)} seeds",
    )
    result.exp_id = artifact.id
    result.notes.append(f"seeds {tuple(seeds)}; {campaign_note(report)}")
    result.campaign = report.counts()
    if report.traces:
        from repro.obs import summarize

        result.telemetry = summarize(report.traces).as_dict()
    return result
