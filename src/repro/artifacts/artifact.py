"""The :class:`Artifact` bundle behind one paper table/figure.

An :class:`Artifact` is one paper table/figure (or campaign-native
extension) as data: id, title, paper section, measurement regime, the
option names it accepts, its defaults, and two callables — ``build_spec``
(options → :class:`~repro.campaign.spec.CampaignSpec`) and ``reduce``
(stored cells → the exact table).  :meth:`Artifact.run` executes the spec
through the campaign engine (cached, parallel, shardable, resumable) and
reduces the store back into an
:class:`~repro.artifacts.result.ExperimentResult`.

:func:`define` is how :mod:`repro.artifacts.definitions` states each
artifact once: it binds a spec recipe and a table reducer (see
:mod:`repro.artifacts.recipes`) to the artifact's id and title, so
neither string is typed a second time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.artifacts.recipes import require_single_seed
from repro.artifacts.result import ExperimentResult
from repro.campaign.runner import CampaignReport, CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import StoreLike, open_store
from repro.scenarios.factory import SCALE_PROFILES, resolve_scale

__all__ = ["Artifact", "define", "campaign_note", "ensure_report_ok"]

#: CLI-style knobs silently dropped when an artifact declares no such
#: option (e.g. ``num_sources`` for table1, ``duration`` for snapshot
#: artifacts); any *other* unknown keyword is an error.
_COMMON_KNOBS = frozenset({"scale", "seed", "num_sources", "duration"})


@dataclass(frozen=True)
class Artifact:
    """One reproducible artifact, declaratively.

    Attributes
    ----------
    id:
        Registry id (``"fig07"``, ``"table1"``, ``"mobility_rate"``).
    title:
        The rendered table's title line.
    section:
        Paper anchor (``"§IV.A, Fig 7"``) or ``"extension"``.
    regime:
        ``"snapshot"`` (static topology, one selection run per cell),
        ``"series"`` (mobility + maintenance, binned over time) or
        ``"des"`` (event-driven message-level simulation).
    build_spec:
        ``(**options) -> CampaignSpec`` — the declarative sweep.
    reduce:
        ``(spec, store, **reduce_options) -> ExperimentResult`` — stored
        cells back into the exact table.
    options, reduce_options:
        The option names ``build_spec`` / ``reduce`` take.  Anything
        else is rejected (or, for the common CLI knobs, dropped); a name
        only in ``reduce_options`` shapes the table, not the cells.
    defaults:
        Per-artifact option overrides layered under caller kwargs
        (e.g. fig04's ``max_noc=5`` axis).
    xl_defaults:
        Extra overrides applied when the resolved scale reaches the
        ``"xl"`` profile — bounded sampling knobs (``num_sources``,
        ``num_queries``, ``duration``) that keep N=10⁴ runs
        query-bound rather than measurement-bound.  Layered over
        ``defaults`` but under caller kwargs, so an explicit option
        always wins.
    default_scale, default_seeds:
        The scale profile and root seed a bare ``run()``/``spec()``
        uses (applied when the caller passes neither) — the paper's own
        configuration.
    multi_seed:
        True for artifacts whose spec intentionally spans several seeds
        and whose reducer aggregates over them (the registered mean ± CI
        variants, e.g. ``fig07_ci``).  Single-seed artifacts keep the
        bit-for-bit guard that rejects multi-seed specs.
    derived:
        True for an artifact that merely re-derives others' output (the
        fig03+fig04 joint); ``python -m repro.campaign figure all`` skips it
        so each table is produced once.
    """

    id: str
    title: str
    section: str
    regime: str
    build_spec: Callable[..., CampaignSpec]
    reduce: Callable[..., ExperimentResult]
    options: FrozenSet[str] = frozenset({"scale", "seed"})
    reduce_options: FrozenSet[str] = frozenset()
    description: str = ""
    defaults: Mapping[str, object] = field(default_factory=dict)
    xl_defaults: Mapping[str, object] = field(default_factory=dict)
    default_scale: float = 1.0
    default_seeds: Tuple[int, ...] = (0,)
    multi_seed: bool = False
    derived: bool = False

    def __post_init__(self) -> None:
        if self.regime not in ("snapshot", "series", "des"):
            raise ValueError(
                f"artifact {self.id!r}: regime must be snapshot|series|des, "
                f"got {self.regime!r}"
            )

    # ------------------------------------------------------------------
    def _resolve_kwargs(self, kwargs: Mapping[str, object]) -> Dict[str, object]:
        merged = {**self.defaults, **kwargs}
        merged.setdefault("scale", self.default_scale)
        # named profiles ("xl", "paper") resolve to numbers here, so every
        # spec recipe keeps seeing a plain float
        merged["scale"] = resolve_scale(merged["scale"])
        if merged["scale"] >= SCALE_PROFILES["xl"]:
            for k, v in self.xl_defaults.items():
                if k not in kwargs:
                    merged[k] = v
        merged.setdefault("seed", self.default_seeds[0])
        known = self.options | self.reduce_options
        unknown = [k for k in merged if k not in known and k not in _COMMON_KNOBS]
        if unknown:
            raise TypeError(
                f"artifact {self.id!r} got unknown options {sorted(unknown)}; "
                f"it accepts: {sorted(known)}"
            )
        return merged

    def _build(self, merged: Mapping[str, object]) -> CampaignSpec:
        return self.build_spec(
            **{k: v for k, v in merged.items() if k in self.options}
        )

    def spec(self, **kwargs) -> CampaignSpec:
        """Build this artifact's campaign spec (unknown options rejected)."""
        return self._build(self._resolve_kwargs(kwargs))

    def reducer_only_options(self) -> FrozenSet[str]:
        """Option names only the exact reducer consumes (not the spec).

        These shape the reduction, not the cells (e.g. fig14's
        ``validation_rounds``) — paths that bypass the reducer, like the
        multi-seed ``group_reduce`` variant, must reject rather than
        silently drop them.
        """
        return self.reduce_options - self.options

    def run(
        self,
        *,
        store: StoreLike = None,
        n_workers: int = 1,
        force: bool = False,
        telemetry: object = None,
        **kwargs,
    ) -> ExperimentResult:
        """Execute missing cells, then reduce the store to the artifact.

        A warm ``store`` turns execution into cache hits (cells are
        keyed by content hash, so overlapping artifacts share work);
        ``force`` re-executes cached cells too.  ``telemetry`` (see
        :meth:`repro.obs.ObsConfig.coerce`) traces every executed cell
        and attaches the aggregated summary to the result's
        ``telemetry`` field; stored metrics are identical either way.
        """
        merged = self._resolve_kwargs(kwargs)
        spec = self._build(merged)
        if not self.multi_seed:
            # fail before paying for the sweep: single-seed reducers are
            # exact; averaging is the facade's seeds= job (or a
            # registered multi_seed artifact like fig07_ci)
            require_single_seed(spec)
        store = open_store(store)
        report = CampaignRunner(
            spec, store=store, n_workers=n_workers, telemetry=telemetry
        ).run(force=force)
        ensure_report_ok(report, spec.name)
        result = self.reduce(
            spec,
            store,
            **{k: v for k, v in merged.items() if k in self.reduce_options},
        )
        result.notes = list(result.notes) + [campaign_note(report)]
        result.campaign = report.counts()
        if report.traces:
            from repro.obs import summarize

            result.telemetry = summarize(report.traces).as_dict()
        return result


def define(
    id: str,
    title: str,
    *,
    recipe: Callable[..., CampaignSpec],
    table: Callable[..., ExperimentResult],
    options: Optional[Iterable[str]] = None,
    reduce_options: Iterable[str] = (),
    regime: str = "snapshot",
    multi_seed: bool = False,
    **meta,
) -> Artifact:
    """One artifact from a spec recipe and a table reducer.

    ``recipe(name=, description=, scale=, **options)`` builds the spec
    and ``table(spec, store, exp_id=, title=, **reduce_options)`` the
    result; both get this artifact's id and title bound here.  The
    accepted option names are ``recipe.options`` (a
    :class:`~repro.artifacts.recipes.Sweep`'s declared defaults) unless
    ``options`` lists them, plus ``scale`` and — for artifacts that run
    on one seed — ``seed``.  An artifact that lists ``name`` lets the
    caller relabel the campaign: the keyword replaces the id bound here.
    """
    names = frozenset(recipe.options if options is None else options) | {"scale"}
    if not multi_seed:
        names |= {"seed"}
    return Artifact(
        id=id,
        title=title,
        regime=regime,
        build_spec=partial(recipe, name=id, description=title),
        reduce=partial(table, exp_id=id, title=title),
        options=names,
        reduce_options=frozenset(reduce_options),
        multi_seed=multi_seed,
        **meta,
    )


def campaign_note(report: CampaignReport) -> str:
    """The provenance note every campaign-produced result carries."""
    return (
        f"via repro.campaign ({report.executed} cells executed, "
        f"{report.cached} cached)"
    )


def ensure_report_ok(report: CampaignReport, spec_name: str) -> None:
    """Raise with the first failed cell's traceback on a failed run."""
    if not report.ok:
        errors = [o.error for o in report.outcomes if o.error]
        raise RuntimeError(
            f"{spec_name} campaign had {report.failed} failed cells:\n"
            f"{errors[0]}"
        )
