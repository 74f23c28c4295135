"""First-class paper artifacts: one definition per table/figure.

This package is the single registry behind every way of regenerating a
paper artifact — the :mod:`repro.api` facade, ``python -m
repro.campaign figure`` and the HTTP facade all resolve ids here.  It
sits *above* the campaign engine (which never imports it back, bar
:mod:`repro.artifacts.result`; rule CARD-L03 of ``python -m
tools.card_lint`` checks it), as one import chain:

* :mod:`repro.artifacts.result` — :class:`ExperimentResult`, the
  renderable table every producer returns;
* :mod:`repro.artifacts.recipes` — the shared pieces: the :class:`Sweep`
  spec recipe and one reducer per table family;
* :mod:`repro.artifacts.artifact` — :class:`Artifact` (spec builder +
  reducer + declared options + metadata, executed through the
  cached/parallel/resumable campaign engine) and :func:`define`;
* :mod:`repro.artifacts.definitions` — every artifact, defined once;
* :mod:`repro.artifacts.registry` — :data:`ARTIFACTS` and the id lookup.

The registry names are exposed lazily so that importing the package for
:class:`ExperimentResult` alone (as the engine does) stays cheap.
"""

from repro.artifacts.result import ExperimentResult

__all__ = [
    "ExperimentResult",
    # resolved lazily (see module docstring)
    "registry",
    "Artifact",
    "ARTIFACTS",
    "artifact_ids",
    "get_artifact",
]

_LAZY_REGISTRY = ("Artifact", "ARTIFACTS", "artifact_ids", "get_artifact")


def __getattr__(name):
    if name == "registry" or name in _LAZY_REGISTRY:
        import repro.artifacts.registry as registry

        return registry if name == "registry" else getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
