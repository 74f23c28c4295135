"""The ``card-repro`` command line: regenerate paper artifacts by id.

``python -m repro.experiments <id>`` (see :mod:`repro.experiments.__main__`)
resolves ids through the :mod:`repro.api` facade — the one registry is
:data:`repro.artifacts.registry.ARTIFACTS` — and runs them through the
:mod:`repro.campaign` engine: declarative spec → content-hash-cached
cells → reducer → :class:`~repro.artifacts.result.ExperimentResult`
(headers + rows + an ASCII rendering of the figure's shape).  Script
against :mod:`repro.api`; this package holds only the CLI.

Every artifact accepts a ``scale``: 1.0 reproduces the paper's
parameters, smaller values shrink network size and/or the measured
source sample proportionally (used by CI and the benchmarks), ``xl``
grows them 20×.  ``--store``/``--workers`` reuse a warm result store and
fan cells out over a process pool.
"""
