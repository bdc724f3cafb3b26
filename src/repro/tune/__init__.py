"""Sweep-driven configuration autotuning (the closed design-space loop).

The paper picks GNNIE's flexible-MAC allocation and buffer sizes "through
design space exploration, optimizing the cost-to-benefit ratio" (Section
VIII-A); AWB-GCN makes the runtime version of that loop its headline.
This package is the offline analogue over the repo's sweep fleet:

* :mod:`repro.tune.loop` — :func:`run_tune` drives generations of
  sweep → aggregate → propose over :func:`repro.sweep.run_sweep` and the
  resumable :class:`~repro.sweep.store.ResultStore`,
* :mod:`repro.tune.proposer` — the candidate search:
  :class:`ParetoMutationProposer` mutates Pareto survivors along the MAC
  allocation (under the grid's admissibility rules), buffer sizing and γ
  axes.

Store-backed reporting lives in :func:`repro.analysis.tune_report`; the
CLI front end is ``python -m repro tune``.
"""

from repro.tune.loop import GenerationReport, TuneResult, TuneSpec, run_tune
from repro.tune.proposer import ParetoMutationProposer, candidate_name

__all__ = [
    "GenerationReport",
    "TuneResult",
    "TuneSpec",
    "run_tune",
    "ParetoMutationProposer",
    "candidate_name",
]
