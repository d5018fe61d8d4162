"""Experiment drivers regenerating the paper's evaluation.

One module per figure:

- :mod:`repro.experiments.fig2` — the MASC claim-algorithm simulation
  behind Figure 2(a) (address-space utilization over time) and
  Figure 2(b) (G-RIB size over time).
- :mod:`repro.experiments.fig4` — the tree path-length comparison of
  Figure 4 (unidirectional / bidirectional / hybrid vs. shortest-path
  trees as group size grows).

Each driver returns structured results and can render the series as a
text table; the ``benchmarks/`` suite wires them into pytest-benchmark.
Multi-seed sweeps (``run_figure2_seeds`` / ``run_figure4_seeds``) fan
out over :mod:`repro.experiments.runner` with a deterministic merge.
:mod:`repro.experiments.churn` and :mod:`repro.experiments.internet`
are the whole-stack workloads (the latter at route-views scale, one
``run_internet_workload(config, seed)`` call that reports setup and
loop seconds); performance is measured by ``bench/`` against
``BENCHMARK.json``.
"""

from repro.experiments.fig2 import (
    Figure2Result,
    run_figure2,
    run_figure2_seeds,
)
from repro.experiments.fig4 import (
    Figure4Result,
    run_figure4,
    run_figure4_seeds,
)
from repro.experiments.runner import parallel_map

__all__ = [
    "Figure2Result",
    "run_figure2",
    "run_figure2_seeds",
    "Figure4Result",
    "run_figure4",
    "run_figure4_seeds",
    "parallel_map",
]
