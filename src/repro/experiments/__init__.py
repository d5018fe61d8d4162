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
:mod:`repro.experiments.churn` is the whole-stack workload: one
``run_churn_workload(config, seed)`` call that reports setup, converge
and loop seconds, at 100 domains by default or at route-views scale
with ``ROUTE_VIEWS``. A multi-seed sweep is one call to
:func:`~repro.experiments.runner.parallel_map`, which merges in input
order: ``parallel_map(partial(run_churn_workload, config), seeds)``,
or ``parallel_map(run_figure2, [replace(config, seed=s) for s in
seeds])`` for the figure drivers, whose configs carry the seed.
Performance is measured by ``bench/`` against ``BENCHMARK.json``.
"""
