"""Figure 2(a): MASC address-space utilization over time.

Paper: 50 top-level domains x 50 children; 256-address blocks with
30-day lifetimes requested every U[1, 95] hours; 800 days. A startup
transient while demand ramps, then utilization converges (paper: ~50%
under the 75% occupancy threshold; this exact-placement reproduction
converges lower — see EXPERIMENTS.md — with the same shape).
"""

from conftest import emit


def test_bench_fig2a_utilization(benchmark, figure2_run):
    result = figure2_run(benchmark)
    emit("Figure 2(a): address space utilization over time",
         result.table(every_days=20))
    steady = result.steady_state()
    emit(
        "Figure 2(a) summary",
        f"steady-state utilization mean: {steady['utilization_mean']:.3f}"
        f" (paper: ~0.50; exact-placement model converges lower)",
    )
    # Shape assertions: utilization is meaningful and *stable* after
    # the transient (neither empty nor decaying to zero).
    series = result.utilization_series()
    post = [v for day, v in series if day >= result.config.transient_days]
    assert steady["utilization_mean"] > 0.10
    assert min(post) > 0.05
    assert max(post) < 1.0
    # The startup transient exists: early utilization differs from the
    # steady level (demand ramps for ~30 days).
    early = [v for day, v in series if day <= 10]
    assert early, "missing early samples"
