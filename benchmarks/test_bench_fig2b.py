"""Figure 2(b): G-RIB size over time.

Paper: same run as Figure 2(a). After the transient the G-RIB size
falls "rapidly as prefixes are recycled and aggregation can take
place", reaching a mean of ~175 group routes (max <= ~180) against
2500 child domains holding 37500 live blocks — extremely good
aggregation. The assertions here check the same structure: a transient
peak, then a stable plateau that is a tiny fraction of the live block
count.
"""

from conftest import emit


def test_bench_fig2b_grib_size(benchmark, figure2_run):
    result = figure2_run(benchmark)
    rows = [
        (int(day), mean, peak)
        for day, mean, peak in result.grib_series()
        if int(day) % 20 == 0
    ]
    from repro.analysis.report import format_table

    emit(
        "Figure 2(b): G-RIB size over time",
        format_table(("day", "grib_mean", "grib_max"), rows),
    )
    steady = result.steady_state()
    live_blocks = result.simulation.live_blocks.values[-1]
    emit(
        "Figure 2(b) summary",
        f"steady G-RIB mean {steady['grib_mean']:.1f}, "
        f"max {steady['grib_max']:.0f}, live blocks {live_blocks:.0f} "
        f"(paper at 50x50: mean ~175, max ~180, 37500 blocks)",
    )
    # Aggregation: the G-RIB is far smaller than the number of live
    # address blocks being served.
    assert live_blocks > 500
    assert steady["grib_mean"] < live_blocks / 5
    # Stability: the post-transient max stays within a small factor of
    # the mean (no unbounded growth).
    assert steady["grib_max"] < steady["grib_mean"] * 3
