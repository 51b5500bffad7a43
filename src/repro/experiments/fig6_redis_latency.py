"""Figure 6: Redis p99 latency vs QPS under YCSB-A."""

from __future__ import annotations

from .. import build_system, combined_testbed
from ..analysis.compare import ShapeCheck, check_ratio
from ..analysis.tables import series_table
from ..apps.kvstore import RedisYcsbStudy
from ..workloads import WORKLOADS
from .registry import ExperimentResult, register


@register("fig6", "Redis p99 latency (YCSB-A)", "Fig. 6, §5.1")
def run(fast: bool) -> ExperimentResult:
    system = build_system(combined_testbed())
    study = RedisYcsbStudy(system, num_keys=200_000)
    workload = WORKLOADS["A"]
    qps_points = ([20_000.0, 40_000.0, 55_000.0, 70_000.0] if fast else
                  [10_000.0, 20_000.0, 30_000.0, 40_000.0, 50_000.0,
                   55_000.0, 60_000.0, 65_000.0, 70_000.0, 80_000.0])
    requests = 6_000 if fast else 20_000
    curves = study.p99_curves(workload, [0.0, 0.5, 1.0], qps_points,
                              requests=requests)
    rendered = series_table(curves,
                            title="Fig 6: Redis p99 (us) vs QPS, YCSB-A")

    low = qps_points[0]
    p99_low = {series.name: series.y_at(low) for series in curves}
    high = qps_points[-1]
    p99_high = {series.name: series.y_at(high) for series in curves}

    checks = [
        check_ratio("~2x p99 gap at low QPS: 100% CXL vs DRAM",
                    p99_low["100%-CXL"], p99_low["0%-CXL"], 2.0, 0.9),
        ShapeCheck("50% CXL p99 sits between DRAM and 100% CXL",
                   p99_low["0%-CXL"] < p99_low["50%-CXL"]
                   < p99_low["100%-CXL"],
                   " < ".join(f"{k}={v:.0f}us"
                              for k, v in p99_low.items())),
        ShapeCheck("100% CXL saturates first (p99 blows up at high QPS)",
                   p99_high["100%-CXL"] > 3 * p99_high["0%-CXL"],
                   f"at {high:.0f} QPS: "
                   + " ".join(f"{k}={v:.0f}us"
                              for k, v in p99_high.items())),
        ShapeCheck("DRAM p99 stays stable below its saturation",
                   p99_high["0%-CXL"] < 10 * p99_low["0%-CXL"],
                   f"{p99_low['0%-CXL']:.0f} -> "
                   f"{p99_high['0%-CXL']:.0f} us"),
    ]
    return ExperimentResult("fig6", "Redis p99 latency", rendered, checks)
