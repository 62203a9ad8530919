// Reproduces Table 2 of the paper: per-circuit total instance area and
// longest path delay (wire delays included, computed after placement),
// baseline vs Lily, both mapping in timing mode. Expected shape: Lily is
// ~8% faster on average, with occasional losses (the paper's C499).
#include <algorithm>
#include <cstdio>

#include "bench/common.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"

using namespace lily;

int main() {
    const Library lib = load_msu_big();
    const auto suite = paper_suite(1.0);
    const auto names = table2_names();

    FlowOptions opts;
    opts.objective = MapObjective::Delay;

    std::printf("Table 2: timing-mode mapping, 1u-scaled delays (ns)\n");
    std::printf("%-8s | %10s %10s | %10s %10s | %8s\n", "Ex.", "MIS cell", "MIS delay",
                "Lily cell", "Lily delay", "delay%");
    bench::print_rule(72);

    bench::RatioTracker delay;
    for (const Benchmark& b : suite) {
        if (std::find(names.begin(), names.end(), b.name) == names.end()) continue;
        const FlowResult base = run_baseline_flow_checked(b.network, lib, opts).take_or_raise();
        const FlowResult lily = run_lily_flow_checked(b.network, lib, opts).take_or_raise();
        delay.add(lily.metrics.critical_delay, base.metrics.critical_delay);
        std::printf("%-8s | %10.3f %10.2f | %10.3f %10.2f | %+7.1f%%\n", b.name.c_str(),
                    base.metrics.cell_area_mm2(), base.metrics.critical_delay,
                    lily.metrics.cell_area_mm2(), lily.metrics.critical_delay,
                    (lily.metrics.critical_delay / base.metrics.critical_delay - 1.0) * 100.0);
    }
    bench::print_rule(72);
    std::printf("geomean Lily/MIS delay: %+.1f%%\n", delay.percent());
    std::printf("(paper: ~-8%% average delay, occasional per-circuit losses)\n");
    return 0;
}
