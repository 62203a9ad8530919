// Reproduces Table 1 of the paper: per-circuit comparison of total instance
// (cell) area, final chip area and total interconnection length after
// placement and routing, MIS2.1-style baseline vs Lily, both in area mode.
//
// Expected shape (paper averages): Lily trades slightly larger cell area
// (~+2%) for smaller chip area (~-5%) and shorter interconnect (~-7%).
#include <cstdio>

#include "bench/common.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"

using namespace lily;

int main() {
    const Library lib = load_msu_big();
    const auto suite = paper_suite(1.0);

    std::printf("Table 1: area-mode mapping, %s library (%zu gates)\n", lib.name().c_str(),
                lib.size());
    std::printf("%-8s | %10s %10s %10s | %10s %10s %10s | %7s %7s\n", "Ex.", "MIS cell",
                "MIS chip", "MIS wire", "Lily cell", "Lily chip", "Lily wire", "chip%",
                "wire%");
    bench::print_rule(104);

    bench::RatioTracker cell, chip, wire;
    for (const Benchmark& b : suite) {
        const FlowResult base = run_baseline_flow_checked(b.network, lib).take_or_raise();
        const FlowResult lily = run_lily_flow_checked(b.network, lib).take_or_raise();
        cell.add(lily.metrics.cell_area, base.metrics.cell_area);
        chip.add(lily.metrics.chip_area, base.metrics.chip_area);
        wire.add(lily.metrics.wirelength, base.metrics.wirelength);
        std::printf("%-8s | %10.3f %10.3f %10.1f | %10.3f %10.3f %10.1f | %+6.1f%% %+6.1f%%\n",
                    b.name.c_str(), base.metrics.cell_area_mm2(), base.metrics.chip_area_mm2(),
                    base.metrics.wirelength_mm(), lily.metrics.cell_area_mm2(),
                    lily.metrics.chip_area_mm2(), lily.metrics.wirelength_mm(),
                    (lily.metrics.chip_area / base.metrics.chip_area - 1.0) * 100.0,
                    (lily.metrics.wirelength / base.metrics.wirelength - 1.0) * 100.0);
    }
    bench::print_rule(104);
    std::printf("geomean Lily/MIS: cell %+.1f%%  chip %+.1f%%  wire %+.1f%%\n", cell.percent(),
                chip.percent(), wire.percent());
    std::printf("(paper: cell ~+1.9%%, chip ~-5%%, wire ~-7%% on the MCNC/ISCAS suite)\n");
    return 0;
}
