// Section 3.2 design choice: CM-of-Merged vs CM-of-Fans dynamic placement
// update. CM-of-Merged stays faithful to the balanced initial placement;
// CM-of-Fans minimizes incremental wirelength to fanin/fanout rectangles
// (the option the paper used for its results).
#include <cstdio>

#include "bench/common.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"

using namespace lily;

int main() {
    const Library lib = load_msu_big();
    const auto suite = paper_suite(0.5);

    std::printf("Update-rule ablation: CM-of-Merged vs CM-of-Fans (area mode)\n");
    std::printf("%-8s | %10s %10s | %10s %10s | %7s\n", "Ex.", "CMM chip", "CMM wire",
                "CMF chip", "CMF wire", "wire%");
    bench::print_rule(70);

    bench::RatioTracker wire;
    for (const Benchmark& b : suite) {
        if (b.network.logic_node_count() > 800) continue;
        FlowOptions merged;
        merged.lily.update = PositionUpdate::CMofMerged;
        FlowOptions fans;
        fans.lily.update = PositionUpdate::CMofFans;
        const FlowResult fm = run_lily_flow_checked(b.network, lib, merged).take_or_raise();
        const FlowResult ff = run_lily_flow_checked(b.network, lib, fans).take_or_raise();
        wire.add(ff.metrics.wirelength, fm.metrics.wirelength);
        std::printf("%-8s | %10.1f %10.1f | %10.1f %10.1f | %+6.1f%%\n", b.name.c_str(),
                    fm.metrics.chip_area, fm.metrics.wirelength, ff.metrics.chip_area,
                    ff.metrics.wirelength,
                    (ff.metrics.wirelength / fm.metrics.wirelength - 1.0) * 100.0);
    }
    bench::print_rule(70);
    std::printf("geomean CM-of-Fans / CM-of-Merged wire: %+.1f%%\n", wire.percent());
    return 0;
}
