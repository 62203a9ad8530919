// Extension ablation: load-driven gate sizing after placement (the
// MIS2.2-style load handling the paper's Section 5 points to). Every
// mapped instance may swap to a functionally identical drive variant; the
// pass minimizes local stage delay under measured loads.
#include <cstdio>

#include "bench/common.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"
#include "sta/gate_sizing.hpp"

using namespace lily;

int main() {
    const Library lib = load_msu_big();
    const auto suite = paper_suite(0.5);

    std::printf("Gate-sizing ablation (timing mode): drive selection under real loads\n");
    std::printf("%-8s | %9s | %9s %6s | %7s\n", "Ex.", "delay", "sized", "swaps", "delay%");
    bench::print_rule(52);

    bench::RatioTracker delay;
    for (const Benchmark& b : suite) {
        if (b.network.logic_node_count() > 700) continue;
        FlowOptions opts;
        opts.objective = MapObjective::Delay;
        FlowResult flow = run_lily_flow_checked(b.network, lib, opts).take_or_raise();

        MappedPlacementView view = make_placement_view(flow.netlist, lib);
        view.netlist.pad_positions = flow.pad_positions;
        SizingOptions sopts;
        const SizingResult sres =
            size_gates(flow.netlist, lib, view, flow.final_positions, sopts);

        delay.add(sres.delay_after, sres.delay_before);
        std::printf("%-8s | %9.2f | %9.2f %6zu | %+6.1f%%\n", b.name.c_str(),
                    sres.delay_before, sres.delay_after, sres.swaps,
                    (sres.delay_after / sres.delay_before - 1.0) * 100.0);
    }
    bench::print_rule(52);
    std::printf("geomean sized/unsized delay: %+.1f%%\n", delay.percent());
    return 0;
}
