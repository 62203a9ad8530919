// Reproduces Figure 1.1(b): the value of a layout-oriented decomposition.
// Fanins that are spatially close should enter the decomposition tree at
// topologically close points; a placement-oblivious decomposition can
// interleave far-apart signals and deny the mapper the option of splitting
// one big match into smaller, better-placed ones.
//
// Protocol: decompose balanced -> place -> harvest node positions ->
// re-decompose with the proximity-driven tree builder -> Lily-map both
// subject graphs against the same pads and compare routed wirelength.
#include <cstdio>
#include <unordered_map>

#include "bench/common.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"
#include "lily/lily_mapper.hpp"
#include "subject/decompose.hpp"

using namespace lily;

int main() {
    const Library lib = load_msu_big();
    std::printf("Figure 1.1(b): balanced vs layout-oriented (proximity) decomposition\n");
    std::printf("%-8s | %10s %10s | %10s %10s | %7s\n", "Ex.", "bal gates", "bal wire",
                "prox gate", "prox wire", "wire%");
    bench::print_rule(70);

    bench::RatioTracker wire;
    const auto suite = paper_suite(0.5);
    for (const Benchmark& b : suite) {
        if (b.network.logic_node_count() > 600) continue;  // keep the bench brisk

        // Phase 1: balanced decomposition, placed; positions per source node.
        const DecomposeResult balanced = decompose(b.network);
        LilyMapper mapper(lib);
        const LilyResult bal_res = mapper.map_checked(balanced.graph).take_or_raise();
        FlowOptions fopts;
        const FlowResult bal_flow = run_backend_checked(
            bal_res.netlist, lib, fopts,
            PadsInRegion{bal_res.pad_positions, bal_res.inchoate_placement.region}).take_or_raise();

        // Harvest: each source node's position = its signal's placement.
        DecomposeOptions prox_opts;
        prox_opts.shape = TreeShape::Proximity;
        prox_opts.source_positions.resize(b.network.node_count());
        const SubjectPlacementView view = make_placement_view(balanced.graph);
        // Gate signals take their placed position; primary inputs take their
        // pad position (their signal is a subject Input, not a cell).
        std::unordered_map<SubjectId, Point> pi_pos;
        for (std::size_t i = 0; i < balanced.graph.inputs().size(); ++i) {
            pi_pos[balanced.graph.inputs()[i]] =
                bal_res.pad_positions[view.pad_of_input(i)];
        }
        for (NodeId n = 0; n < b.network.node_count(); ++n) {
            const SubjectId sig = balanced.signal_of[n];
            const std::size_t cell = view.cell_of[sig];
            if (cell != kNoCell) {
                prox_opts.source_positions[n] = bal_res.inchoate_placement.positions[cell];
            } else if (const auto it = pi_pos.find(sig); it != pi_pos.end()) {
                prox_opts.source_positions[n] = it->second;
            }
        }

        // Phase 2: proximity decomposition, same pads.
        const DecomposeResult prox = decompose(b.network, prox_opts);
        const LilyResult prox_res =
            mapper.map_checked(prox.graph, {}, bal_res.pad_positions).take_or_raise();
        const PadsInRegion pads{prox_res.pad_positions, prox_res.inchoate_placement.region};
        const FlowResult prox_flow =
            run_backend_checked(prox_res.netlist, lib, fopts, pads).take_or_raise();

        wire.add(prox_flow.metrics.wirelength, bal_flow.metrics.wirelength);
        std::printf("%-8s | %10zu %10.2f | %10zu %10.2f | %+6.1f%%\n", b.name.c_str(),
                    bal_flow.metrics.gate_count, bal_flow.metrics.wirelength,
                    prox_flow.metrics.gate_count, prox_flow.metrics.wirelength,
                    (prox_flow.metrics.wirelength / bal_flow.metrics.wirelength - 1.0) * 100.0);
    }
    bench::print_rule(70);
    std::printf("geomean proximity/balanced wire: %+.1f%%\n", wire.percent());
    std::printf("shape: proximity decomposition should not lose, and wins where wide\n"
                "nodes have spatially clustered fanins.\n");
    return 0;
}
