// Extension ablation: the fanout-optimization post-pass the paper lists as
// future work. High-fanout nets are split through spatially clustered
// buffer trees; this trades a little cell area for lighter loads on the
// critical nets. Compared in timing mode, where load dominates.
#include <cstdio>

#include "bench/common.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"
#include "lily/fanout_opt.hpp"
#include "lily/lily_mapper.hpp"
#include "sta/timing.hpp"
#include "subject/decompose.hpp"

using namespace lily;

namespace {

struct LoadStats {
    double worst = 0.0;
    std::size_t violations = 0;  // pins loaded beyond their max_load rating
};

/// Worst output load and max-load violations after the back end.
LoadStats load_stats(const MappedNetlist& nl, const Library& lib, const FlowResult& f) {
    MappedPlacementView v = make_placement_view(nl, lib);
    v.netlist.pad_positions = f.pad_positions;
    const TimingReport r = analyze_timing(nl, lib, v, f.final_positions);
    LoadStats out;
    for (std::size_t i = 0; i < nl.gates.size(); ++i) {
        out.worst = std::max(out.worst, r.load[i]);
        if (r.load[i] > lib.gate(nl.gates[i].gate).pin(0).max_load) ++out.violations;
    }
    return out;
}

}  // namespace

int main() {
    const Library lib = load_msu_big();
    const auto suite = paper_suite(0.5);

    std::printf("Fanout-optimization ablation (timing mode, max fanout 12)\n");
    std::printf("%-8s | %6s %8s %5s | %6s %8s %5s %5s | %7s\n", "Ex.", "gates", "delay",
                "viol", "gates", "delay", "viol", "bufs", "delay%");
    bench::print_rule(78);

    bench::RatioTracker delay;
    for (const Benchmark& b : suite) {
        if (b.network.logic_node_count() > 700) continue;
        FlowOptions opts;
        opts.objective = MapObjective::Delay;

        // Without the post-pass.
        const FlowResult plain = run_lily_flow_checked(b.network, lib, opts).take_or_raise();

        // With the post-pass: map, buffer, then run the shared back end.
        const DecomposeResult sub = decompose(b.network);
        LilyOptions lopts = opts.lily;
        lopts.objective = MapObjective::Delay;
        lopts.cover = CoverMode::Cones;
        const LilyResult mapped = LilyMapper(lib).map_checked(sub.graph, lopts).take_or_raise();
        MappedNetlist buffered = mapped.netlist;
        std::vector<Point> seed = mapped.instance_positions;
        FanoutOptOptions fo;
        fo.max_fanout = 12;
        fo.sinks_per_buffer = 8;
        const FanoutOptResult fres = optimize_fanout(buffered, lib, &seed, fo);
        const PadsInRegion pads{mapped.pad_positions, mapped.inchoate_placement.region};
        const FlowResult opt =
            run_backend_checked(buffered, lib, opts, pads, seed).take_or_raise();

        delay.add(opt.metrics.critical_delay, plain.metrics.critical_delay);
        const LoadStats lv_plain = load_stats(plain.netlist, lib, plain);
        const LoadStats lv_opt = load_stats(buffered, lib, opt);
        std::printf("%-8s | %6zu %8.2f %5zu | %6zu %8.2f %5zu %5zu | %+6.1f%%\n",
                    b.name.c_str(), plain.metrics.gate_count, plain.metrics.critical_delay,
                    lv_plain.violations, opt.metrics.gate_count, opt.metrics.critical_delay,
                    lv_opt.violations, fres.buffers_added,
                    (opt.metrics.critical_delay / plain.metrics.critical_delay - 1.0) * 100.0);
    }
    bench::print_rule(78);
    std::printf("geomean buffered/plain delay: %+.1f%%. Suite fanouts are moderate, so the\n"
                "pass is roughly delay-neutral — its job is drive legality (viol column):\n\n",
                delay.percent());

    // Targeted demonstration: one signal fanning out to 64 XOR sinks.
    Network hot("hot");
    const NodeId src_a = hot.add_input("a");
    const NodeId src_b = hot.add_input("b");
    const NodeId hub = hot.make_and2(src_a, src_b);
    for (int i = 0; i < 64; ++i) {
        const NodeId other = hot.add_input("x" + std::to_string(i));
        hot.add_output("o" + std::to_string(i), hot.make_xor2(hub, other));
    }
    FlowOptions dopts;
    dopts.objective = MapObjective::Delay;
    const DecomposeResult hsub = decompose(hot);
    LilyOptions hlopts = dopts.lily;
    hlopts.objective = MapObjective::Delay;
    hlopts.cover = CoverMode::Cones;
    const LilyResult hmap = LilyMapper(lib).map_checked(hsub.graph, hlopts).take_or_raise();
    const FlowResult hot_plain = run_backend_checked(
        hmap.netlist, lib, dopts,
        PadsInRegion{hmap.pad_positions, hmap.inchoate_placement.region},
        hmap.instance_positions).take_or_raise();
    MappedNetlist hbuf = hmap.netlist;
    std::vector<Point> hseed = hmap.instance_positions;
    FanoutOptOptions hfo;
    hfo.max_fanout = 12;
    hfo.sinks_per_buffer = 8;
    const FanoutOptResult hres = optimize_fanout(hbuf, lib, &hseed, hfo);
    const FlowResult hot_opt = run_backend_checked(
        hbuf, lib, dopts, PadsInRegion{hmap.pad_positions, hmap.inchoate_placement.region},
        hseed).take_or_raise();
    const LoadStats hot_lv_plain = load_stats(hmap.netlist, lib, hot_plain);
    const LoadStats hot_lv_opt = load_stats(hbuf, lib, hot_opt);
    std::printf("hot net (1 driver -> 64 sinks): plain %.2f ns worst load %.2f pF "
                "(%zu violations)\n                                buffered %.2f ns worst "
                "load %.2f pF (%zu violations, %zu buffers)\n",
                hot_plain.metrics.critical_delay, hot_lv_plain.worst, hot_lv_plain.violations,
                hot_opt.metrics.critical_delay, hot_lv_opt.worst, hot_lv_opt.violations,
                hres.buffers_added);
    return 0;
}
