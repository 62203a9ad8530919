#include <gtest/gtest.h>

#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"
#include "netlist/simulate.hpp"
#include "sta/gate_sizing.hpp"

namespace lily {
namespace {

struct Sized {
    Library lib = load_msu_big();
    Network net;
    FlowResult flow;
    SizingResult result;
};

Sized run_sizing(Network net, MapObjective objective) {
    Sized out;
    out.net = std::move(net);
    FlowOptions opts;
    opts.objective = objective;
    out.flow = run_lily_flow_checked(out.net, out.lib, opts).take_or_raise();
    MappedPlacementView view = make_placement_view(out.flow.netlist, out.lib);
    view.netlist.pad_positions = out.flow.pad_positions;
    out.result = size_gates(out.flow.netlist, out.lib, view, out.flow.final_positions);
    return out;
}

TEST(GateSizing, NeverIncreasesDelay) {
    for (const char* name : {"b9", "C880", "misex1"}) {
        const auto suite = paper_suite(0.3);
        const auto it = std::find_if(suite.begin(), suite.end(),
                                     [&](const Benchmark& b) { return b.name == name; });
        ASSERT_NE(it, suite.end());
        for (const MapObjective obj : {MapObjective::Area, MapObjective::Delay}) {
            const Sized s = run_sizing(it->network, obj);
            EXPECT_LE(s.result.delay_after, s.result.delay_before + 1e-9) << name;
        }
    }
}

TEST(GateSizing, PreservesFunction) {
    const Sized s = run_sizing(make_alu(6, false), MapObjective::Area);
    EXPECT_TRUE(
        equivalent_random_checked(s.net, s.flow.netlist.to_network(s.lib), 16, 31).take_or_raise());
}

TEST(GateSizing, AreaMappedCircuitsImprove) {
    // Area mapping picks the weakest (smallest) drives; sizing under real
    // loads should find swaps and cut the critical delay somewhere in the
    // suite.
    std::size_t total_swaps = 0;
    double best_gain = 0.0;
    for (const char* name : {"C880", "apex7", "b9", "C1908"}) {
        const auto suite = paper_suite(0.4);
        const auto it = std::find_if(suite.begin(), suite.end(),
                                     [&](const Benchmark& b) { return b.name == name; });
        ASSERT_NE(it, suite.end());
        const Sized s = run_sizing(it->network, MapObjective::Area);
        total_swaps += s.result.swaps;
        if (s.result.delay_before > 0.0) {
            best_gain = std::max(best_gain,
                                 1.0 - s.result.delay_after / s.result.delay_before);
        }
    }
    EXPECT_GT(total_swaps, 0u);
    EXPECT_GT(best_gain, 0.0);
}

TEST(GateSizing, SwapsOnlyWithinFunctionGroups) {
    const Library lib = load_msu_big();
    Network net = make_priority_controller(10);
    FlowOptions opts;
    opts.objective = MapObjective::Area;
    FlowResult flow = run_lily_flow_checked(net, lib, opts).take_or_raise();
    const std::vector<GateInstance> before = flow.netlist.gates;
    MappedPlacementView view = make_placement_view(flow.netlist, lib);
    view.netlist.pad_positions = flow.pad_positions;
    size_gates(flow.netlist, lib, view, flow.final_positions);
    ASSERT_EQ(flow.netlist.gates.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
        const Gate& old_gate = lib.gate(before[i].gate);
        const Gate& new_gate = lib.gate(flow.netlist.gates[i].gate);
        EXPECT_EQ(old_gate.function, new_gate.function) << i;
        EXPECT_EQ(old_gate.n_inputs(), new_gate.n_inputs()) << i;
        EXPECT_EQ(flow.netlist.gates[i].inputs, before[i].inputs) << i;
    }
}

TEST(GateSizing, DriveVariantsExistInBigLibrary) {
    const Library lib = load_msu_big();
    // nand2 and nand2x2 must form a swap group.
    const auto a = lib.find("nand2");
    const auto b = lib.find("nand2x2");
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(lib.gate(*a).function, lib.gate(*b).function);
    EXPECT_LT(lib.gate(*b).pin(0).worst_fanout(), lib.gate(*a).pin(0).worst_fanout());
    EXPECT_GT(lib.gate(*b).area, lib.gate(*a).area);
}

}  // namespace
}  // namespace lily
