#include <gtest/gtest.h>

#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"
#include "netlist/simulate.hpp"

namespace lily {
namespace {

TEST(Flow, BaselinePipelineEndToEnd) {
    const Library lib = load_msu_big();
    const Network net = make_priority_controller(10);
    const FlowResult res = run_baseline_flow_checked(net, lib).take_or_raise();
    EXPECT_GT(res.metrics.gate_count, 0u);
    EXPECT_GT(res.metrics.cell_area, 0.0);
    EXPECT_GT(res.metrics.chip_area, res.metrics.cell_area);
    EXPECT_GT(res.metrics.wirelength, 0.0);
    EXPECT_GT(res.metrics.critical_delay, 0.0);
    EXPECT_EQ(res.final_positions.size(), res.metrics.gate_count);
    EXPECT_TRUE(equivalent_random_checked(net, res.netlist.to_network(lib), 8, 3).take_or_raise());
}

TEST(Flow, LilyPipelineEndToEnd) {
    const Library lib = load_msu_big();
    const Network net = make_priority_controller(10);
    const FlowResult res = run_lily_flow_checked(net, lib).take_or_raise();
    EXPECT_GT(res.metrics.gate_count, 0u);
    EXPECT_GT(res.metrics.chip_area, res.metrics.cell_area);
    EXPECT_TRUE(equivalent_random_checked(net, res.netlist.to_network(lib), 8, 3).take_or_raise());
}

TEST(Flow, DelayModePipelines) {
    const Library lib = load_msu_big();
    const Network net = make_alu(5, false);
    FlowOptions opts;
    opts.objective = MapObjective::Delay;
    const FlowResult base = run_baseline_flow_checked(net, lib, opts).take_or_raise();
    const FlowResult lily = run_lily_flow_checked(net, lib, opts).take_or_raise();
    EXPECT_GT(base.metrics.critical_delay, 0.0);
    EXPECT_GT(lily.metrics.critical_delay, 0.0);
    EXPECT_TRUE(equivalent_random_checked(net, base.netlist.to_network(lib), 8, 4).take_or_raise());
    EXPECT_TRUE(equivalent_random_checked(net, lily.netlist.to_network(lib), 8, 4).take_or_raise());
}

TEST(Flow, MetricsUnitConversions) {
    FlowMetrics m;
    m.cell_area = 1000.0;  // units of 0.001 mm^2
    m.chip_area = 3000.0;
    m.wirelength = 100.0;
    EXPECT_NEAR(m.cell_area_mm2(), 1.0, 1e-12);
    EXPECT_NEAR(m.chip_area_mm2(), 3.0, 1e-12);
    EXPECT_NEAR(m.wirelength_mm(), 3.16227766, 1e-6);
}

TEST(Flow, BackendPadMismatchRejected) {
    const Library lib = load_msu_big();
    const Network net = make_priority_controller(8);
    const FlowResult base = run_baseline_flow_checked(net, lib).take_or_raise();
    PadsInRegion pads{{Point{0, 0}}, Rect({0, 0}, {1, 1})};  // wrong count
    EXPECT_EQ(run_backend_checked(base.netlist, lib, {}, pads).status().code(),
              StatusCode::InvariantViolation);
}

TEST(Flow, SuiteShapeOnSmallScale) {
    // The headline comparison on a couple of suite circuits: Lily should
    // not lose badly on wirelength (the paper's average is a 7% win; at
    // tiny scale we only require "within 15%" to keep the test stable).
    const Library lib = load_msu_big();
    int lily_wins = 0, comparisons = 0;
    for (const char* name : {"b9", "duke2", "C880"}) {
        const auto suite = paper_suite(0.3);
        const auto it = std::find_if(suite.begin(), suite.end(),
                                     [&](const Benchmark& b) { return b.name == name; });
        ASSERT_NE(it, suite.end());
        const FlowResult base = run_baseline_flow_checked(it->network, lib).take_or_raise();
        const FlowResult lily = run_lily_flow_checked(it->network, lib).take_or_raise();
        EXPECT_LT(lily.metrics.wirelength, base.metrics.wirelength * 1.15) << name;
        if (lily.metrics.wirelength < base.metrics.wirelength) ++lily_wins;
        ++comparisons;
        // Gate counts stay in the same ballpark (wire-aware selection may
        // merge or split, but never degenerates).
        EXPECT_GE(lily.metrics.gate_count * 2, base.metrics.gate_count) << name;
        EXPECT_LE(lily.metrics.gate_count, base.metrics.gate_count * 2) << name;
    }
    EXPECT_GT(comparisons, 0);
}

}  // namespace
}  // namespace lily
