// Robustness edges: degenerate inputs every module must survive without
// undefined behaviour — empty circuits, single-gate circuits, nets with no
// pins, regions with no cells.
#include <gtest/gtest.h>

#include "flow/flow.hpp"
#include "library/standard_cells.hpp"
#include "lily/lily_mapper.hpp"
#include "netlist/blif.hpp"
#include "netlist/simulate.hpp"
#include "opt/optimize.hpp"
#include "route/global_router.hpp"
#include "subject/decompose.hpp"

namespace lily {
namespace {

TEST(Edge, EmptyNetworkDecomposes) {
    Network net("empty");
    net.add_input("a");
    const DecomposeResult r = decompose(net);
    EXPECT_EQ(r.graph.gate_count(), 0u);
    EXPECT_EQ(r.graph.inputs().size(), 1u);
    EXPECT_TRUE(logic_cones(r.graph).empty());
    EXPECT_TRUE(partition_trees(r.graph).trees.empty());
}

TEST(Edge, WireOnlyCircuitThroughFlow) {
    // A circuit with no logic at all: PO = PI.
    Network net("wire");
    const NodeId a = net.add_input("a");
    net.add_output("f", a);
    const Library lib = load_msu_big();
    const DecomposeResult sub = decompose(net);
    const LilyResult res = LilyMapper(lib).map_checked(sub.graph).take_or_raise();
    EXPECT_EQ(res.netlist.gate_count(), 0u);
    EXPECT_TRUE(equivalent_random_checked(net, res.netlist.to_network(lib), 4, 1).take_or_raise());
    // The full pipeline also survives (placement/routing of zero cells).
    const FlowResult flow = run_lily_flow_checked(net, lib).take_or_raise();
    EXPECT_EQ(flow.metrics.gate_count, 0u);
}

TEST(Edge, SingleGateCircuitThroughBothFlows) {
    Network net("one");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    net.add_output("f", net.make_nand(std::array{a, b}));
    const Library lib = load_msu_tiny();
    const FlowResult base = run_baseline_flow_checked(net, lib).take_or_raise();
    const FlowResult lily = run_lily_flow_checked(net, lib).take_or_raise();
    // Period-accurate subject graphs wrap the NAND in an inverter pair, so
    // the cover is a NAND plus a buffer (or two inverters); with
    // cancel_inverter_pairs a single nand2 suffices.
    EXPECT_LE(base.metrics.gate_count, 3u);
    EXPECT_LE(lily.metrics.gate_count, 3u);
    EXPECT_TRUE(equivalent_random_checked(net, lily.netlist.to_network(lib), 4, 2).take_or_raise());
    DecomposeOptions clean;
    clean.cancel_inverter_pairs = true;
    const DecomposeResult sub = decompose(net, clean);
    const LilyResult direct = LilyMapper(lib).map_checked(sub.graph).take_or_raise();
    EXPECT_EQ(direct.netlist.gate_count(), 1u);
}

TEST(Edge, RouterWithNoNets) {
    PlacementNetlist nl;
    nl.n_cells = 3;
    nl.cell_area.assign(3, 1.0);
    const std::vector<Point> pos(3, Point{1, 1});
    const RouteResult r = route_global(nl, pos, Rect({0, 0}, {8, 8}), {});
    EXPECT_EQ(r.total_wirelength, 0.0);
    EXPECT_EQ(r.total_overflow, 0.0);
    EXPECT_EQ(r.mazed_connections, 0u);
}

TEST(Edge, PlacementWithZeroCells) {
    PlacementNetlist nl;
    const Rect region({0, 0}, {4, 4});
    const GlobalPlacement gp = place_global(nl, region);
    EXPECT_TRUE(gp.positions.empty());
    DetailedPlacement dp = legalize_rows(nl, gp);
    EXPECT_EQ(dp.n_rows, 0u);
    EXPECT_EQ(improve_rows(nl, dp), 0u);
}

TEST(Edge, PadPlacementWithNoPads) {
    PlacementNetlist nl;
    nl.n_cells = 2;
    nl.cell_area.assign(2, 1.0);
    EXPECT_TRUE(place_pads(nl, Rect({0, 0}, {4, 4})).empty());
}

TEST(Edge, BlifMinimalModel) {
    const Network net =
        read_blif_checked(".model m\n.inputs a\n.outputs a\n.end\n").take_or_raise();
    EXPECT_EQ(net.inputs().size(), 1u);
    const std::string round = write_blif(net);
    EXPECT_TRUE(equivalent_random_checked(net, read_blif_checked(round).take_or_raise(), 4, 3)
                    .take_or_raise());
}

TEST(Edge, OptimizeEmptyAndTrivial) {
    Network net("t");
    const NodeId a = net.add_input("a");
    net.add_output("f", net.make_not(a));
    OptimizeStats stats;
    const Network out = optimize(net, {}, &stats);
    EXPECT_TRUE(equivalent_random_checked(net, out, 4, 4).take_or_raise());
    EXPECT_EQ(stats.literals_after, 1u);
}

TEST(Edge, SingleCubeWideGateMaps) {
    // 12-input AND: wider than any library gate; the mapper must chain.
    Network net("wide");
    std::vector<NodeId> ins;
    for (int i = 0; i < 12; ++i) ins.push_back(net.add_input("i" + std::to_string(i)));
    net.add_output("f", net.make_and(ins));
    const Library lib = load_msu_big();
    const DecomposeResult sub = decompose(net);
    const LilyResult res = LilyMapper(lib).map_checked(sub.graph).take_or_raise();
    EXPECT_GT(res.netlist.gate_count(), 1u);
    EXPECT_TRUE(equivalent_random_checked(net, res.netlist.to_network(lib), 8, 5).take_or_raise());
}

TEST(Edge, DuplicatePoDrivers) {
    // Several POs sharing one driver: one cone, several pads.
    Network net("dup");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId g = net.make_or2(a, b);
    net.add_output("f1", g);
    net.add_output("f2", g);
    net.add_output("f3", g);
    const Library lib = load_msu_big();
    const DecomposeResult sub = decompose(net);
    EXPECT_EQ(logic_cones(sub.graph).size(), 1u);
    const FlowResult flow = run_lily_flow_checked(net, lib).take_or_raise();
    EXPECT_TRUE(equivalent_random_checked(net, flow.netlist.to_network(lib), 4, 6).take_or_raise());
}

}  // namespace
}  // namespace lily
