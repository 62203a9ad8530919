#include <gtest/gtest.h>

#include "circuits/benchmarks.hpp"
#include "library/standard_cells.hpp"
#include "lily/fanout_opt.hpp"
#include "lily/lily_mapper.hpp"
#include "map/base_mapper.hpp"
#include "netlist/simulate.hpp"
#include "subject/decompose.hpp"

namespace lily {
namespace {

/// One signal driving `n` XOR sinks.
Network hub_circuit(unsigned n) {
    Network net("hub");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId hub = net.make_and2(a, b);
    for (unsigned i = 0; i < n; ++i) {
        const NodeId x = net.add_input("x" + std::to_string(i));
        net.add_output("o" + std::to_string(i), net.make_xor2(hub, x));
    }
    return net;
}

struct Mapped {
    Library lib = load_msu_big();
    Network net;
    MappedNetlist netlist;
    std::vector<Point> positions;
};

Mapped map_circuit(Network net) {
    Mapped out;
    out.net = std::move(net);
    const DecomposeResult sub = decompose(out.net);
    const LilyResult res = LilyMapper(out.lib).map_checked(sub.graph).take_or_raise();
    out.netlist = res.netlist;
    out.positions = res.instance_positions;
    return out;
}

std::size_t max_sinks(const MappedNetlist& m) {
    std::unordered_map<SubjectId, std::size_t> count;
    for (const GateInstance& g : m.gates) {
        for (const SubjectId in : g.inputs) ++count[in];
    }
    std::size_t worst = 0;
    for (const auto& [sig, c] : count) worst = std::max(worst, c);
    return worst;
}

TEST(FanoutOpt, EnforcesLimitAndPreservesFunction) {
    Mapped m = map_circuit(hub_circuit(40));
    ASSERT_GT(max_sinks(m.netlist), 4u);
    MappedNetlist optimized = m.netlist;
    std::vector<Point> pos = m.positions;
    FanoutOptOptions opts;
    opts.max_fanout = 4;
    const FanoutOptResult res = optimize_fanout(optimized, m.lib, &pos, opts);
    EXPECT_GT(res.buffers_added, 0u);
    EXPECT_LE(max_sinks(optimized), 4u);
    EXPECT_EQ(pos.size(), optimized.gates.size());
    EXPECT_FALSE(optimized.check(m.lib).has_errors()) << optimized.check(m.lib).to_string();
    EXPECT_TRUE(
        equivalent_random_checked(m.net, optimized.to_network(m.lib), 8, 55).take_or_raise());
}

TEST(FanoutOpt, NoChangeBelowLimit) {
    Mapped m = map_circuit(hub_circuit(3));
    MappedNetlist optimized = m.netlist;
    std::vector<Point> pos = m.positions;
    FanoutOptOptions opts;
    opts.max_fanout = 16;
    const FanoutOptResult res = optimize_fanout(optimized, m.lib, &pos, opts);
    EXPECT_EQ(res.buffers_added, 0u);
    EXPECT_EQ(optimized.gates.size(), m.netlist.gates.size());
}

TEST(FanoutOpt, HandlesPrimaryInputNets) {
    // A PI fanning out to many sinks gets buffered at the front.
    Network net("pi_hub");
    const NodeId a = net.add_input("a");
    for (unsigned i = 0; i < 20; ++i) {
        const NodeId x = net.add_input("x" + std::to_string(i));
        net.add_output("o" + std::to_string(i), net.make_and2(a, x));
    }
    Mapped m = map_circuit(std::move(net));
    MappedNetlist optimized = m.netlist;
    std::vector<Point> pos = m.positions;
    FanoutOptOptions opts;
    opts.max_fanout = 4;
    optimize_fanout(optimized, m.lib, &pos, opts);
    EXPECT_LE(max_sinks(optimized), 4u);
    EXPECT_TRUE(
        equivalent_random_checked(m.net, optimized.to_network(m.lib), 8, 66).take_or_raise());
}

TEST(FanoutOpt, WorksWithoutPositions) {
    Mapped m = map_circuit(hub_circuit(30));
    MappedNetlist optimized = m.netlist;
    FanoutOptOptions opts;
    opts.max_fanout = 5;
    optimize_fanout(optimized, m.lib, nullptr, opts);
    EXPECT_LE(max_sinks(optimized), 5u);
    EXPECT_TRUE(
        equivalent_random_checked(m.net, optimized.to_network(m.lib), 8, 77).take_or_raise());
}

TEST(FanoutOpt, DoubleInverterFallback) {
    // A library without identity gates must fall back to inverter pairs.
    Library lib = read_genlib_checked(R"(
GATE inv 1.0 O=!a;
PIN * INV 0.1 1.0 0.4 2.0 0.3 1.6
GATE nd2 2.0 O=!(a*b);
PIN * INV 0.1 1.0 0.5 2.6 0.45 2.2
)").take_or_raise();
    ASSERT_TRUE(lib.validate().is_ok());
    Network net = hub_circuit(24);
    const DecomposeResult sub = decompose(net);
    const MapResult res = BaseMapper(lib).map(sub.graph);
    MappedNetlist optimized = res.netlist;
    FanoutOptOptions opts;
    opts.max_fanout = 4;
    const FanoutOptResult r = optimize_fanout(optimized, lib, nullptr, opts);
    EXPECT_GT(r.buffers_added, 0u);
    EXPECT_EQ(r.buffers_added % 2, 0u);  // pairs
    EXPECT_LE(max_sinks(optimized), 4u);
    EXPECT_TRUE(equivalent_random_checked(net, optimized.to_network(lib), 8, 88).take_or_raise());
}

TEST(FanoutOpt, RejectsBadArguments) {
    Mapped m = map_circuit(hub_circuit(8));
    MappedNetlist copy = m.netlist;
    FanoutOptOptions bad;
    bad.max_fanout = 1;
    EXPECT_THROW(optimize_fanout(copy, m.lib, nullptr, bad), std::invalid_argument);
    std::vector<Point> wrong_size(copy.gates.size() + 3);
    FanoutOptOptions ok;
    EXPECT_THROW(optimize_fanout(copy, m.lib, &wrong_size, ok), std::invalid_argument);
}

TEST(FanoutOpt, SuiteCircuitsStayEquivalent) {
    const Library lib = load_msu_big();
    for (const Benchmark& b : paper_suite(0.25)) {
        if (b.network.logic_node_count() > 300) continue;
        const DecomposeResult sub = decompose(b.network);
        const LilyResult res = LilyMapper(lib).map_checked(sub.graph).take_or_raise();
        MappedNetlist optimized = res.netlist;
        std::vector<Point> pos = res.instance_positions;
        FanoutOptOptions opts;
        opts.max_fanout = 6;
        optimize_fanout(optimized, lib, &pos, opts);
        EXPECT_LE(max_sinks(optimized), 6u) << b.name;
        EXPECT_TRUE(
            equivalent_random_checked(b.network, optimized.to_network(lib), 4, 99).take_or_raise())
            << b.name;
    }
}

}  // namespace
}  // namespace lily
