#include <gtest/gtest.h>

#include "netlist/blif.hpp"
#include "netlist/simulate.hpp"
#include "subject/cones.hpp"
#include "subject/decompose.hpp"
#include "subject/subject_graph.hpp"
#include "util/rng.hpp"

namespace lily {
namespace {

Network full_adder() {
    Network n("fa");
    const NodeId a = n.add_input("a");
    const NodeId b = n.add_input("b");
    const NodeId cin = n.add_input("cin");
    const NodeId axb = n.make_xor2(a, b);
    const NodeId sum = n.make_xor2(axb, cin);
    const NodeId ab = n.make_and2(a, b);
    const NodeId c_axb = n.make_and2(axb, cin);
    const NodeId cout = n.make_or2(ab, c_axb);
    n.add_output("sum", sum);
    n.add_output("cout", cout);
    return n;
}

/// Random multi-level network over `n_pi` inputs with `n_gates` gates.
Network random_network(std::uint64_t seed, unsigned n_pi = 8, unsigned n_gates = 40) {
    Rng rng(seed);
    Network net("rand" + std::to_string(seed));
    std::vector<NodeId> pool;
    for (unsigned i = 0; i < n_pi; ++i) pool.push_back(net.add_input("pi" + std::to_string(i)));
    for (unsigned i = 0; i < n_gates; ++i) {
        const unsigned k = 2 + static_cast<unsigned>(rng.next_below(3));
        std::vector<NodeId> ins;
        for (unsigned j = 0; j < k; ++j) {
            ins.push_back(pool[rng.next_below(pool.size())]);
        }
        std::sort(ins.begin(), ins.end());
        ins.erase(std::unique(ins.begin(), ins.end()), ins.end());
        NodeId g;
        switch (rng.next_below(5)) {
            case 0: g = net.make_and(ins); break;
            case 1: g = net.make_or(ins); break;
            case 2: g = net.make_nand(ins); break;
            case 3: g = net.make_nor(ins); break;
            default: g = net.make_xor(ins); break;
        }
        pool.push_back(g);
    }
    for (unsigned i = 0; i < 4; ++i) {
        net.add_output("po" + std::to_string(i), pool[pool.size() - 1 - i]);
    }
    net.sweep();
    return net;
}

// ----------------------------------------------------------- subject graph

TEST(SubjectGraph, InverterChainsKeptByDefault) {
    // Period-accurate default: INV(INV(x)) stays structural.
    SubjectGraph g;
    const SubjectId a = g.add_input("a", 0);
    const SubjectId s = g.add_inv(g.add_inv(a));
    g.add_output("f", s);
    EXPECT_EQ(g.gate_count(), 2u);
    EXPECT_EQ(g.depth(), 2u);
}

TEST(SubjectGraph, StructuralHashingSharesNodes) {
    SubjectGraph g;
    const SubjectId a = g.add_input("a", 0);
    const SubjectId b = g.add_input("b", 1);
    const SubjectId n1 = g.add_nand(a, b);
    const SubjectId n2 = g.add_nand(b, a);  // commuted -> same node
    EXPECT_EQ(n1, n2);
    const SubjectId i1 = g.add_inv(n1);
    const SubjectId i2 = g.add_inv(n1);
    EXPECT_EQ(i1, i2);
    EXPECT_EQ(g.gate_count(), 2u);
}

TEST(SubjectGraph, FanoutBookkeeping) {
    SubjectGraph g;
    const SubjectId a = g.add_input("a", 0);
    const SubjectId b = g.add_input("b", 1);
    const SubjectId n1 = g.add_nand(a, b);
    const SubjectId i1 = g.add_inv(n1);
    g.add_output("f", i1);
    EXPECT_FALSE(g.check().has_errors()) << g.check().to_string();
    EXPECT_EQ(g.node(a).fanouts.size(), 1u);
    EXPECT_EQ(g.node(n1).fanouts.size(), 1u);
    EXPECT_TRUE(g.drives_output(i1));
    EXPECT_FALSE(g.drives_output(n1));
    EXPECT_FALSE(g.is_multi_fanout(a));
    g.add_nand(a, i1);
    EXPECT_TRUE(g.is_multi_fanout(a));
}

TEST(SubjectGraph, NandOfSameSignal) {
    SubjectGraph g;
    const SubjectId a = g.add_input("a", 0);
    const SubjectId n = g.add_nand(a, a);  // acts as inverter
    g.add_output("f", n);
    EXPECT_FALSE(g.check().has_errors()) << g.check().to_string();
    EXPECT_EQ(g.node(a).fanouts.size(), 2u);  // two parallel lines
    const Network net = g.to_network();
    const auto v = simulate_block(net, std::array<std::uint64_t, 1>{0b10});
    EXPECT_EQ(v[net.outputs()[0].driver] & 0b11, 0b01u);
}

TEST(SubjectGraph, InverterChainsCancel) {
    SubjectGraph g("subject", /*cancel_inverter_pairs=*/true);
    const SubjectId a = g.add_input("a", 0);
    SubjectId s = a;
    for (int i = 0; i < 5; ++i) s = g.add_inv(s);
    // Odd count: one surviving inverter; INV(INV(x)) folds to x.
    g.add_output("f", s);
    EXPECT_EQ(g.gate_count(), 1u);
    EXPECT_EQ(g.depth(), 1u);
    EXPECT_EQ(g.add_inv(s), a);  // even count folds all the way back
}

// -------------------------------------------------------------- decompose

TEST(Decompose, FullAdderEquivalent) {
    const Network net = full_adder();
    const DecomposeResult r = decompose(net);
    EXPECT_FALSE(r.graph.check().has_errors()) << r.graph.check().to_string();
    EXPECT_TRUE(equivalent_random_checked(net, r.graph.to_network(), 8, 11).take_or_raise());
    // All gates are NAND2/INV.
    for (SubjectId v = 0; v < r.graph.size(); ++v) {
        const auto k = r.graph.node(v).kind;
        EXPECT_TRUE(k == SubjectKind::Input || k == SubjectKind::Inv || k == SubjectKind::Nand2);
    }
}

TEST(Decompose, SignalOfCoversAllNodes) {
    const Network net = full_adder();
    const DecomposeResult r = decompose(net);
    for (NodeId id = 0; id < net.node_count(); ++id) {
        EXPECT_NE(r.signal_of[id], kNullSubject);
    }
}

TEST(Decompose, ShapesAllEquivalent) {
    const Network net = random_network(3);
    for (const TreeShape shape : {TreeShape::Balanced, TreeShape::LeftDeep}) {
        DecomposeOptions opts;
        opts.shape = shape;
        const DecomposeResult r = decompose(net, opts);
        EXPECT_TRUE(equivalent_random_checked(net, r.graph.to_network(), 16, 5).take_or_raise())
            << static_cast<int>(shape);
    }
}

TEST(Decompose, ProximityShapeEquivalentAndUsesPositions) {
    const Network net = random_network(4);
    DecomposeOptions opts;
    opts.shape = TreeShape::Proximity;
    Rng rng(9);
    opts.source_positions.resize(net.node_count());
    for (auto& p : opts.source_positions) p = {rng.next_double(0, 100), rng.next_double(0, 100)};
    const DecomposeResult r = decompose(net, opts);
    EXPECT_TRUE(equivalent_random_checked(net, r.graph.to_network(), 16, 5).take_or_raise());
}

TEST(Decompose, ProximityWithoutPositionsFallsBackToBalanced) {
    const Network net = random_network(5);
    DecomposeOptions prox;
    prox.shape = TreeShape::Proximity;
    const DecomposeResult a = decompose(net, prox);
    const DecomposeResult b = decompose(net);
    EXPECT_EQ(a.graph.size(), b.graph.size());
}

TEST(Decompose, BalancedShallowerThanLeftDeep) {
    // Wide AND: balanced depth ~ 2*log2(k), left-deep ~ 2*k.
    Network net("wide");
    std::vector<NodeId> ins;
    for (int i = 0; i < 16; ++i) ins.push_back(net.add_input("i" + std::to_string(i)));
    net.add_output("f", net.make_and(ins));
    DecomposeOptions deep;
    deep.shape = TreeShape::LeftDeep;
    const auto balanced = decompose(net);
    const auto leftdeep = decompose(net, deep);
    EXPECT_LT(balanced.graph.depth(), leftdeep.graph.depth());
    EXPECT_TRUE(
        equivalent_random_checked(balanced.graph.to_network(), leftdeep.graph.to_network(), 8, 3)
            .take_or_raise());
}

TEST(Decompose, ConstantNodeRejected) {
    Network net("c");
    net.add_input("a");
    net.add_output("f", net.make_const(true));
    EXPECT_THROW(decompose(net), std::invalid_argument);
}

TEST(Decompose, BufferAliasesSignal) {
    Network net("buf");
    const NodeId a = net.add_input("a");
    const NodeId b = net.make_buf(a);
    net.add_output("f", b);
    const DecomposeResult r = decompose(net);
    EXPECT_EQ(r.signal_of[b], r.signal_of[a]);  // no gate inserted
    EXPECT_EQ(r.graph.gate_count(), 0u);
}

TEST(Decompose, RandomNetworksEquivalentSweep) {
    for (std::uint64_t seed = 10; seed < 18; ++seed) {
        const Network net = random_network(seed);
        const DecomposeResult r = decompose(net);
        EXPECT_TRUE(
            equivalent_random_checked(net, r.graph.to_network(), 8, seed).take_or_raise())
            << seed;
    }
}

// ------------------------------------------------------------------- cones

/// Oracle: the transitive fanin of `root` (inputs included), by DFS.
std::vector<bool> cone_members(const SubjectGraph& g, SubjectId root) {
    std::vector<bool> in(g.size(), false);
    std::vector<SubjectId> stack{root};
    in[root] = true;
    while (!stack.empty()) {
        const SubjectNode& n = g.node(stack.back());
        stack.pop_back();
        for (unsigned k = 0; k < n.fanin_count(); ++k) {
            if (!in[n.fanin(k)]) {
                in[n.fanin(k)] = true;
                stack.push_back(n.fanin(k));
            }
        }
    }
    return in;
}

/// Checks cone_schedule against a per-cone DFS: walking the cones in
/// `order`, each gate lands in the bucket of the first cone that reaches
/// it, in id order, unless `done` marks it.
void expect_schedule_matches_dfs(const SubjectGraph& g, const std::vector<Cone>& cones,
                                 const std::vector<std::size_t>& order,
                                 const std::vector<bool>& done) {
    const Csr<SubjectId> schedule = cone_schedule(g, cones, order, done);
    ASSERT_EQ(schedule.node_count(), order.size());
    std::vector<bool> claimed(g.size(), false);
    for (std::size_t k = 0; k < order.size(); ++k) {
        const std::vector<bool> in = cone_members(g, cones[order[k]].root);
        std::vector<SubjectId> want;
        for (SubjectId v = 0; v < g.size(); ++v) {
            if (!in[v] || claimed[v]) continue;
            claimed[v] = true;
            if (g.node(v).kind != SubjectKind::Input && (done.empty() || !done[v])) {
                want.push_back(v);
            }
        }
        const std::span<const SubjectId> got = schedule.neighbors(k);
        EXPECT_EQ(std::vector<SubjectId>(got.begin(), got.end()), want) << "position " << k;
    }
}

TEST(Cones, OnePerDistinctDriver) {
    // Two outputs share the carry's driver: still one cone per driver.
    Network net = full_adder();
    net.add_output("cout_copy", net.outputs()[1].driver);
    const DecomposeResult r = decompose(net);
    const auto cones = logic_cones(r.graph);
    ASSERT_EQ(cones.size(), 2u);
    EXPECT_NE(cones[0].root, cones[1].root);
    for (std::size_t i = 0; i < cones.size(); ++i) {
        EXPECT_EQ(cones[i].po_name, r.graph.outputs()[i].name);  // PO order
        EXPECT_EQ(cones[i].root, r.graph.outputs()[i].driver);
    }
    // Reverse order with every third node done, then nothing done.
    std::vector<bool> done(r.graph.size(), false);
    for (SubjectId v = 0; v < r.graph.size(); v += 3) done[v] = true;
    expect_schedule_matches_dfs(r.graph, cones, {1, 0}, done);
    expect_schedule_matches_dfs(r.graph, cones, {0, 1}, {});
}

TEST(Cones, MembersAreTransitiveFanin) {
    DecomposeResult r = decompose(random_network(21, 8, 120));
    // Extra outputs on every 4th gate: over 128 overlapping cones, so
    // the per-node cone bitsets span several words.
    for (SubjectId v = 0; v < r.graph.size(); v += 4) {
        if (r.graph.node(v).kind != SubjectKind::Input) {
            r.graph.add_output("x" + std::to_string(v), v);
        }
    }
    const SubjectGraph& g = r.graph;
    const auto cones = logic_cones(g);
    ASSERT_GT(cones.size(), 128u);

    // Schedules: identity, reversed, the greedy order, and a subset of the
    // cones; with no node done and with a scattered done mask.
    std::vector<std::size_t> identity(cones.size());
    for (std::size_t i = 0; i < cones.size(); ++i) identity[i] = i;
    const std::vector<std::size_t> reversed(identity.rbegin(), identity.rend());
    const std::vector<std::size_t> subset(reversed.begin(), reversed.begin() + 2);
    std::vector<bool> done(g.size(), false);
    Rng rng(21);
    for (SubjectId v = 0; v < g.size(); ++v) done[v] = rng.next_bool(0.3);
    for (const auto& order : {identity, reversed, order_cones(g, cones), subset}) {
        expect_schedule_matches_dfs(g, cones, order, {});
        expect_schedule_matches_dfs(g, cones, order, done);
    }

    // The exit-line matrix by its definition over the DFS member sets.
    std::vector<std::vector<bool>> in;
    for (const Cone& c : cones) in.push_back(cone_members(g, c.root));
    std::vector<std::vector<unsigned>> want(cones.size(),
                                            std::vector<unsigned>(cones.size(), 0));
    for (SubjectId u = 0; u < g.size(); ++u) {
        for (const SubjectId v : g.node(u).fanouts) {
            for (std::size_t i = 0; i < cones.size(); ++i) {
                if (!in[i][u] || in[i][v]) continue;
                for (std::size_t j = 0; j < cones.size(); ++j) {
                    if (j != i && in[j][v]) ++want[i][j];
                }
            }
        }
    }
    EXPECT_EQ(exit_line_matrix(g, cones), want);
}

TEST(Cones, ExitLineMatrixDiagonalZeroAndCounts) {
    // Two cones sharing a subgraph: f = and(a,b), g = and(and(a,b), c).
    Network net("share");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId c = net.add_input("c");
    const NodeId ab = net.make_and2(a, b);
    const NodeId abc = net.make_and2(ab, c);
    net.add_output("f", ab);
    net.add_output("g", abc);
    const DecomposeResult r = decompose(net);
    const auto cones = logic_cones(r.graph);
    ASSERT_EQ(cones.size(), 2u);
    const auto m = exit_line_matrix(r.graph, cones);
    EXPECT_EQ(m[0][0], 0u);
    EXPECT_EQ(m[1][1], 0u);
    // Cone of f exits into cone of g (ab feeds abc), not vice versa.
    const std::size_t fi = cones[0].po_name == "f" ? 0 : 1;
    const std::size_t gi = 1 - fi;
    EXPECT_GT(m[fi][gi], 0u);
    EXPECT_EQ(m[gi][fi], 0u);
}

TEST(Cones, GreedyOrderingNoWorseThanIdentity) {
    for (std::uint64_t seed = 30; seed < 36; ++seed) {
        const Network net = random_network(seed, 10, 60);
        const DecomposeResult r = decompose(net);
        const auto cones = logic_cones(r.graph);
        const auto m = exit_line_matrix(r.graph, cones);
        const auto greedy = order_cones(r.graph, cones);
        std::vector<std::size_t> identity(cones.size());
        for (std::size_t i = 0; i < cones.size(); ++i) identity[i] = i;
        EXPECT_LE(ordering_cost(m, greedy), ordering_cost(m, identity)) << seed;
        // Greedy result is a permutation.
        auto sorted = greedy;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, identity);
    }
}

// ------------------------------------------------------------------- trees

TEST(Trees, PartitionCoversEveryGateOnce) {
    const Network net = random_network(40);
    const DecomposeResult r = decompose(net);
    const TreePartition part = partition_trees(r.graph);
    std::vector<int> count(r.graph.size(), 0);
    for (const auto& tree : part.trees) {
        for (SubjectId v : tree) {
            ++count[v];
            EXPECT_NE(r.graph.node(v).kind, SubjectKind::Input);
        }
    }
    for (SubjectId v = 0; v < r.graph.size(); ++v) {
        if (r.graph.node(v).kind == SubjectKind::Input) {
            EXPECT_EQ(count[v], 0) << v;
        } else {
            EXPECT_EQ(count[v], 1) << v;
        }
    }
}

TEST(Trees, NonRootMembersAreSingleFanoutInternal) {
    const Network net = random_network(41);
    const DecomposeResult r = decompose(net);
    const TreePartition part = partition_trees(r.graph);
    for (std::size_t t = 0; t < part.trees.size(); ++t) {
        const auto& tree = part.trees[t];
        const SubjectId root = tree.back();
        for (SubjectId v : tree) {
            if (v == root) continue;
            // Internal tree nodes have exactly one fanout, inside this tree.
            EXPECT_EQ(r.graph.node(v).fanouts.size(), 1u);
            EXPECT_EQ(part.tree_of[r.graph.node(v).fanouts[0]], t);
            EXPECT_FALSE(r.graph.drives_output(v));
        }
    }
}

TEST(Trees, RootsAreOutputsOrMultiFanout) {
    const Network net = random_network(42);
    const DecomposeResult r = decompose(net);
    const TreePartition part = partition_trees(r.graph);
    for (const auto& tree : part.trees) {
        const SubjectId root = tree.back();
        const SubjectNode& n = r.graph.node(root);
        EXPECT_TRUE(r.graph.drives_output(root) || n.fanouts.size() != 1);
    }
}

}  // namespace
}  // namespace lily
