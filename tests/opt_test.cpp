#include <gtest/gtest.h>

#include "circuits/benchmarks.hpp"
#include "netlist/simulate.hpp"
#include "opt/optimize.hpp"
#include "opt/sop_algebra.hpp"

namespace lily {
namespace {

using alg::ACube;
using alg::ASop;
using alg::Lit;

Lit L(unsigned var, bool neg = false) { return alg::make_lit(var, neg); }

// ----------------------------------------------------------------- algebra

TEST(Algebra, NormalizeSortsAndDedupes) {
    ASop f = {{L(2), L(0)}, {L(1)}, {L(0), L(2)}};
    const ASop n = alg::normalized(std::move(f));
    ASSERT_EQ(n.size(), 2u);
    // Lexicographic cube order: {L(0), L(2)} sorts before {L(1)}.
    EXPECT_EQ(n[0], (ACube{L(0), L(2)}));
    EXPECT_EQ(n[1], (ACube{L(1)}));
    EXPECT_EQ(alg::literal_count(n), 3u);
}

TEST(Algebra, CubeOps) {
    const ACube big{L(0), L(1), L(3)};
    const ACube small{L(0), L(3)};
    EXPECT_TRUE(alg::cube_contains(big, small));
    EXPECT_FALSE(alg::cube_contains(small, big));
    EXPECT_EQ(alg::cube_remove(big, small), (ACube{L(1)}));
}

TEST(Algebra, CommonCubeAndCubeFree) {
    // f = abc + abd: common cube ab, not cube-free.
    const ASop f = alg::normalized({{L(0), L(1), L(2)}, {L(0), L(1), L(3)}});
    EXPECT_EQ(alg::common_cube(f), (ACube{L(0), L(1)}));
    EXPECT_FALSE(alg::is_cube_free(f));
    // c + d is cube-free.
    EXPECT_TRUE(alg::is_cube_free(alg::normalized({{L(2)}, {L(3)}})));
    // A single cube is never cube-free.
    EXPECT_FALSE(alg::is_cube_free({{L(2)}}));
}

TEST(Algebra, DivisionTextbook) {
    // f = ac + ad + bc + bd + e; d = a + b -> q = c + d, r = e.
    const ASop f = alg::normalized(
        {{L(0), L(2)}, {L(0), L(3)}, {L(1), L(2)}, {L(1), L(3)}, {L(4)}});
    const ASop d = alg::normalized({{L(0)}, {L(1)}});
    const auto res = alg::divide(f, d);
    EXPECT_EQ(res.quotient, alg::normalized({{L(2)}, {L(3)}}));
    EXPECT_EQ(res.remainder, alg::normalized({{L(4)}}));
    // Reconstruction: q*d + r == f.
    EXPECT_EQ(alg::add(alg::multiply(res.quotient, d), res.remainder), f);
}

TEST(Algebra, DivisionNoQuotient) {
    const ASop f = alg::normalized({{L(0), L(2)}});
    const auto res = alg::divide(f, alg::normalized({{L(5)}}));
    EXPECT_TRUE(res.quotient.empty());
    EXPECT_EQ(res.remainder, f);
}

TEST(Algebra, MultiplyDistributes) {
    const ASop a = alg::normalized({{L(0)}, {L(1)}});
    const ASop b = alg::normalized({{L(2)}, {L(3)}});
    const ASop p = alg::multiply(a, b);
    EXPECT_EQ(p, alg::normalized({{L(0), L(2)}, {L(0), L(3)}, {L(1), L(2)}, {L(1), L(3)}}));
}

TEST(Algebra, KernelsTextbook) {
    // The classic example f = adf + aef + bdf + bef + cdf + cef + g:
    // kernels include (a+b+c), (d+e), and f itself.
    const auto lit = [](char c) { return L(static_cast<unsigned>(c - 'a')); };
    ASop f;
    for (const char x : {'a', 'b', 'c'}) {
        for (const char y : {'d', 'e'}) {
            f.push_back({lit(x), lit(y), lit('f')});
        }
    }
    f.push_back({lit('g')});
    f = alg::normalized(std::move(f));

    const auto ks = alg::kernels(f);
    const ASop k_abc = alg::normalized({{lit('a')}, {lit('b')}, {lit('c')}});
    const ASop k_de = alg::normalized({{lit('d')}, {lit('e')}});
    bool saw_abc = false, saw_de = false, saw_self = false;
    for (const auto& k : ks) {
        if (k.kernel == k_abc) saw_abc = true;
        if (k.kernel == k_de) saw_de = true;
        if (k.kernel == f) saw_self = true;
        // Every kernel is cube-free with >= 2 cubes.
        EXPECT_TRUE(alg::common_cube(k.kernel).empty());
        EXPECT_GE(k.kernel.size(), 2u);
    }
    EXPECT_TRUE(saw_abc);
    EXPECT_TRUE(saw_de);
    EXPECT_TRUE(saw_self);  // f is cube-free (g has no common literal)

    // Level-0 call returns a subset.
    const auto k0 = alg::level0_kernels(f);
    EXPECT_LE(k0.size(), ks.size());
    EXPECT_FALSE(k0.empty());
}

TEST(Algebra, KernelCoKernelConsistency) {
    // For every (co-kernel, kernel) pair: dividing f by the kernel yields a
    // quotient containing the co-kernel.
    const ASop f = alg::normalized({{L(0), L(2)},
                                    {L(0), L(3)},
                                    {L(1), L(2)},
                                    {L(1), L(3)},
                                    {L(0), L(4)}});
    for (const auto& k : alg::kernels(f)) {
        const auto res = alg::divide(f, k.kernel);
        ASSERT_FALSE(res.quotient.empty());
        if (!k.co_kernel.empty()) {
            EXPECT_TRUE(std::binary_search(res.quotient.begin(), res.quotient.end(),
                                           k.co_kernel));
        }
    }
}

// ------------------------------------------------------------------ passes

TEST(Optimize, ConstantsPropagate) {
    Network net("c");
    const NodeId a = net.add_input("a");
    const NodeId one = net.make_const(true);
    const NodeId g = net.make_and2(a, one);      // = a
    const NodeId h = net.make_nor(std::array{g, net.make_const(false)});  // = !a
    net.add_output("f", h);
    std::size_t folded = 0;
    const Network out = propagate_constants(net, &folded);
    EXPECT_TRUE(equivalent_random_checked(net, out, 8, 1).take_or_raise());
    // g reduces to a buffer of a; h to an inverter; constants swept.
    for (NodeId i = 0; i < out.node_count(); ++i) {
        if (out.node(i).kind == NodeKind::Logic) {
            EXPECT_FALSE(out.node(i).function.is_constant());
        }
    }
}

TEST(Optimize, ConstantOutputsSurvive) {
    Network net("co");
    net.add_input("a");
    net.add_output("zero", net.make_const(false));
    const Network out = propagate_constants(net);
    ASSERT_EQ(out.outputs().size(), 1u);
    EXPECT_TRUE(out.node(out.outputs()[0].driver).function.is_constant());
}

TEST(Optimize, BuffersCollapse) {
    Network net("b");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    NodeId s = net.make_and2(a, b);
    for (int i = 0; i < 4; ++i) s = net.make_buf(s);
    net.add_output("f", s);
    std::size_t removed = 0;
    const Network out = collapse_buffers(net, &removed);
    EXPECT_EQ(removed, 4u);
    EXPECT_EQ(out.logic_node_count(), 1u);
    EXPECT_TRUE(equivalent_random_checked(net, out, 8, 2).take_or_raise());
}

TEST(Optimize, CubeExtractionShares) {
    // Three nodes all containing the product a*b: one extraction expected.
    Network net("cx");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId c = net.add_input("c");
    const NodeId d = net.add_input("d");
    net.add_output("f", net.make_and(std::array{a, b, c}));
    net.add_output("g", net.make_and(std::array{a, b, d}));
    const NodeId ab_or = net.add_node("h", {a, b, c, d}, [] {
        Sop s;
        Cube c1;  // a b d
        c1.care = 0b1011;
        c1.polarity = 0b1011;
        Cube c2;  // c
        c2.care = 0b0100;
        c2.polarity = 0b0100;
        s.cubes = {c1, c2};
        return s;
    }());
    net.add_output("h", ab_or);
    std::size_t made = 0;
    const Network out = extract_common_cubes(net, 10, &made);
    EXPECT_GE(made, 1u);
    EXPECT_TRUE(equivalent_random_checked(net, out, 16, 3).take_or_raise());
    EXPECT_LT(out.literal_count(), net.literal_count());
}

TEST(Optimize, KernelExtractionShares) {
    // f = xe + ye, g = xh + yh share the kernel (x + y).
    Network net("kx");
    const NodeId x = net.add_input("x");
    const NodeId y = net.add_input("y");
    const NodeId e = net.add_input("e");
    const NodeId h = net.add_input("h");
    const auto sop2 = [](unsigned other) {
        Sop s;
        Cube c1;  // x * other
        c1.care = 0b001 | (1u << other);
        c1.polarity = c1.care;
        Cube c2;  // y * other
        c2.care = 0b010 | (1u << other);
        c2.polarity = c2.care;
        s.cubes = {c1, c2};
        return s;
    };
    net.add_output("f", net.add_node("f", {x, y, e}, sop2(2)));
    net.add_output("g", net.add_node("g", {x, y, h}, sop2(2)));
    std::size_t made = 0;
    const Network out = extract_common_kernels(net, 10, &made);
    EXPECT_GE(made, 1u);
    EXPECT_TRUE(equivalent_random_checked(net, out, 16, 4).take_or_raise());
    // The kernel node exists and the originals reference it.
    EXPECT_GT(out.logic_node_count(), 2u);
}

TEST(Optimize, FactoringBoundsCubeCount) {
    const Network pla = make_pla(16, 6, 60, 9, "fx");
    const Network out = factor_wide_nodes(pla, 4);
    for (NodeId i = 0; i < out.node_count(); ++i) {
        if (out.node(i).kind == NodeKind::Logic) {
            EXPECT_LE(out.node(i).function.cubes.size(), 4u);
        }
    }
    EXPECT_TRUE(equivalent_random_checked(pla, out, 8, 5).take_or_raise());
    EXPECT_THROW(factor_wide_nodes(pla, 1), std::invalid_argument);
}

class OptimizeSuite : public ::testing::TestWithParam<const char*> {};

TEST_P(OptimizeSuite, FullScriptEquivalentAndSmaller) {
    const auto suite = paper_suite(0.3);
    const auto it = std::find_if(suite.begin(), suite.end(), [&](const Benchmark& b) {
        return b.name == GetParam();
    });
    ASSERT_NE(it, suite.end());
    OptimizeStats stats;
    const Network out = optimize(it->network, {}, &stats);
    EXPECT_TRUE(equivalent_random_checked(it->network, out, 8, 6).take_or_raise()) << GetParam();
    EXPECT_EQ(stats.literals_before, it->network.literal_count());
    EXPECT_EQ(stats.literals_after, out.literal_count());
    // PLA-style circuits must shrink; others must not blow up.
    EXPECT_LE(stats.literals_after, stats.literals_before * 11 / 10) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Circuits, OptimizeSuite,
                         ::testing::Values("duke2", "misex1", "e64", "b9", "C880", "9symml"));

TEST(Optimize, PlaLiteralsShrinkSubstantially) {
    const Network pla = make_pla(20, 10, 80, 11, "shrink");
    OptimizeStats stats;
    const Network out = optimize(pla, {}, &stats);
    EXPECT_TRUE(equivalent_random_checked(pla, out, 8, 7).take_or_raise());
    EXPECT_LT(stats.literals_after, stats.literals_before);
    EXPECT_GT(stats.cubes_extracted + stats.kernels_extracted, 0u);
}

TEST(Optimize, Deterministic) {
    const Network pla = make_pla(14, 8, 50, 13, "det");
    const Network a = optimize(pla);
    const Network b = optimize(pla);
    EXPECT_EQ(a.node_count(), b.node_count());
    EXPECT_EQ(a.literal_count(), b.literal_count());
    EXPECT_TRUE(equivalent_random_checked(a, b, 4, 8).take_or_raise());
}

}  // namespace
}  // namespace lily
