#include <gtest/gtest.h>

#include <array>
#include <stdexcept>

#include "netlist/network.hpp"
#include "netlist/simulate.hpp"
#include "netlist/sop.hpp"

namespace lily {
namespace {

// --------------------------------------------------------------------- sop

TEST(Sop, CubeEval) {
    const Cube c = Cube::literal(2, true);
    EXPECT_TRUE(c.eval(0b100));
    EXPECT_FALSE(c.eval(0b011));
    EXPECT_EQ(c.literal_count(), 1u);
}

TEST(Sop, Constants) {
    const Sop zero = Sop::constant(false);
    const Sop one = Sop::constant(true);
    EXPECT_TRUE(zero.is_constant());
    EXPECT_FALSE(zero.constant_value());
    EXPECT_TRUE(one.is_constant());
    EXPECT_TRUE(one.constant_value());
    EXPECT_FALSE(zero.eval(0));
    EXPECT_TRUE(one.eval(0));
}

TEST(Sop, GateFamilies) {
    const Sop a2 = Sop::and_n(2);
    EXPECT_TRUE(a2.eval(0b11));
    EXPECT_FALSE(a2.eval(0b10));
    const Sop o3 = Sop::or_n(3);
    EXPECT_TRUE(o3.eval(0b100));
    EXPECT_FALSE(o3.eval(0b000));
    const Sop na2 = Sop::nand_n(2);
    EXPECT_FALSE(na2.eval(0b11));
    EXPECT_TRUE(na2.eval(0b01));
    const Sop no2 = Sop::nor_n(2);
    EXPECT_TRUE(no2.eval(0b00));
    EXPECT_FALSE(no2.eval(0b10));
}

TEST(Sop, XorFamilies) {
    const Sop x3 = Sop::xor_n(3);
    for (std::uint64_t m = 0; m < 8; ++m) {
        EXPECT_EQ(x3.eval(m), std::popcount(m) % 2 == 1) << m;
    }
    const Sop xn2 = Sop::xnor_n(2);
    EXPECT_TRUE(xn2.eval(0b00));
    EXPECT_TRUE(xn2.eval(0b11));
    EXPECT_FALSE(xn2.eval(0b01));
    EXPECT_THROW(Sop::xor_n(11), std::invalid_argument);
}

TEST(Sop, RemapPermutesLiterals) {
    // f = x0 & !x1 remapped with map {2, 0} -> x2 & !x0.
    Sop f;
    Cube c;
    c.care = 0b11;
    c.polarity = 0b01;
    f.cubes.push_back(c);
    const std::array<unsigned, 2> map{2, 0};
    const Sop g = f.remapped(map);
    EXPECT_TRUE(g.eval(0b100));
    EXPECT_FALSE(g.eval(0b101));
    EXPECT_FALSE(g.eval(0b000));
}

TEST(Sop, LiteralAndFaninCounts) {
    Sop f = Sop::and_n(3);
    EXPECT_EQ(f.literal_count(), 3u);
    EXPECT_EQ(f.max_fanin_index(), 3u);
    EXPECT_EQ(Sop::constant(true).max_fanin_index(), 0u);
}

// ------------------------------------------------------------- truth table

TEST(TruthTable, FromSopMatchesEval) {
    const Sop f = Sop::xor_n(3);
    const TruthTable t = TruthTable::from_sop(f, 3);
    for (std::size_t m = 0; m < 8; ++m) EXPECT_EQ(t.get(m), f.eval(m));
}

TEST(TruthTable, Operators) {
    const TruthTable a = TruthTable::variable(0, 2);
    const TruthTable b = TruthTable::variable(1, 2);
    const TruthTable x = a ^ b;
    EXPECT_EQ(x, TruthTable::from_sop(Sop::xor_n(2), 2));
    EXPECT_EQ(a & b, TruthTable::from_sop(Sop::and_n(2), 2));
    EXPECT_EQ(a | b, TruthTable::from_sop(Sop::or_n(2), 2));
    EXPECT_EQ(~(a & b), TruthTable::from_sop(Sop::nand_n(2), 2));
}

TEST(TruthTable, ConstantsAndCounting) {
    const TruthTable t(3);
    EXPECT_TRUE(t.is_constant());
    EXPECT_EQ(t.count_ones(), 0u);
    const TruthTable ones = ~t;
    EXPECT_TRUE(ones.is_constant());
    EXPECT_EQ(ones.count_ones(), 8u);
    EXPECT_FALSE(TruthTable::variable(1, 3).is_constant());
}

TEST(TruthTable, HexRoundTripKnownValues) {
    // x0 over 2 vars: minterms 1 and 3 -> bits 1010 -> 0xa.
    EXPECT_EQ(TruthTable::variable(0, 2).to_hex(), "a");
    EXPECT_EQ(TruthTable::variable(1, 2).to_hex(), "c");
    const TruthTable v8 = TruthTable::variable(0, 8);
    EXPECT_EQ(v8.n_minterms(), 256u);
    EXPECT_EQ(v8.to_hex().size(), 64u);
}

TEST(TruthTable, RejectsTooManyVars) {
    EXPECT_THROW(TruthTable t(17), std::invalid_argument);
}

// ----------------------------------------------------------------- network

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

TEST(Network, FullAdderStructure) {
    const Network n = full_adder();
    EXPECT_FALSE(n.check().has_errors()) << n.check().to_string();
    EXPECT_EQ(n.inputs().size(), 3u);
    EXPECT_EQ(n.outputs().size(), 2u);
    EXPECT_EQ(n.logic_node_count(), 5u);
    EXPECT_EQ(n.depth(), 3u);
    EXPECT_EQ(n.max_fanin(), 2u);
}

TEST(Network, FullAdderSimulatesCorrectly) {
    const Network n = full_adder();
    // Exhaustive 8 patterns in one 64-bit block.
    std::array<std::uint64_t, 3> ins{};
    for (std::uint64_t m = 0; m < 8; ++m) {
        for (unsigned i = 0; i < 3; ++i) {
            if ((m >> i) & 1) ins[i] |= std::uint64_t{1} << m;
        }
    }
    const auto v = simulate_block(n, ins);
    for (std::uint64_t m = 0; m < 8; ++m) {
        const unsigned total = static_cast<unsigned>(std::popcount(m));
        const bool sum = (v[n.outputs()[0].driver] >> m) & 1;
        const bool cout = (v[n.outputs()[1].driver] >> m) & 1;
        EXPECT_EQ(sum, total % 2 == 1) << m;
        EXPECT_EQ(cout, total >= 2) << m;
    }
}

TEST(Network, DuplicateNamesRejected) {
    Network n;
    n.add_input("a");
    EXPECT_THROW(n.add_input("a"), std::invalid_argument);
    EXPECT_THROW(n.add_node("a", {}, Sop::constant(false)), std::invalid_argument);
}

TEST(Network, BadFaninsRejected) {
    Network n;
    const NodeId a = n.add_input("a");
    EXPECT_THROW(n.add_node("x", {static_cast<NodeId>(99)}, Sop::identity()),
                 std::invalid_argument);
    // SOP referencing fanin 1 with only one fanin present.
    EXPECT_THROW(n.add_node("y", {a}, Sop::single_literal(1, true)), std::invalid_argument);
}

TEST(Network, FindNodeAndAutoNames) {
    Network n;
    const NodeId a = n.add_input("a");
    const NodeId g = n.make_not(a);
    EXPECT_EQ(n.find_node("a"), a);
    EXPECT_EQ(n.find_node(n.node(g).name), g);
    EXPECT_FALSE(n.find_node("missing").has_value());
}

TEST(Network, SweepRemovesDeadLogic) {
    Network n;
    const NodeId a = n.add_input("a");
    const NodeId b = n.add_input("b");
    const NodeId keep = n.add_node("f", {a, b}, Sop::and_n(2));
    n.make_or2(a, b);  // dead
    const NodeId dead2 = n.make_not(keep);
    (void)dead2;  // also dead
    n.add_output("f", keep);
    EXPECT_EQ(n.sweep(), 2u);
    EXPECT_FALSE(n.check().has_errors()) << n.check().to_string();
    EXPECT_EQ(n.logic_node_count(), 1u);
    EXPECT_EQ(n.inputs().size(), 2u);  // PIs always survive
    EXPECT_EQ(n.outputs()[0].driver, n.find_node("f").value_or(kNullNode));
}

TEST(Network, SweepKeepsEverythingWhenLive) {
    Network n = full_adder();
    const Network ref = full_adder();
    EXPECT_EQ(n.sweep(), 0u);
    EXPECT_EQ(n.logic_node_count(), 5u);
    // Regression: a no-op sweep must leave node contents untouched (names,
    // functions, fanins), not just the node count.
    for (NodeId i = 0; i < n.node_count(); ++i) {
        EXPECT_EQ(n.node(i).name, ref.node(i).name);
        EXPECT_EQ(n.node(i).fanins, ref.node(i).fanins);
        EXPECT_EQ(n.node(i).function.cubes.size(), ref.node(i).function.cubes.size());
    }
    EXPECT_TRUE(equivalent_random_checked(n, ref, 8, 77).take_or_raise());
}

TEST(Network, TransitiveFaninIsTopological) {
    const Network n = full_adder();
    const NodeId cout = n.outputs()[1].driver;
    const auto tfi = n.transitive_fanin(cout);
    // Root present, and every node's fanins appear before it.
    EXPECT_NE(std::find(tfi.begin(), tfi.end(), cout), tfi.end());
    for (std::size_t i = 0; i < tfi.size(); ++i) {
        for (NodeId f : n.node(tfi[i]).fanins) {
            const auto pos = std::find(tfi.begin(), tfi.end(), f);
            ASSERT_NE(pos, tfi.end());
            EXPECT_LT(static_cast<std::size_t>(pos - tfi.begin()), i);
        }
    }
}

TEST(Network, MuxTruthTable) {
    Network n;
    const NodeId s = n.add_input("s");
    const NodeId d0 = n.add_input("d0");
    const NodeId d1 = n.add_input("d1");
    const NodeId m = n.make_mux(s, d0, d1);
    n.add_output("y", m);
    std::array<std::uint64_t, 3> ins{};
    for (std::uint64_t p = 0; p < 8; ++p) {
        for (unsigned i = 0; i < 3; ++i) {
            if ((p >> i) & 1) ins[i] |= std::uint64_t{1} << p;
        }
    }
    const auto v = simulate_block(n, ins);
    for (std::uint64_t p = 0; p < 8; ++p) {
        const bool sel = p & 1, w0 = (p >> 1) & 1, w1 = (p >> 2) & 1;
        EXPECT_EQ(((v[m] >> p) & 1) != 0, sel ? w1 : w0) << p;
    }
}

TEST(Network, ConstNodes) {
    Network n;
    const NodeId one = n.make_const(true);
    const NodeId zero = n.make_const(false);
    n.add_output("one", one);
    n.add_output("zero", zero);
    const auto v = simulate_block(n, {});
    EXPECT_EQ(v[one], ~std::uint64_t{0});
    EXPECT_EQ(v[zero], std::uint64_t{0});
}

// ------------------------------------------------------------- equivalence

TEST(Equivalence, IdenticalNetworksAgree) {
    const Network a = full_adder();
    const Network b = full_adder();
    EXPECT_TRUE(equivalent_random_checked(a, b, 8, 123).take_or_raise());
}

TEST(Equivalence, DifferentFunctionDetected) {
    Network a = full_adder();
    Network b("fa");
    const NodeId x = b.add_input("a");
    const NodeId y = b.add_input("b");
    const NodeId z = b.add_input("cin");
    b.add_output("sum", b.make_xor2(x, y));  // wrong: ignores cin
    b.add_output("cout", b.make_and2(y, z));
    EXPECT_FALSE(equivalent_random_checked(a, b, 8, 123).take_or_raise());
}

TEST(Equivalence, PiOrderIndependent) {
    Network a("m");
    {
        const NodeId p = a.add_input("p");
        const NodeId q = a.add_input("q");
        a.add_output("f", a.make_and2(p, q));
    }
    Network b("m");
    {
        const NodeId q = b.add_input("q");  // reversed declaration order
        const NodeId p = b.add_input("p");
        b.add_output("f", b.make_and2(p, q));
    }
    EXPECT_TRUE(equivalent_random_checked(a, b, 4, 5).take_or_raise());
}

TEST(Equivalence, InterfaceMismatchIsLoudNotInequivalent) {
    // A PI/PO name-set mismatch is a caller bug, not a miscompare: it comes
    // back as InvariantViolation instead of a silent `false`.
    Network a("m");
    a.add_output("f", a.make_not(a.add_input("x")));
    Network b("m");
    b.add_output("f", b.make_not(b.add_input("y")));  // different PI name
    const StatusOr<bool> eq = equivalent_random_checked(a, b, 1, 9);
    ASSERT_FALSE(eq.is_ok());
    EXPECT_EQ(eq.status().code(), StatusCode::InvariantViolation);
}

TEST(Equivalence, XorDecompositionEquivalent) {
    // xor3 as one node vs chain of xor2s.
    Network a("x");
    {
        std::vector<NodeId> ins;
        for (const char* nm : {"i0", "i1", "i2"}) ins.push_back(a.add_input(nm));
        a.add_output("f", a.make_xor(ins));
    }
    Network b("x");
    {
        const NodeId i0 = b.add_input("i0");
        const NodeId i1 = b.add_input("i1");
        const NodeId i2 = b.add_input("i2");
        b.add_output("f", b.make_xor2(b.make_xor2(i0, i1), i2));
    }
    EXPECT_TRUE(equivalent_random_checked(a, b, 16, 77).take_or_raise());
}

}  // namespace
}  // namespace lily
