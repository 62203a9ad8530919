#include <gtest/gtest.h>

#include <bit>

#include "circuits/benchmarks.hpp"
#include "netlist/simulate.hpp"

namespace lily {
namespace {

// ----------------------------------------------------------------- 9symml

TEST(Circuits, Symmetric9Exhaustive) {
    const Network net = make_symmetric9(3, 6);
    ASSERT_EQ(net.inputs().size(), 9u);
    ASSERT_EQ(net.outputs().size(), 1u);
    // Exhaustive over all 512 assignments, 64 patterns per block.
    for (std::uint64_t base = 0; base < 512; base += 64) {
        std::array<std::uint64_t, 9> ins{};
        for (unsigned p = 0; p < 64; ++p) {
            const std::uint64_t m = base + p;
            for (unsigned i = 0; i < 9; ++i) {
                if ((m >> i) & 1) ins[i] |= std::uint64_t{1} << p;
            }
        }
        const auto v = simulate_block(net, ins);
        for (unsigned p = 0; p < 64; ++p) {
            const std::uint64_t m = base + p;
            const unsigned ones = static_cast<unsigned>(std::popcount(m));
            const bool want = ones >= 3 && ones <= 6;
            EXPECT_EQ(((v[net.outputs()[0].driver] >> p) & 1) != 0, want) << m;
        }
    }
}

TEST(Circuits, Symmetric9IsSymmetric) {
    // Swapping any two inputs leaves the output unchanged: feed the same
    // random vectors with permuted wiring.
    const Network net = make_symmetric9();
    const auto ref = simulate_random(net, 4, 99);
    // Permute inputs by rotating names: equivalence under permutation is
    // implied by the exhaustive test above; spot-check determinism here.
    const auto again = simulate_random(net, 4, 99);
    EXPECT_EQ(ref, again);
}

// --------------------------------------------------------------- priority

TEST(Circuits, PriorityControllerSemantics) {
    const Network net = make_priority_controller(8);
    // grant[i] = req[i] & mask[i] & none of lower-index enabled.
    std::array<std::uint64_t, 16> ins{};  // req0..7, mask0..7 interleaved by name order
    // Build index: inputs were added req0, mask0, req1, mask1, ...
    Rng rng(1);
    for (auto& w : ins) w = rng.next_u64();
    std::vector<std::uint64_t> words(ins.begin(), ins.end());
    const auto v = simulate_block(net, words);
    for (unsigned p = 0; p < 64; ++p) {
        bool blocked = false;
        for (unsigned i = 0; i < 8; ++i) {
            const bool req = (words[2 * i] >> p) & 1;
            const bool mask = (words[2 * i + 1] >> p) & 1;
            const bool enabled = req && mask;
            const auto id = net.find_node("grant" + std::to_string(i));
            bool grant_bit;
            if (id) {
                grant_bit = (v[*id] >> p) & 1;
            } else {
                // grant node may have been swept if constant; skip.
                continue;
            }
            EXPECT_EQ(grant_bit, enabled && !blocked) << "ch " << i << " pat " << p;
            blocked = blocked || enabled;
        }
    }
}

// -------------------------------------------------------------------- ECC

TEST(Circuits, EccCorrectsSingleBitError) {
    const Network net = make_ecc_checker(8, false);
    // Find input/PO layout.
    const unsigned data_bits = 8;
    unsigned p = 0;
    while ((1u << p) < data_bits + p + 1) ++p;
    // Encode a word: choose data, compute parity such that syndrome = 0,
    // then flip one data bit and check the checker corrects it.
    std::vector<unsigned> position(data_bits);
    {
        unsigned pos = 1, placed = 0;
        while (placed < data_bits) {
            if ((pos & (pos - 1)) != 0) position[placed++] = pos;
            ++pos;
        }
    }
    Rng rng(3);
    for (int trial = 0; trial < 20; ++trial) {
        const unsigned data = static_cast<unsigned>(rng.next_below(256));
        std::vector<unsigned> parity(p, 0);
        for (unsigned b = 0; b < p; ++b) {
            unsigned acc = 0;
            for (unsigned i = 0; i < data_bits; ++i) {
                if ((position[i] >> b) & 1) acc ^= (data >> i) & 1;
            }
            parity[b] = acc;
        }
        const unsigned flip = static_cast<unsigned>(rng.next_below(data_bits));
        std::vector<std::uint64_t> ins(net.inputs().size(), 0);
        for (std::size_t k = 0; k < net.inputs().size(); ++k) {
            const std::string& nm = net.node(net.inputs()[k]).name;
            unsigned bit = 0;
            if (nm[0] == 'd') {
                const unsigned i = static_cast<unsigned>(std::stoul(nm.substr(1)));
                bit = ((data >> i) & 1) ^ (i == flip ? 1 : 0);
            } else {
                const unsigned i = static_cast<unsigned>(std::stoul(nm.substr(1)));
                bit = parity[i];
            }
            ins[k] = bit ? ~std::uint64_t{0} : 0;
        }
        const auto v = simulate_block(net, ins);
        for (unsigned i = 0; i < data_bits; ++i) {
            const auto id = net.find_node("c" + std::to_string(i));
            if (!id) continue;
            bool got = false;
            for (const PrimaryOutput& po : net.outputs()) {
                if (po.name == "c" + std::to_string(i)) {
                    got = v[po.driver] & 1;
                }
            }
            EXPECT_EQ(got, ((data >> i) & 1) != 0) << "bit " << i << " trial " << trial;
        }
    }
}

// -------------------------------------------------------------------- ALU

TEST(Circuits, AluAddAndLogicLanes) {
    const unsigned w = 4;
    const Network net = make_alu(w, true);
    Rng rng(9);
    for (int trial = 0; trial < 30; ++trial) {
        const unsigned a = static_cast<unsigned>(rng.next_below(16));
        const unsigned b = static_cast<unsigned>(rng.next_below(16));
        const unsigned op = static_cast<unsigned>(rng.next_below(4));
        const bool cin = rng.next_bool();
        std::vector<std::uint64_t> ins(net.inputs().size(), 0);
        for (std::size_t k = 0; k < net.inputs().size(); ++k) {
            const std::string& nm = net.node(net.inputs()[k]).name;
            bool bit = false;
            if (nm[0] == 'a') bit = (a >> std::stoul(nm.substr(1))) & 1;
            else if (nm[0] == 'b') bit = (b >> std::stoul(nm.substr(1))) & 1;
            else if (nm == "cin") bit = cin;
            else if (nm == "op0") bit = op & 1;
            else if (nm == "op1") bit = (op >> 1) & 1;
            ins[k] = bit ? ~std::uint64_t{0} : 0;
        }
        const auto v = simulate_block(net, ins);
        unsigned want = 0;
        // op1=0 -> arithmetic (op0: 0 add, 1 subtract via b^1, cin^1);
        // op1=1 -> logic (op0: 0 AND, 1 OR).
        switch (op) {
            case 0: want = (a + b + (cin ? 1 : 0)) & 0xF; break;
            case 1: want = (a + (~b & 0xF) + (cin ? 0 : 1)) & 0xF; break;
            case 2: want = a & b; break;
            case 3: want = a | b; break;
        }
        unsigned got = 0, got_xor = 0;
        for (const PrimaryOutput& po : net.outputs()) {
            if (po.name[0] == 'r') {
                const unsigned i = static_cast<unsigned>(std::stoul(po.name.substr(1)));
                if (v[po.driver] & 1) got |= 1u << i;
            }
            if (po.name[0] == 'x' && po.name != "xpar") {
                const unsigned i = static_cast<unsigned>(std::stoul(po.name.substr(1)));
                if (v[po.driver] & 1) got_xor |= 1u << i;
            }
        }
        EXPECT_EQ(got, want) << "a=" << a << " b=" << b << " op=" << op << " cin=" << cin;
        EXPECT_EQ(got_xor, a ^ b);
        // Zero flag.
        for (const PrimaryOutput& po : net.outputs()) {
            if (po.name == "zero") {
                EXPECT_EQ((v[po.driver] & 1) != 0, got == 0);
            }
        }
    }
}

TEST(Circuits, MultiplierExhaustive4x4) {
    const Network net = make_multiplier(4);
    ASSERT_EQ(net.inputs().size(), 8u);
    for (unsigned av = 0; av < 16; ++av) {
        for (unsigned bv = 0; bv < 16; ++bv) {
            std::vector<std::uint64_t> ins(net.inputs().size(), 0);
            for (std::size_t k = 0; k < net.inputs().size(); ++k) {
                const std::string& nm = net.node(net.inputs()[k]).name;
                const unsigned i = static_cast<unsigned>(std::stoul(nm.substr(1)));
                const bool bit = nm[0] == 'a' ? ((av >> i) & 1) : ((bv >> i) & 1);
                ins[k] = bit ? ~std::uint64_t{0} : 0;
            }
            const auto v = simulate_block(net, ins);
            unsigned got = 0;
            for (const PrimaryOutput& po : net.outputs()) {
                const unsigned i = static_cast<unsigned>(std::stoul(po.name.substr(1)));
                if (v[po.driver] & 1) got |= 1u << i;
            }
            ASSERT_EQ(got, av * bv) << av << "*" << bv;
        }
    }
}

TEST(Circuits, MultiplierScalesDeep) {
    const Network net = make_multiplier(8);
    EXPECT_GT(net.logic_node_count(), 300u);
    EXPECT_GT(net.depth(), 15u);  // the C6288-like long carry chains
    EXPECT_FALSE(net.check().has_errors()) << net.check().to_string();
}

// ------------------------------------------------------------- generators

TEST(Circuits, ControlLogicDeterministicAndSized) {
    const Network a = make_control_logic(20, 10, 150, 42, "t");
    const Network b = make_control_logic(20, 10, 150, 42, "t");
    EXPECT_EQ(a.node_count(), b.node_count());
    EXPECT_TRUE(equivalent_random_checked(a, b, 4, 1).take_or_raise());
    EXPECT_EQ(a.outputs().size(), 10u);
    EXPECT_GT(a.logic_node_count(), 50u);
    const Network c = make_control_logic(20, 10, 150, 43, "t");
    EXPECT_FALSE(equivalent_random_checked(a, c, 4, 1).take_or_raise());  // seed changes function
}

TEST(Circuits, PlaShape) {
    const Network pla = make_pla(16, 8, 40, 7, "p");
    EXPECT_EQ(pla.inputs().size(), 16u);
    EXPECT_EQ(pla.outputs().size(), 8u);
    EXPECT_FALSE(pla.check().has_errors()) << pla.check().to_string();
    EXPECT_GT(pla.depth(), 1u);
    // Two-level-ish: depth stays modest (AND tree + OR tree of log depth).
    EXPECT_LT(pla.depth(), 20u);
}

TEST(Circuits, PaperSuiteCompleteAndScaled) {
    const auto suite = paper_suite(0.2);
    ASSERT_EQ(suite.size(), 15u);
    for (const Benchmark& b : suite) {
        EXPECT_FALSE(b.name.empty());
        EXPECT_GT(b.network.logic_node_count(), 0u) << b.name;
        EXPECT_GT(b.network.outputs().size(), 0u) << b.name;
        EXPECT_FALSE(b.network.check().has_errors()) << b.name << "\n"
                                                      << b.network.check().to_string();
    }
    // Scale changes sizes.
    const auto big = paper_suite(1.0);
    std::size_t total_small = 0, total_big = 0;
    for (const auto& b : suite) total_small += b.network.logic_node_count();
    for (const auto& b : big) total_big += b.network.logic_node_count();
    EXPECT_GT(total_big, total_small * 2);
}

TEST(Circuits, Table2NamesAreInSuite) {
    const auto suite = paper_suite(0.2);
    for (const std::string& name : table2_names()) {
        const auto it = std::find_if(suite.begin(), suite.end(),
                                     [&](const Benchmark& b) { return b.name == name; });
        EXPECT_NE(it, suite.end()) << name;
    }
}

}  // namespace
}  // namespace lily
