#include <gtest/gtest.h>

#include <string>

#include "netlist/blif.hpp"
#include "netlist/simulate.hpp"

namespace lily {
namespace {

TEST(Blif, ParseSimpleAnd) {
    const Network n = read_blif_checked(R"(
.model tiny
.inputs a b
.outputs f
.names a b f
11 1
.end
)").take_or_raise();
    EXPECT_EQ(n.name(), "tiny");
    EXPECT_EQ(n.inputs().size(), 2u);
    EXPECT_EQ(n.outputs().size(), 1u);
    const auto v = simulate_block(n, std::array<std::uint64_t, 2>{0b1100, 0b1010});
    EXPECT_EQ(v[n.outputs()[0].driver] & 0xF, 0b1000u);
}

TEST(Blif, OffsetCubes) {
    // Rows with output 0 describe the off-set: f = NOT(a & !b).
    const Network n = read_blif_checked(R"(
.model offs
.inputs a b
.outputs f
.names a b f
10 0
.end
)").take_or_raise();
    const auto v = simulate_block(n, std::array<std::uint64_t, 2>{0b1100, 0b1010});
    // patterns (a,b): 00 -> 1, 01 -> 1, 10 -> 0, 11 -> 1
    EXPECT_EQ(v[n.outputs()[0].driver] & 0xF, 0b1011u);
}

TEST(Blif, DontCaresAndMultipleCubes) {
    const Network n = read_blif_checked(R"(
.model dc
.inputs a b c
.outputs f
.names a b c f
1-- 1
-11 1
.end
)").take_or_raise();
    std::array<std::uint64_t, 3> ins{};
    for (std::uint64_t p = 0; p < 8; ++p) {
        for (unsigned i = 0; i < 3; ++i) {
            if ((p >> i) & 1) ins[i] |= std::uint64_t{1} << p;
        }
    }
    const auto v = simulate_block(n, ins);
    for (std::uint64_t p = 0; p < 8; ++p) {
        const bool a = p & 1, b = (p >> 1) & 1, c = (p >> 2) & 1;
        EXPECT_EQ(((v[n.outputs()[0].driver] >> p) & 1) != 0, a || (b && c)) << p;
    }
}

TEST(Blif, ConstantTables) {
    const Network n = read_blif_checked(R"(
.model consts
.inputs a
.outputs one zero
.names one
1
.names zero
.end
)").take_or_raise();
    const auto v = simulate_block(n, std::array<std::uint64_t, 1>{0});
    EXPECT_EQ(v[n.outputs()[0].driver], ~std::uint64_t{0});
    EXPECT_EQ(v[n.outputs()[1].driver], std::uint64_t{0});
}

TEST(Blif, ForwardReferencesResolved) {
    // 'mid' is used before its .names block appears.
    const Network n = read_blif_checked(R"(
.model fwd
.inputs a b
.outputs f
.names mid b f
11 1
.names a mid
0 1
.end
)").take_or_raise();
    EXPECT_FALSE(n.check().has_errors()) << n.check().to_string();
    const auto v = simulate_block(n, std::array<std::uint64_t, 2>{0b1100, 0b1010});
    // f = !a & b. Per pattern p: a = bit p of 0b1100, b = bit p of 0b1010,
    // so only p = 1 (a=0, b=1) sets f -> word 0b0010.
    EXPECT_EQ(v[n.outputs()[0].driver] & 0xF, 0b0010u);
}

TEST(Blif, LineContinuationAndComments) {
    const Network n = read_blif_checked(R"(
# a comment
.model cont
.inputs a \
        b
.outputs f  # trailing comment
.names a b f
11 1
.end
)").take_or_raise();
    EXPECT_EQ(n.inputs().size(), 2u);
    EXPECT_EQ(n.outputs().size(), 1u);
}

StatusCode blif_error(const std::string& text) { return read_blif_checked(text).status().code(); }

TEST(Blif, ErrorsAreDiagnosed) {
    const std::string head = ".model x\n.inputs a\n.outputs f\n";
    EXPECT_EQ(blif_error(head + ".names a f\n2 1\n.end\n"),
              StatusCode::ParseError);                          // bad cube char
    EXPECT_EQ(blif_error(head + ".end\n"), StatusCode::ParseError);  // undefined output
    EXPECT_EQ(blif_error(head + ".names a f\n1 1\n.names a f\n0 1\n.end\n"),
              StatusCode::ParseError);  // doubly defined
    EXPECT_EQ(blif_error(".model x\n.latch a b\n.end\n"), StatusCode::ParseError);
    EXPECT_EQ(blif_error(head + ".names a f\n11 1\n.end\n"),
              StatusCode::ParseError);  // cube width mismatch
    EXPECT_EQ(blif_error(head + ".names a f\n1 1\n0 0\n.end\n"),
              StatusCode::ParseError);  // mixed on/off rows
}

TEST(Blif, TruncatedInputMissingEnd) {
    // A document without .end is treated as truncated, not silently accepted.
    const auto r = read_blif_checked(".model x\n.inputs a\n.outputs f\n.names a f\n1 1\n");
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), StatusCode::ParseError);
    EXPECT_NE(r.status().message().find("missing .end"), std::string::npos)
        << r.status().message();
}

TEST(Blif, SelfReferentialLatchDiagnosed) {
    const auto r = read_blif_checked(".model x\n.latch q q\n.end\n");
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), StatusCode::ParseError);
    EXPECT_NE(r.status().message().find("self-referential latch"), std::string::npos)
        << r.status().message();
    // The line number of the offending latch is part of the message.
    EXPECT_NE(r.status().message().find("blif:2"), std::string::npos) << r.status().message();
}

TEST(Blif, CheckedErrorsCarryLineNumbers) {
    const auto dup = read_blif_checked(
        ".model x\n.inputs a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n.end\n");
    ASSERT_FALSE(dup.is_ok());
    EXPECT_NE(dup.status().message().find("blif:6"), std::string::npos)
        << dup.status().message();
    EXPECT_NE(dup.status().message().find("duplicate .names driver"), std::string::npos);

    const auto undef = read_blif_checked(".model x\n.inputs a\n.outputs f\n.end\n");
    ASSERT_FALSE(undef.is_ok());
    EXPECT_NE(undef.status().message().find("blif:3"), std::string::npos)
        << undef.status().message();
}

TEST(Blif, CycleDetected) {
    EXPECT_EQ(blif_error(R"(
.model cyc
.inputs a
.outputs f
.names a g f
11 1
.names f g
1 1
.end
)"),
              StatusCode::ParseError);
}

TEST(Blif, RoundTripPreservesFunction) {
    const char* src = R"(
.model rt
.inputs a b c d
.outputs f g
.names a b t1
10 1
01 1
.names t1 c t2
11 1
.names t2 d f
0- 1
-0 1
.names a d g
00 0
.end
)";
    const Network n1 = read_blif_checked(src).take_or_raise();
    const std::string dumped = write_blif(n1);
    const Network n2 = read_blif_checked(dumped).take_or_raise();
    EXPECT_TRUE(equivalent_random_checked(n1, n2, 16, 321).take_or_raise());
}

TEST(Blif, PoAliasBufferEmitted) {
    // PO name differs from driver: writer must synthesize a buffer.
    Network n("alias");
    const NodeId a = n.add_input("a");
    const NodeId b = n.add_input("b");
    const NodeId g = n.make_and2(a, b);
    n.add_output("result", g);
    const Network round = read_blif_checked(write_blif(n)).take_or_raise();
    ASSERT_EQ(round.outputs().size(), 1u);
    EXPECT_EQ(round.outputs()[0].name, "result");
    EXPECT_TRUE(equivalent_random_checked(n, round, 8, 42).take_or_raise());
}

TEST(Blif, OutputDrivenByInput) {
    const Network n = read_blif_checked(R"(
.model wire
.inputs a
.outputs a
.end
)").take_or_raise();
    EXPECT_EQ(n.outputs()[0].driver, n.inputs()[0]);
    const Network round = read_blif_checked(write_blif(n)).take_or_raise();
    EXPECT_TRUE(equivalent_random_checked(n, round, 4, 7).take_or_raise());
}

}  // namespace
}  // namespace lily
