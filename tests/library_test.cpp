#include <gtest/gtest.h>

#include <array>

#include "library/expr.hpp"
#include "library/library.hpp"
#include "library/pattern.hpp"
#include "library/standard_cells.hpp"

namespace lily {
namespace {

// -------------------------------------------------------------------- expr

TEST(Expr, ParseSimple) {
    const ParsedEquation eq = parse_equation_checked("O = a*b + !c").take_or_raise();
    EXPECT_EQ(eq.output, "O");
    ASSERT_EQ(eq.input_names.size(), 3u);
    EXPECT_EQ(eq.input_names[0], "a");
    EXPECT_EQ(eq.input_names[2], "c");
    // minterm (a,b,c) bits: f = ab + !c
    EXPECT_TRUE(eval_expr(*eq.expr, 0b011));   // a=1,b=1
    EXPECT_TRUE(eval_expr(*eq.expr, 0b000));   // c=0
    EXPECT_FALSE(eval_expr(*eq.expr, 0b100));  // only c=1
}

TEST(Expr, PostfixComplementAndParens) {
    const ParsedEquation eq = parse_equation_checked("Y=(a+b)'*c").take_or_raise();
    EXPECT_TRUE(eval_expr(*eq.expr, 0b100));   // a=0,b=0,c=1
    EXPECT_FALSE(eval_expr(*eq.expr, 0b101));  // a=1
    EXPECT_FALSE(eval_expr(*eq.expr, 0b000));  // c=0
}

TEST(Expr, DoubleNegationCollapses) {
    const ParsedEquation eq = parse_equation_checked("O=!!a").take_or_raise();
    EXPECT_EQ(eq.expr->kind, ExprKind::Var);
}

TEST(Expr, Constants) {
    EXPECT_TRUE(eval_expr(*parse_equation_checked("O=CONST1").take_or_raise().expr, 0));
    EXPECT_FALSE(eval_expr(*parse_equation_checked("O=CONST0").take_or_raise().expr, 0));
    EXPECT_FALSE(eval_expr(*parse_equation_checked("O=!CONST1").take_or_raise().expr, 0));
}

TEST(Expr, RepeatedVariableSharesIndex) {
    const ParsedEquation eq = parse_equation_checked("O=a*!b+!a*b").take_or_raise();
    EXPECT_EQ(eq.input_names.size(), 2u);
    EXPECT_EQ(expr_var_count(*eq.expr), 2u);
    const TruthTable t = expr_truth_table(*eq.expr, 2);
    EXPECT_EQ(t, TruthTable::from_sop(Sop::xor_n(2), 2));
}

TEST(Expr, Errors) {
    for (const char* text : {"no equals sign", "O=a+", "O=(a", "O=a b", " =a"}) {
        EXPECT_EQ(parse_equation_checked(text).status().code(), StatusCode::ParseError) << text;
    }
}

TEST(Expr, ToStringRoundTrips) {
    const ParsedEquation eq = parse_equation_checked("O=!(a*b+c)").take_or_raise();
    const std::string s = expr_to_string(*eq.expr, eq.input_names);
    const ParsedEquation eq2 = parse_equation_checked("O=" + s).take_or_raise();
    EXPECT_EQ(expr_truth_table(*eq.expr, 3), expr_truth_table(*eq2.expr, 3));
}

// ----------------------------------------------------------------- pattern

TEST(Pattern, InverterPattern) {
    const ParsedEquation eq = parse_equation_checked("O=!a").take_or_raise();
    const auto pats = generate_patterns(eq.expr, 1);
    ASSERT_EQ(pats.size(), 1u);
    EXPECT_EQ(pats[0].internal_size(), 1u);
    EXPECT_EQ(pats[0].nodes[pats[0].root].kind, PatternKind::Inv);
}

TEST(Pattern, Nand2SinglePattern) {
    const ParsedEquation eq = parse_equation_checked("O=!(a*b)").take_or_raise();
    const auto pats = generate_patterns(eq.expr, 2);
    ASSERT_EQ(pats.size(), 1u);
    EXPECT_EQ(pats[0].internal_size(), 1u);
}

TEST(Pattern, Nand3HasTwoNodePatterns) {
    // !(abc) = NAND(a, INV(NAND(b,c))) — one shape up to commutativity.
    const ParsedEquation eq = parse_equation_checked("O=!(a*b*c)").take_or_raise();
    const auto pats = generate_patterns(eq.expr, 3);
    ASSERT_GE(pats.size(), 1u);
    for (const auto& p : pats) EXPECT_EQ(p.truth_table(), expr_truth_table(*eq.expr, 3));
    EXPECT_EQ(pats[0].internal_size(), 3u);  // nand, inv, nand
}

TEST(Pattern, ShapeCountNand6) {
    // Unordered binary trees over 6 identical leaves: Wedderburn-Etherington
    // number 6 -> 6 distinct shapes (each NAND-of-ANDs decomposition).
    const ParsedEquation eq = parse_equation_checked("O=!(a*b*c*d*e*f)").take_or_raise();
    const auto pats = generate_patterns(eq.expr, 6, 256);
    EXPECT_EQ(pats.size(), 6u);
    for (const auto& p : pats) EXPECT_EQ(p.truth_table(), expr_truth_table(*eq.expr, 6));
}

TEST(Pattern, XorLeafDagRepeatsVariables) {
    const ParsedEquation eq = parse_equation_checked("O=a*!b+!a*b").take_or_raise();
    const auto pats = generate_patterns(eq.expr, 2);
    ASSERT_GE(pats.size(), 1u);
    for (const auto& p : pats) {
        EXPECT_EQ(p.truth_table(), TruthTable::from_sop(Sop::xor_n(2), 2));
        // Leaves: a and b each appear twice.
        std::size_t leaves = 0;
        for (const auto& n : p.nodes) leaves += n.kind == PatternKind::Input ? 1 : 0;
        EXPECT_EQ(leaves, 4u);
    }
}

TEST(Pattern, AllPatternsFunctionallyCorrect) {
    for (const char* equation :
         {"O=!(a*b+c)", "O=!((a+b)*c)", "O=!(a*b+c*d)", "O=a+b+c+d", "O=!((a+b)*(c+d)*e)",
          "O=!s*a+s*b", "O=a*b*c*d*e"}) {
        const ParsedEquation eq = parse_equation_checked(equation).take_or_raise();
        const unsigned n = static_cast<unsigned>(eq.input_names.size());
        const TruthTable want = expr_truth_table(*eq.expr, n);
        const auto pats = generate_patterns(eq.expr, n, 128);
        ASSERT_FALSE(pats.empty()) << equation;
        for (const auto& p : pats) EXPECT_EQ(p.truth_table(), want) << equation;
    }
}

TEST(Pattern, CanonicalInvariantUnderChildSwap) {
    // NAND(a, INV(b)) and NAND(INV(b), a) must serialize identically.
    PatternGraph g1;
    g1.n_vars = 2;
    g1.nodes = {{PatternKind::Input, -1, -1, 0},
                {PatternKind::Input, -1, -1, 1},
                {PatternKind::Inv, 1, -1, 0},
                {PatternKind::Nand2, 0, 2, 0}};
    g1.root = 3;
    PatternGraph g2 = g1;
    g2.nodes[3].child0 = 2;
    g2.nodes[3].child1 = 0;
    EXPECT_EQ(g1.canonical(), g2.canonical());
}

TEST(Pattern, DepthIsLongestPath) {
    const ParsedEquation eq = parse_equation_checked("O=!(a*b*c*d)").take_or_raise();
    const auto pats = generate_patterns(eq.expr, 4, 64);
    // Balanced: NAND(INV(NAND(a,b)), INV(NAND(c,d))) depth 3.
    // Skewed: NAND(a, INV(NAND(b, INV(NAND(c,d))))) depth 5.
    std::size_t min_d = 99, max_d = 0;
    for (const auto& p : pats) {
        min_d = std::min(min_d, p.depth());
        max_d = std::max(max_d, p.depth());
    }
    EXPECT_EQ(min_d, 3u);
    EXPECT_EQ(max_d, 5u);
}

// ----------------------------------------------------------------- library

TEST(Genlib, ParseMinimal) {
    const Library lib = read_genlib_checked(R"(
# comment
GATE inv 1.0 O=!a;
PIN a INV 0.1 1.0 0.4 2.0 0.3 1.5
GATE nd2 2.0 O=!(a*b);
PIN * INV 0.1 1.0 0.5 2.5 0.4 2.0
)").take_or_raise();
    EXPECT_EQ(lib.size(), 2u);
    const Gate& inv = lib.gate(0);
    EXPECT_EQ(inv.name, "inv");
    EXPECT_DOUBLE_EQ(inv.area, 1.0);
    ASSERT_EQ(inv.pins.size(), 1u);
    EXPECT_DOUBLE_EQ(inv.pins[0].rise_fanout, 2.0);
    EXPECT_EQ(lib.inverter(), 0u);
    EXPECT_EQ(lib.nand2(), 1u);
    const Gate& nd2 = lib.gate(1);
    ASSERT_EQ(nd2.pins.size(), 2u);  // '*' expanded
    EXPECT_EQ(nd2.pins[1].name, "b");
}

TEST(Genlib, MultiLineEquation) {
    const Library lib =
        read_genlib_checked("GATE big 4.0 O=!(a*b+\nc*d);\nPIN * INV 0.1 1 1 3 1 3\n")
            .take_or_raise();
    ASSERT_EQ(lib.size(), 1u);
    EXPECT_EQ(lib.gate(0).n_inputs(), 4u);
}

TEST(Genlib, Errors) {
    for (const char* text : {
             "GATE x 1.0\n",
             "PIN a INV 0.1 1 1 1 1 1\n",
             "GATE x 1.0 O=!a;\nPIN b INV 0.1 1 1 1 1 1\n",     // pin not in equation
             "GATE x 1.0 O=!(a*b);\nPIN a INV 0.1 1 1 1 1 1\n",  // missing pin b
             "GATE x 1.0 O=!a;\nPIN a BAD 0.1 1 1 1 1 1\n",
             "GATE x 1.0 O=!a\n",  // missing ';'
             "HELLO\n",
         }) {
        EXPECT_EQ(read_genlib_checked(text).status().code(), StatusCode::ParseError) << text;
    }
}

TEST(Genlib, OverFaninGateSkippedNotFatal) {
    // An 11-input gate exceeds the matcher's fanin limit; the reader must
    // skip it with a diagnostic and keep the rest of the library usable.
    std::string text = "GATE wide 9.0 O=!(a*b*c*d*e*f*g*h*i*j*k);\nPIN * INV 0.1 1 1 1 1 1\n";
    text += "GATE inv 1.0 O=!a;\nPIN a INV 0.1 1 1 1 1 1\n";
    const Library lib = read_genlib_checked(text).take_or_raise();
    EXPECT_EQ(lib.size(), 1u);
    EXPECT_EQ(lib.gate(0).name, "inv");
    ASSERT_EQ(lib.skipped_gates().size(), 1u);
    EXPECT_EQ(lib.skipped_gates()[0].name, "wide");
    EXPECT_EQ(lib.skipped_gates()[0].line_no, 1u);
    EXPECT_NE(lib.skipped_gates()[0].reason.find("limit 10"), std::string::npos)
        << lib.skipped_gates()[0].reason;
}

TEST(Genlib, CheckedReaderReportsLineNumbers) {
    const StatusOr<Library> bad = read_genlib_checked("GATE ok 1.0 O=!a;\n"
                                                      "PIN a INV 0.1 1 1 1 1 1\n"
                                                      "GATE broken 1.0 O=!a\n");
    ASSERT_FALSE(bad.is_ok());
    EXPECT_EQ(bad.status().code(), StatusCode::ParseError);
    EXPECT_NE(bad.status().to_string().find("unterminated"), std::string::npos)
        << bad.status().to_string();
}

TEST(Genlib, TypicalInputLoad) {
    const Library lib = read_genlib_checked(
        "GATE g 2.0 O=!(a*b);\nPIN a INV 0.1 1 1 1 1 1\nPIN b INV 0.3 1 1 1 1 1\n").take_or_raise();
    EXPECT_DOUBLE_EQ(lib.gate(0).typical_input_load(), 0.2);
}

// ---------------------------------------------------------- standard cells

TEST(StandardCells, TinyLoadsAndValidates) {
    const Library lib = load_msu_tiny();
    EXPECT_EQ(lib.name(), "msu_tiny");
    EXPECT_GE(lib.size(), 12u);
    EXPECT_EQ(lib.max_gate_inputs(), 3u);
    EXPECT_NE(lib.inverter(), kNullGate);
    EXPECT_NE(lib.nand2(), kNullGate);
}

TEST(StandardCells, BigLoadsAndValidates) {
    const Library lib = load_msu_big();
    EXPECT_EQ(lib.max_gate_inputs(), 6u);
    const Library tiny = load_msu_tiny();
    EXPECT_GT(lib.size(), tiny.size());
    // Big library contains every tiny gate by name.
    for (const Gate& g : tiny.gates()) {
        EXPECT_TRUE(lib.find(g.name).has_value()) << g.name;
    }
}

TEST(StandardCells, InverterIsSmallestAreaInv) {
    const Library lib = load_msu_tiny();
    const Gate& inv = lib.gate(lib.inverter());
    EXPECT_EQ(inv.name, "inv1");
    for (const Gate& g : lib.gates()) {
        if (g.n_inputs() == 1 && g.function == inv.function) {
            EXPECT_GE(g.area, inv.area);
        }
    }
}

TEST(StandardCells, GateFunctionsSpotCheck) {
    const Library lib = load_msu_big();
    const Gate& aoi22 = lib.gate(*lib.find("aoi22"));
    // f = !(ab + cd); check a few minterms (a,b,c,d) = bits 0..3.
    EXPECT_TRUE(aoi22.function.get(0b0000));
    EXPECT_FALSE(aoi22.function.get(0b0011));
    EXPECT_FALSE(aoi22.function.get(0b1100));
    EXPECT_TRUE(aoi22.function.get(0b1010));
    const Gate& mux = lib.gate(*lib.find("mux21"));
    EXPECT_EQ(mux.n_inputs(), 3u);
}

TEST(StandardCells, PatternsPresentAndBoundedEverywhere) {
    const std::array<Library, 2> libs{load_msu_tiny(), load_msu_big()};
    for (const Library& lib : libs) {
        for (const Gate& g : lib.gates()) {
            EXPECT_FALSE(g.patterns.empty()) << g.name;
            EXPECT_LE(g.patterns.size(), 64u) << g.name;
            for (const PatternGraph& p : g.patterns) {
                EXPECT_EQ(p.truth_table(), g.function) << g.name;
                EXPECT_LE(p.depth(), 12u) << g.name;
            }
        }
    }
}

}  // namespace
}  // namespace lily
