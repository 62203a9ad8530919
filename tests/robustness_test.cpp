// Fault-tolerance tests for the flow engine: every injected fault and
// exhausted budget must complete run_lily_flow_checked without crashing,
// record the degradation rung in FlowDiagnostics, and still hand back a
// mapped netlist that survives the paranoid invariant checkers. A no-fault
// run must stay bit-identical to itself and report a clean record.
#include <gtest/gtest.h>

#include <string>

#include "check/mapped_checker.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/library.hpp"
#include "library/standard_cells.hpp"
#include "netlist/blif.hpp"
#include "netlist/simulate.hpp"
#include "util/budget.hpp"
#include "util/fault.hpp"
#include "util/status.hpp"

namespace lily {
namespace {

/// Restores the (process-global) fault spec when a test exits, so a failing
/// assertion cannot leak a fault into later tests.
class FaultGuard {
public:
    explicit FaultGuard(std::string spec) { set_fault_spec(std::move(spec)); }
    ~FaultGuard() { set_fault_spec(""); }
};

Network test_network() { return make_priority_controller(10); }

/// Shared postcondition for every fault scenario: the flow completed, the
/// result is non-trivial, and the mapped netlist passes the paranoid
/// checker against the source network.
void expect_usable(const StatusOr<FlowResult>& res, const Network& net, const Library& lib) {
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    const FlowResult& flow = res.value();
    EXPECT_GT(flow.metrics.gate_count, 0u);
    EXPECT_GT(flow.metrics.chip_area, 0.0);
    const CheckReport report = MappedChecker(lib).check_against(flow.netlist, net);
    EXPECT_FALSE(report.has_errors()) << report.to_string();
    EXPECT_TRUE(equivalent_random_checked(net, flow.netlist.to_network(lib), 8, 3).take_or_raise());
}

TEST(Robustness, PlacementDivergenceFallsBackToBaseline) {
    FaultGuard fault("placement:diverge");
    const Library lib = load_msu_big();
    const Network net = test_network();
    const StatusOr<FlowResult> res = run_lily_flow_checked(net, lib);
    expect_usable(res, net, lib);
    const StageDiagnostics* mapping = res.value().diagnostics.find("mapping");
    ASSERT_NE(mapping, nullptr);
    EXPECT_EQ(mapping->state, StageState::Recovered);
    EXPECT_NE(mapping->note.find("baseline"), std::string::npos) << mapping->note;
    EXPECT_TRUE(res.value().diagnostics.degraded());
}

TEST(Robustness, MatcherDeadEndFallsBackToBaseline) {
    FaultGuard fault("matcher:no-match");
    const Library lib = load_msu_big();
    const Network net = test_network();
    const StatusOr<FlowResult> res = run_lily_flow_checked(net, lib);
    expect_usable(res, net, lib);
    const StageDiagnostics* mapping = res.value().diagnostics.find("mapping");
    ASSERT_NE(mapping, nullptr);
    EXPECT_EQ(mapping->state, StageState::Recovered);
}

TEST(Robustness, RouterOverbudgetReportsHpwlMetrics) {
    FaultGuard fault("router:overbudget");
    const Library lib = load_msu_big();
    const Network net = test_network();
    const StatusOr<FlowResult> res = run_lily_flow_checked(net, lib);
    expect_usable(res, net, lib);
    const StageDiagnostics* routing = res.value().diagnostics.find("routing");
    ASSERT_NE(routing, nullptr);
    EXPECT_EQ(routing->state, StageState::Degraded);
    EXPECT_NE(routing->note.find("HPWL"), std::string::npos) << routing->note;
    EXPECT_GT(res.value().metrics.wirelength, 0.0);
}

TEST(Robustness, ParserSkipGateLoadsRestOfLibrary) {
    FaultGuard fault("parser:skip-gate");
    const Library lib = load_msu_big();
    ASSERT_FALSE(lib.skipped_gates().empty());
    EXPECT_NE(lib.skipped_gates()[0].reason.find("skip-gate"), std::string::npos);
    // The thinned library must still carry a full flow.
    const Network net = test_network();
    expect_usable(run_lily_flow_checked(net, lib), net, lib);
}

TEST(Robustness, FallbackDisabledSurfacesTheFailure) {
    FaultGuard fault("placement:diverge");
    const Library lib = load_msu_big();
    FlowOptions opts;
    opts.recovery.allow_baseline_fallback = false;
    const StatusOr<FlowResult> res = run_lily_flow_checked(test_network(), lib, opts);
    ASSERT_FALSE(res.is_ok());
    EXPECT_EQ(res.status().code(), StatusCode::ConvergenceFailure);
}

TEST(Robustness, TinyBudgetDegradesButCompletes) {
    const Library lib = load_msu_big();
    const Network net = test_network();
    FlowOptions opts;
    opts.budget.total_ms = 0.001;  // exhausts immediately; every rung fires
    const StatusOr<FlowResult> res = run_lily_flow_checked(net, lib, opts);
    expect_usable(res, net, lib);
    EXPECT_TRUE(res.value().diagnostics.degraded())
        << res.value().diagnostics.to_string();
}

TEST(Robustness, NoFaultRunIsCleanAndDeterministic) {
    const Library lib = load_msu_big();
    const Network net = test_network();
    const StatusOr<FlowResult> a = run_lily_flow_checked(net, lib);
    const StatusOr<FlowResult> b = run_lily_flow_checked(net, lib);
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    EXPECT_FALSE(a.value().diagnostics.degraded()) << a.value().diagnostics.to_string();
    EXPECT_EQ(a.value().metrics.gate_count, b.value().metrics.gate_count);
    EXPECT_DOUBLE_EQ(a.value().metrics.chip_area, b.value().metrics.chip_area);
    EXPECT_DOUBLE_EQ(a.value().metrics.wirelength, b.value().metrics.wirelength);
    EXPECT_DOUBLE_EQ(a.value().metrics.critical_delay, b.value().metrics.critical_delay);
}

TEST(Robustness, FlowFromFilesReportsParseStage) {
    const std::string bad = std::string(LILY_SOURCE_DIR) + "/tests/data/bad/truncated.blif";
    const std::string genlib = std::string(LILY_SOURCE_DIR) + "/lib/msu_big.genlib";
    const StatusOr<FlowResult> res = run_flow_from_files(bad, genlib);
    ASSERT_FALSE(res.is_ok());
    EXPECT_EQ(res.status().code(), StatusCode::ParseError);
    EXPECT_NE(res.status().to_string().find("missing .end"), std::string::npos)
        << res.status().to_string();
}

TEST(Robustness, VerifyMiscompareRefutedAtEveryThreadCount) {
    // The flipped gate must be caught by the prover — with a replayable
    // counterexample, not a vague failure — regardless of how the parallel
    // kernels carve up the work.
    FaultGuard fault("verify:miscompare");
    const Library lib = load_msu_big();
    const Network net = test_network();
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        FlowOptions opts;
        opts.threads = threads;
        opts.verify = VerifyLevel::Prove;
        const StatusOr<FlowResult> res = run_lily_flow_checked(net, lib, opts);
        ASSERT_FALSE(res.is_ok()) << "threads=" << threads;
        EXPECT_EQ(res.status().code(), StatusCode::InvariantViolation) << "threads=" << threads;
        EXPECT_NE(res.status().to_string().find("counterexample"), std::string::npos)
            << "threads=" << threads << ": " << res.status().to_string();
    }
}

TEST(Robustness, VerifyMiscompareCaughtBySimulationRungToo) {
    FaultGuard fault("verify:miscompare");
    const Library lib = load_msu_big();
    FlowOptions opts;
    opts.verify = VerifyLevel::Sim;
    const StatusOr<FlowResult> res = run_lily_flow_checked(test_network(), lib, opts);
    ASSERT_FALSE(res.is_ok());
    EXPECT_EQ(res.status().code(), StatusCode::InvariantViolation);
}

// --- Malformed BLIF corpus ------------------------------------------------

StatusOr<Network> read_bad(const char* name) {
    return read_blif_file_checked(std::string(LILY_SOURCE_DIR) + "/tests/data/bad/" + name);
}

void expect_parse_error(const char* file, const char* needle) {
    const StatusOr<Network> res = read_bad(file);
    ASSERT_FALSE(res.is_ok()) << file;
    EXPECT_EQ(res.status().code(), StatusCode::ParseError) << file;
    EXPECT_NE(res.status().to_string().find(needle), std::string::npos)
        << file << ": " << res.status().to_string();
}

TEST(BadBlifCorpus, Diagnosed) {
    expect_parse_error("truncated.blif", "missing .end");
    expect_parse_error("dup_driver.blif", "duplicate .names driver");
    expect_parse_error("self_latch.blif", "self-referential latch");
    expect_parse_error("bad_cube.blif", "cube characters must be 0, 1 or -");
    expect_parse_error("undefined_output.blif", "never defined");
}

TEST(BadBlifCorpus, ErrorsCarryLineNumbers) {
    const StatusOr<Network> res = read_bad("self_latch.blif");
    ASSERT_FALSE(res.is_ok());
    // Line 5 holds the .latch statement.
    EXPECT_NE(res.status().to_string().find("blif:5"), std::string::npos)
        << res.status().to_string();
}

// --- Status / StageBudget / fault-registry units --------------------------

TEST(StatusUnits, ContextChainsAndRaiseMapping) {
    Status s(StatusCode::ParseError, "bad token");
    s.with_context("file.blif").with_context("run_flow");
    const std::string text = s.to_string();
    EXPECT_NE(text.find("run_flow"), std::string::npos);
    EXPECT_NE(text.find("file.blif"), std::string::npos);
    EXPECT_NE(text.find("bad token"), std::string::npos);

    EXPECT_THROW(Status(StatusCode::InvariantViolation, "x").raise(), std::logic_error);
    EXPECT_THROW(Status(StatusCode::ParseError, "x").raise(), std::runtime_error);
}

TEST(StatusUnits, StatusOrRoundTrip) {
    StatusOr<int> good = 42;
    ASSERT_TRUE(good.is_ok());
    EXPECT_EQ(good.value(), 42);
    StatusOr<int> bad = Status(StatusCode::Unsupported, "nope");
    ASSERT_FALSE(bad.is_ok());
    EXPECT_EQ(bad.status().code(), StatusCode::Unsupported);
    EXPECT_THROW(std::move(bad).take_or_raise(), std::runtime_error);
}

TEST(BudgetUnits, IterationCapExhausts) {
    StageBudget b = StageBudget::iterations(3);
    EXPECT_TRUE(b.limited());
    EXPECT_TRUE(b.tick());
    EXPECT_TRUE(b.tick());
    EXPECT_FALSE(b.tick());  // third tick consumes the last slot
    EXPECT_TRUE(b.exhausted());
}

TEST(BudgetUnits, UnlimitedNeverExhausts) {
    StageBudget b;
    EXPECT_FALSE(b.limited());
    for (int i = 0; i < 1000; ++i) EXPECT_TRUE(b.tick());
    EXPECT_FALSE(b.exhausted());
}

TEST(BudgetUnits, StageIntersectsParentDeadline) {
    const StageBudget parent = StageBudget::deadline_ms(1000.0);
    const StageBudget child = StageBudget::stage(0.0, parent);
    EXPECT_TRUE(child.limited());
    EXPECT_LE(child.remaining_ms(), 1000.0);
}

TEST(FaultUnits, SpecParsingAndScoping) {
    FaultGuard fault("placement:diverge,router:overbudget");
    EXPECT_TRUE(fault_enabled("placement"));
    EXPECT_TRUE(fault_enabled("placement", "diverge"));
    EXPECT_FALSE(fault_enabled("placement", "other"));
    EXPECT_TRUE(fault_enabled("router", "overbudget"));
    EXPECT_FALSE(fault_enabled("matcher"));
}

TEST(FaultUnits, ClearedSpecDisablesEverything) {
    { FaultGuard fault("matcher:no-match"); }
    EXPECT_FALSE(fault_enabled("matcher"));
    EXPECT_FALSE(fault_enabled("parser"));
}

}  // namespace
}  // namespace lily
