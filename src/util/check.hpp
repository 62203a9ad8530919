// Invariant-check diagnostics: structured reports instead of asserts.
//
// Every artifact of the mapping pipeline (the Boolean network, the
// NAND2/INV subject graph, the placement view, the mapped gate netlist)
// has one structural checker, its own `check()` member, and it returns a
// CheckReport rather than throwing. The cross-stage checkers in src/check/
// (equivalence against the source, match covers, placement geometry,
// timing, pipeline stamps, the spool) report the same way. Callers decide
// what a finding means: tests assert on it, a Status-returning entry point
// turns it into an InvariantViolation with to_status(), an always-on
// postcondition raises it with throw_if_errors(), and lily_lint prints it.
// The types live in lily_util because the data layers sit below lily_check.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace lily {

/// How much self-verification the pipeline runs between stages.
///  * Off      — no checking (production default).
///  * Light    — structural invariants only: O(nodes) scans, no simulation.
///  * Paranoid — Light plus functional equivalence via random simulation
///               and per-match cone verification.
enum class CheckLevel : std::uint8_t { Off, Light, Paranoid };

/// Parse "off" / "light" / "paranoid" (case-insensitive). Unknown text
/// returns `fallback`.
CheckLevel parse_check_level(std::string_view text, CheckLevel fallback = CheckLevel::Off);

/// CheckLevel from the LILY_CHECK_LEVEL environment variable (unset or
/// unparsable -> Off). Read once and cached.
CheckLevel check_level_from_env();

enum class CheckSeverity : std::uint8_t { Warning, Error };

/// Which pipeline stage (equivalently: which checker) produced an issue.
enum class CheckStage : std::uint8_t {
    Network,    // source Boolean network
    Subject,    // NAND2/INV subject graph (decomposition)
    Match,      // pattern matches / covers
    Placement,  // global+detailed placement, pads
    Mapped,     // mapped gate netlist, timing
    Pipeline,   // cross-stage artifact versioning (ECO staleness)
    Verify,     // formal equivalence engine, netlist lint passes
    Serve,      // serving-layer spool/journal integrity
};

const char* to_string(CheckStage stage);
const char* to_string(CheckSeverity severity);

/// One diagnostic. `node` is the index of the offending object in its
/// stage's id space (NodeId, SubjectId, instance/cell index...), or
/// kNoCheckNode when the issue is not tied to one object.
inline constexpr std::uint64_t kNoCheckNode = static_cast<std::uint64_t>(-1);

struct CheckIssue {
    CheckSeverity severity = CheckSeverity::Error;
    CheckStage stage = CheckStage::Network;
    std::uint64_t node = kNoCheckNode;
    std::string message;

    std::string to_string() const;
};

/// An append-only collection of issues with the common queries.
class CheckReport {
public:
    void add(CheckIssue issue) { issues_.push_back(std::move(issue)); }
    void error(CheckStage stage, std::uint64_t node, std::string message) {
        add({CheckSeverity::Error, stage, node, std::move(message)});
    }
    void warning(CheckStage stage, std::uint64_t node, std::string message) {
        add({CheckSeverity::Warning, stage, node, std::move(message)});
    }

    /// Merge another report's issues into this one.
    void merge(const CheckReport& other);

    const std::vector<CheckIssue>& issues() const { return issues_; }
    bool empty() const { return issues_.empty(); }
    std::size_t error_count() const;
    std::size_t warning_count() const;
    bool has_errors() const { return error_count() > 0; }

    /// True when some issue's message contains `needle` (for tests).
    bool mentions(std::string_view needle) const;

    /// One line per issue: "error [subject] node 12: ...".
    std::string to_string() const;

    /// The errors as one InvariantViolation Status ("context: invariant
    /// check failed" followed by to_string()); OK when there are none.
    Status to_status(std::string_view context) const;

    /// Raise to_status(context) as std::logic_error when the report has
    /// errors; no-op otherwise. For always-on postconditions in code that
    /// has no Status channel.
    void throw_if_errors(std::string_view context) const;

private:
    std::vector<CheckIssue> issues_;
};

}  // namespace lily
