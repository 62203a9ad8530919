// The target cell library. Gates are read from genlib text (the format MIS
// and SIS used):
//
//   GATE <name> <area> <output>=<expression>;
//   PIN <pin|*> <phase> <input-load> <max-load>
//       <rise-block> <rise-fanout> <fall-block> <fall-fanout>
//
// Every gate carries its exact truth table and its NAND2/INV pattern graphs
// so the technology mapper can cover subject graphs with it.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "library/expr.hpp"
#include "library/pattern.hpp"
#include "util/status.hpp"

namespace lily {

enum class PinPhase : std::uint8_t { Inv, NonInv, Unknown };

/// Timing/electrical view of one input pin: the paper's linear model — the
/// delay from pin i to the output is block + fanout * C_load, separately for
/// rising and falling output transitions; input_load is the capacitance the
/// pin presents to its driver.
struct PinTiming {
    std::string name;  // "*" in genlib means: applies to every pin
    PinPhase phase = PinPhase::Unknown;
    double input_load = 0.0;
    double max_load = 0.0;
    double rise_block = 0.0;
    double rise_fanout = 0.0;
    double fall_block = 0.0;
    double fall_fanout = 0.0;

    double worst_block() const { return rise_block > fall_block ? rise_block : fall_block; }
    double worst_fanout() const { return rise_fanout > fall_fanout ? rise_fanout : fall_fanout; }
};

using GateId = std::uint32_t;
inline constexpr GateId kNullGate = static_cast<GateId>(-1);

struct Gate {
    std::string name;
    double area = 0.0;
    std::string output_name;
    ExprPtr expression;
    std::vector<std::string> input_names;  // variable order of the expression
    std::vector<PinTiming> pins;           // one per input, in input_names order
    TruthTable function;                   // over input_names.size() variables
    std::vector<PatternGraph> patterns;

    unsigned n_inputs() const { return static_cast<unsigned>(input_names.size()); }
    const PinTiming& pin(std::size_t i) const { return pins[i]; }
    /// Average input capacitance (used where the driving pin is unknown).
    double typical_input_load() const;
};

class Library {
public:
    Library() = default;
    explicit Library(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }
    std::size_t size() const { return gates_.size(); }
    const Gate& gate(GateId id) const { return gates_[id]; }
    const std::vector<Gate>& gates() const { return gates_; }

    std::optional<GateId> find(std::string_view gate_name) const;

    /// The smallest-area inverter / 2-input NAND; these base gates must be
    /// present for a cover to always exist (checked by `validate`).
    GateId inverter() const { return inverter_; }
    GateId nand2() const { return nand2_; }

    unsigned max_gate_inputs() const;

    /// A gate the genlib reader could not turn into a usable library entry
    /// but that did not poison the rest of the library (e.g. fanin beyond
    /// the matcher's limits). The library loads without it.
    struct SkippedGate {
        std::string name;
        std::size_t line_no = 0;  // 0 when not from a text source
        std::string reason;
    };
    const std::vector<SkippedGate>& skipped_gates() const { return skipped_; }
    void note_skipped(std::string name, std::size_t line_no, std::string reason) {
        skipped_.push_back({std::move(name), line_no, std::move(reason)});
    }

    /// Add a gate (patterns are generated here). Returns its id, or
    /// StatusCode::Unsupported when the gate exceeds the matcher's fanin
    /// limits (>10 equation inputs, or pattern enumeration blocks wider
    /// than 12) — such gates can be skipped without invalidating the rest
    /// of the library — and StatusCode::ParseError for malformed pin specs.
    StatusOr<GateId> add_gate_checked(std::string name, double area,
                                      const std::string& equation,
                                      std::vector<PinTiming> pin_specs,
                                      std::size_t max_patterns = 64);

    /// Check library invariants: base gates exist (an inverter and a
    /// 2-input NAND, without which some subject graphs have no cover),
    /// every pattern's truth table equals its gate function, pin counts
    /// line up. The first violation comes back as an InvariantViolation
    /// ("library: no inverter gate"); every library loader runs it once
    /// per parse.
    Status validate() const;

private:
    std::string name_;
    std::vector<Gate> gates_;
    std::vector<SkippedGate> skipped_;
    GateId inverter_ = kNullGate;
    GateId nand2_ = kNullGate;
};

/// Parse genlib text. Comments start with '#'. Malformed statements yield
/// StatusCode::ParseError with a line number. Gates whose fanin exceeds the
/// matcher's limits are *skipped* — recorded in Library::skipped_gates(),
/// with the rest of the library loading normally.
StatusOr<Library> read_genlib_checked(std::string_view text,
                                      std::string library_name = "genlib");

/// Parse a genlib file from disk (Status form).
StatusOr<Library> read_genlib_file_checked(const std::string& path);

}  // namespace lily
