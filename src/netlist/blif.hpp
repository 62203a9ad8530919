// BLIF (Berkeley Logic Interchange Format) reader and writer for the
// combinational subset: .model/.inputs/.outputs/.names/.end, with '\'
// line continuation and '#' comments. This is the interchange format MIS
// used, so optimized networks can be loaded from disk and mapped circuits
// dumped for inspection.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "netlist/network.hpp"
#include "util/status.hpp"

namespace lily {

/// Parse a BLIF document from a string. Malformed input yields
/// StatusCode::ParseError with a line number ("blif:LINE: ..."); a netlist
/// that parses but violates network invariants yields
/// StatusCode::InvariantViolation. Latches and subcircuits are rejected
/// (combinational-only scope, as in the paper), and a missing `.end`
/// terminator is treated as truncated input.
StatusOr<Network> read_blif_checked(std::string_view text);

/// read_blif_checked(text).take_or_raise(). Kept only because the
/// benchmark program (perfbench/) calls it; new code uses the Status form.
Network read_blif(std::string_view text);

/// Parse from a file path (Status form).
StatusOr<Network> read_blif_file_checked(const std::string& path);

/// Serialize; the output round-trips through read_blif.
std::string write_blif(const Network& net);

void write_blif_file(const Network& net, const std::string& path);

}  // namespace lily
