// Match/cover legality and functional verification. A Match claims that a
// library gate, with its input pins bound to specific subject nodes,
// computes the signal of the subject node it is rooted at. The checker
// verifies the claim two ways: structurally (the covered set is a
// well-formed cone whose internal fanins stay inside the cover) and
// functionally (the cone's exact truth table over the bound inputs equals
// the gate function, with repeated bindings identified).
#pragma once

#include "match/matcher.hpp"
#include "util/check.hpp"

namespace lily {

class MatchChecker {
public:
    explicit MatchChecker(const Library& lib) : lib_(&lib) {}

    /// Structural cover legality only.
    CheckReport check(const SubjectGraph& g, const Match& m) const;

    /// Legality plus cone-vs-gate functional equivalence (exact truth
    /// tables; gates are small, so 2^n enumeration is cheap).
    CheckReport check_function(const SubjectGraph& g, const Match& m) const;

    /// Run every match the matcher produces at every gate node of `g`
    /// through check_function (or legality-only check when `verify_function`
    /// is false) — the exhaustive audit lily_lint uses. `max_nodes` bounds
    /// the scan (0 = all nodes).
    CheckReport check_all(const SubjectGraph& g, std::size_t max_nodes = 0,
                          bool verify_function = true) const;

private:
    const Library* lib_;
};

}  // namespace lily
