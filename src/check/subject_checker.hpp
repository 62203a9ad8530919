// The subject graph against its source: functional equivalence of the
// decomposition by random simulation (paranoid mode). The graph's own
// structural invariants are SubjectGraph::check()'s.
#pragma once

#include "netlist/network.hpp"
#include "subject/subject_graph.hpp"
#include "util/check.hpp"

namespace lily {

struct SubjectCheckerOptions {
    /// Random-simulation volume for equivalence checking (64 patterns per
    /// block).
    std::size_t sim_blocks = 16;
    std::uint64_t sim_seed = 0x11febe11;
};

class SubjectChecker {
public:
    explicit SubjectChecker(SubjectCheckerOptions opts = {}) : opts_(opts) {}

    /// Decomposition equivalence: the subject graph, converted back to a
    /// NAND2/INV network, must simulate identically to `source` on random
    /// vectors (CheckLevel::Paranoid). `g` must pass g.check() first —
    /// decompose() guarantees it; simulating a broken graph can crash.
    CheckReport check_against_source(const SubjectGraph& g, const Network& source) const;

private:
    SubjectCheckerOptions opts_;
};

}  // namespace lily
