// The mapped netlist against other stages: functional equivalence against a
// reference network (the inchoate/source network) via random simulation,
// and sanity of a timing report over the netlist (finite, non-negative,
// monotone arrivals; loads at least the connected pin capacitance — wire
// load can only add). The netlist's own structural invariants are
// MappedNetlist::check()'s.
#pragma once

#include "map/mapped_netlist.hpp"
#include "sta/timing.hpp"
#include "util/check.hpp"

namespace lily {

struct MappedCheckerOptions {
    std::size_t sim_blocks = 16;
    std::uint64_t sim_seed = 0x5eedf00d;
};

class MappedChecker {
public:
    explicit MappedChecker(const Library& lib, MappedCheckerOptions opts = {})
        : lib_(&lib), opts_(opts) {}

    /// Equivalence against `reference` (the source network or the subject
    /// graph's network view) by random simulation (CheckLevel::Paranoid).
    /// `m` must pass m.check(lib) first — the mappers guarantee it;
    /// to_network throws on a broken netlist.
    CheckReport check_against(const MappedNetlist& m, const Network& reference) const;

    /// Timing-report sanity for this netlist: arrivals finite, non-negative
    /// and monotone along gate connectivity; loads no smaller than the
    /// connected input pin capacitance.
    CheckReport check_timing(const MappedNetlist& m, const TimingReport& timing) const;

private:
    const Library* lib_;
    MappedCheckerOptions opts_;
};

/// Deliberately corrupt `mapped` for checker/verifier self-tests: replace
/// one instance's gate with a same-arity gate whose truth table differs (a
/// functionally wrong cover). Returns false when the library carries no such
/// pair. Shared by lily_lint --inject=wrong-cover and the flow's
/// verify:miscompare fault probe.
bool inject_wrong_cover(MappedNetlist& mapped, const Library& lib);

}  // namespace lily
