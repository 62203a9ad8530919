// The result of technology mapping: a netlist of library gate instances
// plus the binding back to subject-graph nodes (needed by placement, wire
// estimation and timing).
#pragma once

#include <string>
#include <vector>

#include "library/library.hpp"
#include "match/matcher.hpp"
#include "netlist/network.hpp"
#include "subject/subject_graph.hpp"
#include "util/version.hpp"

namespace lily {

/// One placed-able gate instance. `driver` is the subject node whose signal
/// the gate output realizes; `inputs` are the subject nodes feeding each
/// gate pin (each is either a subject Input or the `driver` of another
/// instance in the same netlist).
struct GateInstance {
    GateId gate = kNullGate;
    SubjectId driver = kNullSubject;
    std::vector<SubjectId> inputs;
    std::vector<SubjectId> absorbed;  // subject nodes merged into this gate
};

struct MappedOutput {
    std::string name;
    SubjectId driver = kNullSubject;  // gate instance driver or subject Input
};

/// A mapped netlist over a subject graph.
class MappedNetlist {
public:
    MappedNetlist() = default;

    std::vector<GateInstance> gates;   // topological order
    std::vector<MappedOutput> outputs;
    std::vector<SubjectId> subject_inputs;            // the PI interface
    std::vector<std::string> subject_input_names;

    std::size_t gate_count() const { return gates.size(); }
    double total_gate_area(const Library& lib) const;

    /// Index of the instance driving subject node `s`, or npos when `s` is a
    /// subject input (or undriven). Served from a lazily built sorted
    /// driver->instance index keyed to the netlist's version stamp (the old
    /// size-equality invalidation heuristic missed same-size rewrites).
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::size_t instance_driving(SubjectId s) const;

    /// Structure generation. Any code that mutates `gates` (inserting,
    /// erasing, reordering, or changing a driver) must call bump_version()
    /// so instance_driving rebuilds its index instead of serving stale hits.
    Version version() const { return version_; }
    void bump_version() { ++version_; }

    /// Convert to a Network (gate instances become SOP nodes) so mapped
    /// results can be equivalence-checked against the source network and
    /// written to BLIF.
    Network to_network(const Library& lib, const std::string& name = "mapped") const;

    /// Structural invariants, reported under CheckStage::Mapped and never
    /// thrown: gate ids in range and pin counts matching the gate, every
    /// pin a subject input or driven by an earlier instance (topological
    /// order), no signal driven twice or driving a subject input, every
    /// output resolvable, input names in sync; warns on an instance whose
    /// output nothing reads.
    CheckReport check(const Library& lib) const;

private:
    Version version_ = 1;
    mutable Version index_version_ = kNeverBuilt;  // version the index was built at
    mutable std::vector<std::pair<SubjectId, std::size_t>> driver_index_;  // lazy, sorted
    void build_index() const;
};

}  // namespace lily
