#include "check/subject_checker.hpp"

#include "netlist/simulate.hpp"

namespace lily {

CheckReport SubjectChecker::check_against_source(const SubjectGraph& g,
                                                 const Network& source) const {
    CheckReport rep;
    if (g.inputs().size() != source.inputs().size() ||
        g.outputs().size() != source.outputs().size()) {
        rep.error(CheckStage::Subject, kNoCheckNode,
                  "PI/PO interface mismatch with source network: " +
                      std::to_string(g.inputs().size()) + "/" +
                      std::to_string(g.outputs().size()) + " vs " +
                      std::to_string(source.inputs().size()) + "/" +
                      std::to_string(source.outputs().size()));
        return rep;
    }
    const StatusOr<bool> equivalent =
        equivalent_random_checked(source, g.to_network(), opts_.sim_blocks, opts_.sim_seed);
    if (!equivalent.is_ok()) {
        rep.error(CheckStage::Subject, kNoCheckNode,
                  "PI/PO interface mismatch with source network: " +
                      equivalent.status().message());
    } else if (!equivalent.value()) {
        rep.error(CheckStage::Subject, kNoCheckNode,
                  "decomposition not equivalent to the source network (random simulation, " +
                      std::to_string(opts_.sim_blocks * 64) + " vectors)");
    }
    return rep;
}

}  // namespace lily
