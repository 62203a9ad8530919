#include "verify/lint.hpp"

#include <vector>

#include "verify/aig.hpp"

namespace lily {

CheckReport lint_network(const Network& net) {
    CheckReport report = net.check();
    const std::size_t n = net.node_count();

    // Backward reachability from the POs over live fanin edges: anything
    // unreached computes nothing observable.
    std::vector<bool> reaches_po(n, false);
    std::vector<bool> drives_po(n, false);
    std::vector<NodeId> worklist;
    for (const PrimaryOutput& po : net.outputs()) {
        if (po.driver >= n) continue;
        drives_po[po.driver] = true;
        if (!net.node(po.driver).dead && !reaches_po[po.driver]) {
            reaches_po[po.driver] = true;
            worklist.push_back(po.driver);
        }
    }
    while (!worklist.empty()) {
        const NodeId v = worklist.back();
        worklist.pop_back();
        for (const NodeId f : net.node(v).fanins) {
            if (f < n && !net.node(f).dead && !reaches_po[f]) {
                reaches_po[f] = true;
                worklist.push_back(f);
            }
        }
    }
    for (NodeId id = 0; id < n; ++id) {
        const Node& node = net.node(id);
        if (node.dead) continue;
        if (node.is_po_driver && !drives_po[id]) {
            report.warning(CheckStage::Verify, id,
                           "is_po_driver flag set on '" + node.name +
                               "' but no output references it");
        }
        if (reaches_po[id]) continue;
        if (node.kind == NodeKind::PrimaryInput) {
            report.warning(CheckStage::Verify, id,
                           "floating input '" + node.name + "' reaches no output");
        } else {
            report.warning(CheckStage::Verify, id,
                           "dead cone: node '" + node.name + "' reaches no output");
        }
    }

    // Constant-mergeable logic: AIG lowering (structural hashing + constant
    // propagation) collapses the node's function to 0/1 even though it has
    // fanins. Meaningless on structurally broken graphs.
    if (!report.has_errors()) {
        Aig aig;
        std::vector<AigLit> pi_lits(net.inputs().size());
        for (AigLit& l : pi_lits) l = aig_lit(aig.add_input(), false);
        const std::vector<AigLit> lit = lower_network(net, aig, pi_lits);
        for (NodeId id = 0; id < n; ++id) {
            const Node& node = net.node(id);
            if (node.dead || node.kind != NodeKind::Logic || node.fanins.empty()) continue;
            if (lit[id] == kAigFalse || lit[id] == kAigTrue) {
                report.warning(CheckStage::Verify, id,
                               "node '" + node.name + "' computes constant " +
                                   (lit[id] == kAigTrue ? "1" : "0") +
                                   " and can be merged");
            }
        }
    }

    return report;
}

}  // namespace lily
