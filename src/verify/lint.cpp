#include "verify/lint.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "verify/aig.hpp"

namespace lily {

namespace {

std::size_t count_of(const std::vector<NodeId>& ids, NodeId id) {
    return static_cast<std::size_t>(std::count(ids.begin(), ids.end(), id));
}

}  // namespace

CheckReport lint_network(const Network& net) {
    CheckReport report;
    const std::size_t n = net.node_count();

    // Drivers must exist, be alive and carry the is_po_driver flag.
    bool structure_ok = true;
    std::vector<bool> drives_po(n, false);
    for (const PrimaryOutput& po : net.outputs()) {
        if (po.driver == kNullNode || po.driver >= n) {
            report.error(CheckStage::Verify, kNoCheckNode,
                         "output '" + po.name + "' has no driver node");
            structure_ok = false;
            continue;
        }
        drives_po[po.driver] = true;
        if (net.node(po.driver).dead) {
            report.error(CheckStage::Verify, po.driver,
                         "output '" + po.name + "' is driven by dead node '" +
                             net.node(po.driver).name + "'");
            structure_ok = false;
        } else if (!net.node(po.driver).is_po_driver) {
            report.error(CheckStage::Verify, po.driver,
                         "drives output '" + po.name + "' but its is_po_driver flag is unset");
        }
    }

    // Node records and edges. Node ids are a topological order by
    // construction (Network::add_node and apply_delta both enforce it), so
    // every cycle has an edge from a node to a fanin at or after it.
    bool cyclic = false;
    for (NodeId id = 0; id < n; ++id) {
        const Node& node = net.node(id);
        if (node.dead) continue;
        if (node.name.empty()) report.error(CheckStage::Verify, id, "node has an empty name");
        if (node.is_po_driver && !drives_po[id]) {
            report.warning(CheckStage::Verify, id,
                           "is_po_driver flag set on '" + node.name +
                               "' but no output references it");
        }
        if (node.kind == NodeKind::PrimaryInput && !node.fanins.empty()) {
            report.error(CheckStage::Verify, id, "primary input '" + node.name + "' has fanins");
            structure_ok = false;
        }
        if (node.function.max_fanin_index() > node.fanins.size()) {
            report.error(CheckStage::Verify, id,
                         "node '" + node.name + "': SOP references fanin slot " +
                             std::to_string(node.function.max_fanin_index() - 1) +
                             " but the node has " + std::to_string(node.fanins.size()) +
                             " fanins");
            structure_ok = false;
        }
        for (std::size_t k = 0; k < node.fanins.size(); ++k) {
            const NodeId f = node.fanins[k];
            if (std::find(node.fanins.begin(), node.fanins.begin() + k, f) !=
                node.fanins.begin() + k) {
                continue;  // a repeated fanin was checked at its first slot
            }
            if (f >= n) {
                report.error(CheckStage::Verify, id,
                             "node '" + node.name + "' reads out-of-range fanin " +
                                 std::to_string(f));
                structure_ok = false;
                continue;
            }
            if (net.node(f).dead) {
                report.error(CheckStage::Verify, id,
                             "node '" + node.name + "' reads dead node '" +
                                 net.node(f).name + "'");
                structure_ok = false;
            }
            if (f == id) {
                report.error(CheckStage::Verify, id,
                             "combinational self-loop on node '" + node.name + "'");
                cyclic = true;
            } else if (f > id) {
                report.error(CheckStage::Verify, id,
                             "combinational cycle: node '" + node.name + "' reads later node '" +
                                 net.node(f).name + "'");
                cyclic = true;
            }
            const std::size_t forward = count_of(node.fanins, f);
            const std::size_t backward = count_of(net.node(f).fanouts, id);
            if (forward != backward) {
                report.error(CheckStage::Verify, id,
                             "fanin/fanout asymmetry between '" + node.name + "' and '" +
                                 net.node(f).name + "': " + std::to_string(forward) +
                                 " fanin edge(s) vs " + std::to_string(backward) +
                                 " fanout edge(s)");
                structure_ok = false;
            }
        }
        for (const NodeId fo : node.fanouts) {
            if (fo >= n) {
                report.error(CheckStage::Verify, id,
                             "node '" + node.name + "' has out-of-range fanout " +
                                 std::to_string(fo));
                structure_ok = false;
            } else if (count_of(net.node(fo).fanins, id) == 0) {
                report.error(CheckStage::Verify, id,
                             "fanout edge from '" + node.name + "' to '" + net.node(fo).name +
                                 "' has no matching fanin edge");
                structure_ok = false;
            }
        }
    }

    // Multi-driver nets: two live nodes carrying one name, or one PO name
    // listed twice.
    std::unordered_map<std::string, NodeId> name_owner;
    for (NodeId id = 0; id < n; ++id) {
        const Node& node = net.node(id);
        if (node.dead || node.name.empty()) continue;
        const auto [it, inserted] = name_owner.emplace(node.name, id);
        if (!inserted) {
            report.error(CheckStage::Verify, id,
                         "net '" + node.name + "' is driven by nodes " +
                             std::to_string(it->second) + " and " + std::to_string(id));
        }
    }
    std::unordered_map<std::string, std::size_t> po_seen;
    for (const PrimaryOutput& po : net.outputs()) {
        if (++po_seen[po.name] == 2) {
            report.error(CheckStage::Verify, kNoCheckNode,
                         "output name '" + po.name + "' is declared more than once");
        }
    }

    // Backward reachability from the POs over live fanin edges: anything
    // unreached computes nothing observable.
    std::vector<bool> reaches_po(n, false);
    std::vector<NodeId> worklist;
    for (const PrimaryOutput& po : net.outputs()) {
        if (po.driver != kNullNode && po.driver < n && !net.node(po.driver).dead &&
            !reaches_po[po.driver]) {
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
        if (node.dead || reaches_po[id]) continue;
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
    // fanins. Meaningless on cyclic or structurally broken graphs.
    if (structure_ok && !cyclic) {
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
