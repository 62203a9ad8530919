#include "map/base_mapper.hpp"

#include <algorithm>
#include <stdexcept>

namespace lily {

bool legal_in_tree_mode(const SubjectGraph& g, const Match& m) {
    for (SubjectId w : m.covered) {
        if (w == m.root()) continue;
        if (g.node(w).fanouts.size() != 1 || g.drives_output(w)) return false;
    }
    return true;
}

MapResult BaseMapper::map(const SubjectGraph& g, const BaseMapperOptions& opts) const {
    MapResult result;
    result.solution.assign(g.size(), {});

    MatchScratch scratch;  // reused across nodes: no per-call buffer churn
    for (SubjectId v = 0; v < g.size(); ++v) {
        const SubjectNode& n = g.node(v);
        if (n.kind == SubjectKind::Input) continue;  // cost 0, no match

        auto matches = matcher_.matches_at(g, v, scratch);
        NodeSolution best;
        best.cost = std::numeric_limits<double>::max();
        for (Match& m : matches) {
            if (opts.mode == CoverMode::Trees && !legal_in_tree_mode(g, m)) continue;
            const Gate& gate = lib_->gate(m.gate);
            double cost = 0.0;
            if (opts.objective == MapObjective::Area) {
                cost = gate.area;
                for (SubjectId leaf : m.inputs) cost += result.solution[leaf].cost;
            } else {
                // Arrival time with the constant-load + per-fanout wire model.
                const double n_fan = static_cast<double>(n.fanouts.size());
                const double c_load =
                    n_fan * opts.default_pin_load + n_fan * opts.wire_cap_per_fanout;
                for (std::size_t i = 0; i < m.inputs.size(); ++i) {
                    const PinTiming& pin = gate.pin(i);
                    const double t = result.solution[m.inputs[i]].cost + pin.worst_block() +
                                     pin.worst_fanout() * c_load;
                    cost = std::max(cost, t);
                }
            }
            if (cost < best.cost ||
                (cost == best.cost && best.has_match &&
                 gate.area < lib_->gate(best.match.gate).area)) {
                best.cost = cost;
                best.match = std::move(m);
                best.has_match = true;
            }
        }
        if (!best.has_match) {
            throw std::runtime_error("BaseMapper: no legal match at node " + g.name_of(v));
        }
        result.solution[v] = std::move(best);
    }

    result.netlist = extract_cover(g, *lib_, result.solution);
    result.total_area = result.netlist.total_gate_area(*lib_);
    if (opts.objective == MapObjective::Delay) {
        for (const SubjectOutput& po : g.outputs()) {
            result.worst_arrival = std::max(result.worst_arrival,
                                            result.solution[po.driver].cost);
        }
    }
    return result;
}

MappedNetlist extract_cover(const SubjectGraph& g, const Library& lib,
                            const std::vector<NodeSolution>& solution) {
    MappedNetlist out;
    for (SubjectId in : g.inputs()) {
        out.subject_inputs.push_back(in);
        out.subject_input_names.push_back(g.name_of(in));
    }

    // Collect the set of needed signals: PO drivers plus, transitively, the
    // inputs of each needed signal's chosen match. A buried (covered)
    // multi-fanout node that is needed in its own right gets its own gate —
    // this is exactly the MIS logic duplication.
    std::vector<bool> needed(g.size(), false);
    std::vector<SubjectId> stack;
    for (const SubjectOutput& po : g.outputs()) {
        if (!needed[po.driver]) {
            needed[po.driver] = true;
            stack.push_back(po.driver);
        }
    }
    while (!stack.empty()) {
        const SubjectId v = stack.back();
        stack.pop_back();
        if (g.node(v).kind == SubjectKind::Input) continue;
        const NodeSolution& sol = solution[v];
        if (!sol.has_match) {
            throw std::logic_error("extract_cover: needed node has no solution");
        }
        for (SubjectId leaf : sol.match.inputs) {
            if (!needed[leaf]) {
                needed[leaf] = true;
                stack.push_back(leaf);
            }
        }
    }

    // Emit instances in topological (id) order.
    for (SubjectId v = 0; v < g.size(); ++v) {
        if (!needed[v] || g.node(v).kind == SubjectKind::Input) continue;
        const Match& m = solution[v].match;
        GateInstance inst;
        inst.gate = m.gate;
        inst.driver = v;
        inst.inputs = m.inputs;
        inst.absorbed = m.covered;
        out.gates.push_back(std::move(inst));
    }
    for (const SubjectOutput& po : g.outputs()) out.outputs.push_back({po.name, po.driver});
    out.check(lib).throw_if_errors("extract_cover");
    return out;
}

}  // namespace lily
