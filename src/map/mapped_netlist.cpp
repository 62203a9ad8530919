#include "map/mapped_netlist.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace lily {

double MappedNetlist::total_gate_area(const Library& lib) const {
    double a = 0.0;
    for (const GateInstance& g : gates) a += lib.gate(g.gate).area;
    return a;
}

void MappedNetlist::build_index() const {
    if (index_version_ == version_) return;
    driver_index_.clear();
    driver_index_.reserve(gates.size());
    for (std::size_t i = 0; i < gates.size(); ++i) driver_index_.emplace_back(gates[i].driver, i);
    std::sort(driver_index_.begin(), driver_index_.end());
    index_version_ = version_;
}

std::size_t MappedNetlist::instance_driving(SubjectId s) const {
    build_index();
    const auto it = std::lower_bound(driver_index_.begin(), driver_index_.end(),
                                     std::make_pair(s, std::size_t{0}));
    if (it != driver_index_.end() && it->first == s) return it->second;
    return npos;
}

Network MappedNetlist::to_network(const Library& lib, const std::string& name) const {
    Network net(name);
    std::unordered_map<SubjectId, NodeId> signal;
    for (std::size_t i = 0; i < subject_inputs.size(); ++i) {
        signal.emplace(subject_inputs[i], net.add_input(subject_input_names[i]));
    }
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const GateInstance& inst = gates[i];
        const Gate& gate = lib.gate(inst.gate);
        std::vector<NodeId> fanins;
        fanins.reserve(inst.inputs.size());
        for (SubjectId in : inst.inputs) {
            const auto it = signal.find(in);
            if (it == signal.end()) {
                throw std::logic_error("MappedNetlist::to_network: undriven input signal");
            }
            fanins.push_back(it->second);
        }
        // Gate function as SOP over its pins. Convert the truth table of the
        // gate to a (possibly non-minimal) SOP: one cube per on-minterm is
        // wasteful for wide gates, so reuse the genlib expression when it is
        // already SOP-shaped; otherwise fall back to minterm expansion.
        Sop sop;
        const unsigned n = gate.n_inputs();
        const std::uint64_t care = n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
        for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m) {
            if (gate.function.get(m)) sop.cubes.push_back({care, m});
        }
        const NodeId node =
            net.add_node("g" + std::to_string(i) + "_" + gate.name, std::move(fanins),
                         std::move(sop));
        signal.emplace(inst.driver, node);
    }
    for (const MappedOutput& po : outputs) {
        const auto it = signal.find(po.driver);
        if (it == signal.end()) {
            throw std::logic_error("MappedNetlist::to_network: undriven primary output");
        }
        net.add_output(po.name, it->second);
    }
    return net;
}

CheckReport MappedNetlist::check(const Library& lib) const {
    CheckReport rep;
    constexpr CheckStage kStage = CheckStage::Mapped;
    if (subject_input_names.size() != subject_inputs.size()) {
        rep.error(kStage, kNoCheckNode,
                  "subject input names (" + std::to_string(subject_input_names.size()) +
                      ") and ids (" + std::to_string(subject_inputs.size()) + ") out of sync");
    }

    // Signal -> the instance driving it (npos for a subject input), filled
    // in instance order so a pin may only read what is already driven.
    std::unordered_map<SubjectId, std::size_t> driver_of;
    driver_of.reserve(subject_inputs.size() + gates.size());
    for (const SubjectId s : subject_inputs) driver_of.emplace(s, npos);
    // Per instance: 0 drives nothing of its own, 1 drives a signal nothing
    // reads yet, 2 drives a signal some pin or output reads.
    std::vector<unsigned char> fate(gates.size(), 0);
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const GateInstance& inst = gates[i];
        if (inst.gate >= lib.size()) {
            rep.error(kStage, i,
                      "instance gate id " + std::to_string(inst.gate) + " out of library range");
            continue;
        }
        const Gate& gate = lib.gate(inst.gate);
        if (inst.inputs.size() != gate.n_inputs()) {
            rep.error(kStage, i,
                      "instance of '" + gate.name + "' binds " +
                          std::to_string(inst.inputs.size()) + " pins, gate has " +
                          std::to_string(gate.n_inputs()));
        }
        for (const SubjectId in : inst.inputs) {
            const auto it = driver_of.find(in);
            if (it == driver_of.end()) {
                rep.error(kStage, i,
                          "pin signal " + std::to_string(in) +
                              " is neither a subject input nor driven by an earlier "
                              "instance (topological order violated or undriven)");
            } else if (it->second != npos) {
                fate[it->second] = 2;
            }
        }
        const auto [it, inserted] = driver_of.emplace(inst.driver, i);
        if (inserted) {
            fate[i] = 1;
            continue;
        }
        if (it->second == npos) {
            rep.error(kStage, i,
                      "instance drives subject input signal " + std::to_string(inst.driver));
        } else {
            rep.error(kStage, i,
                      "signal " + std::to_string(inst.driver) + " driven twice (also by instance " +
                          std::to_string(it->second) + ")");
        }
    }
    for (const MappedOutput& po : outputs) {
        const auto it = driver_of.find(po.driver);
        if (it == driver_of.end()) {
            rep.error(kStage, kNoCheckNode,
                      "output '" + po.name + "' driven by unresolvable signal " +
                          std::to_string(po.driver));
        } else if (it->second != npos) {
            fate[it->second] = 2;
        }
    }
    for (std::size_t i = 0; i < gates.size(); ++i) {
        if (fate[i] == 1) {
            rep.warning(kStage, i, "instance output feeds no pin and no primary output");
        }
    }
    return rep;
}

}  // namespace lily
