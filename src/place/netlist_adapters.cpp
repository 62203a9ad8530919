#include "place/netlist_adapters.hpp"

#include <cmath>
#include <unordered_map>

namespace lily {

SubjectPlacementView make_placement_view(const SubjectGraph& g) {
    const SubjectTopology& t = g.topology();
    SubjectPlacementView view;
    view.cell_of.assign(g.size(), kNoCell);

    for (SubjectId v = 0; v < g.size(); ++v) {
        if (t.kind[v] == SubjectKind::Input) continue;
        view.cell_of[v] = view.subject_of.size();
        view.subject_of.push_back(v);
        view.netlist.cell_area.push_back(t.kind[v] == SubjectKind::Inv ? kInvCellArea
                                                                       : kNandCellArea);
    }
    view.netlist.n_cells = view.subject_of.size();

    view.n_input_pads = g.inputs().size();
    view.netlist.pad_positions.assign(g.inputs().size() + g.outputs().size(), Point{});

    // Which pads each signal drives (a driver can feed several POs).
    std::unordered_map<SubjectId, std::vector<std::size_t>> po_pads;
    for (std::size_t o = 0; o < g.outputs().size(); ++o) {
        po_pads[g.outputs()[o].driver].push_back(view.pad_of_output(o));
    }
    std::unordered_map<SubjectId, std::size_t> pi_pad;
    for (std::size_t i = 0; i < g.inputs().size(); ++i) {
        pi_pad.emplace(g.inputs()[i], view.pad_of_input(i));
    }

    for (SubjectId v = 0; v < g.size(); ++v) {
        const auto fanouts = t.fanouts_of(v);
        const auto po_it = po_pads.find(v);
        if (fanouts.empty() && po_it == po_pads.end()) continue;
        PlacementNetlist::Net net;
        if (view.cell_of[v] != kNoCell) {
            net.cells.push_back(view.cell_of[v]);
        } else {
            net.pads.push_back(pi_pad.at(v));
        }
        for (const SubjectId f : fanouts) {
            if (view.cell_of[f] != kNoCell) net.cells.push_back(view.cell_of[f]);
        }
        if (po_it != po_pads.end()) {
            for (const std::size_t pad : po_it->second) net.pads.push_back(pad);
        }
        if (net.pin_count() >= 2) view.netlist.nets.push_back(std::move(net));
    }
    return view;
}

MappedPlacementView make_placement_view(const MappedNetlist& m, const Library& lib) {
    MappedPlacementView view;
    view.netlist.n_cells = m.gates.size();
    view.cell_of_instance.resize(m.gates.size());
    for (std::size_t i = 0; i < m.gates.size(); ++i) {
        view.cell_of_instance[i] = i;
        view.netlist.cell_area.push_back(lib.gate(m.gates[i].gate).area);
    }

    view.n_input_pads = m.subject_inputs.size();
    view.netlist.pad_positions.assign(m.subject_inputs.size() + m.outputs.size(), Point{});

    std::unordered_map<SubjectId, std::size_t> pi_pad;
    for (std::size_t i = 0; i < m.subject_inputs.size(); ++i) {
        pi_pad.emplace(m.subject_inputs[i], view.pad_of_input(i));
    }
    std::unordered_map<SubjectId, std::vector<std::size_t>> po_pads;
    for (std::size_t o = 0; o < m.outputs.size(); ++o) {
        po_pads[m.outputs[o].driver].push_back(view.pad_of_output(o));
    }
    // Sinks per driving signal.
    std::unordered_map<SubjectId, std::vector<std::size_t>> sinks;
    for (std::size_t i = 0; i < m.gates.size(); ++i) {
        for (const SubjectId in : m.gates[i].inputs) sinks[in].push_back(i);
    }

    // One net per driven signal (instance outputs and used inputs).
    auto emit_net = [&](SubjectId signal) {
        PlacementNetlist::Net net;
        const std::size_t driver_inst = m.instance_driving(signal);
        if (driver_inst != MappedNetlist::npos) {
            net.cells.push_back(driver_inst);
        } else {
            const auto it = pi_pad.find(signal);
            if (it == pi_pad.end()) return;  // undriven: adapter input invariant
            net.pads.push_back(it->second);
        }
        if (const auto it = sinks.find(signal); it != sinks.end()) {
            for (const std::size_t s : it->second) net.cells.push_back(s);
        }
        if (const auto it = po_pads.find(signal); it != po_pads.end()) {
            for (const std::size_t pad : it->second) net.pads.push_back(pad);
        }
        if (net.pin_count() >= 2) view.netlist.nets.push_back(std::move(net));
    };

    for (const GateInstance& inst : m.gates) emit_net(inst.driver);
    for (std::size_t i = 0; i < m.subject_inputs.size(); ++i) emit_net(m.subject_inputs[i]);
    return view;
}

Rect make_region(double total_cell_area, double utilization) {
    const double side = std::sqrt(std::max(total_cell_area, 1.0) / utilization);
    return Rect({-side / 2.0, -side / 2.0}, {side / 2.0, side / 2.0});
}

}  // namespace lily
