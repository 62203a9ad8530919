#include "check/mapped_checker.hpp"

#include <algorithm>
#include <cmath>

#include "netlist/simulate.hpp"

namespace lily {

CheckReport MappedChecker::check_against(const MappedNetlist& m, const Network& reference) const {
    CheckReport rep;
    if (m.subject_inputs.size() != reference.inputs().size() ||
        m.outputs.size() != reference.outputs().size()) {
        rep.error(CheckStage::Mapped, kNoCheckNode,
                  "PI/PO interface mismatch with reference network: " +
                      std::to_string(m.subject_inputs.size()) + "/" +
                      std::to_string(m.outputs.size()) + " vs " +
                      std::to_string(reference.inputs().size()) + "/" +
                      std::to_string(reference.outputs().size()));
        return rep;
    }
    const StatusOr<bool> equivalent = equivalent_random_checked(
        reference, m.to_network(*lib_), opts_.sim_blocks, opts_.sim_seed);
    if (!equivalent.is_ok()) {
        rep.error(CheckStage::Mapped, kNoCheckNode,
                  "PI/PO interface mismatch with reference network: " +
                      equivalent.status().message());
    } else if (!equivalent.value()) {
        rep.error(CheckStage::Mapped, kNoCheckNode,
                  "mapped netlist not equivalent to the reference network "
                  "(random simulation, " +
                      std::to_string(opts_.sim_blocks * 64) + " vectors)");
    }
    return rep;
}

CheckReport MappedChecker::check_timing(const MappedNetlist& m,
                                        const TimingReport& timing) const {
    CheckReport rep;
    const CheckStage stage = CheckStage::Mapped;
    if (timing.arrival.size() != m.gates.size() || timing.load.size() != m.gates.size()) {
        rep.error(stage, kNoCheckNode,
                  "timing report covers " + std::to_string(timing.arrival.size()) +
                      " arrivals / " + std::to_string(timing.load.size()) + " loads for " +
                      std::to_string(m.gates.size()) + " instances");
        return rep;
    }

    // Pin capacitance each instance output must drive at minimum (wiring
    // and pad capacitance only add on top).
    std::vector<double> pin_load(m.gates.size(), 0.0);
    for (const GateInstance& inst : m.gates) {
        if (inst.gate >= lib_->size()) continue;  // structural break; m.check() reports it
        const Gate& gate = lib_->gate(inst.gate);
        for (std::size_t p = 0; p < inst.inputs.size() && p < gate.pins.size(); ++p) {
            const std::size_t src = m.instance_driving(inst.inputs[p]);
            if (src != MappedNetlist::npos) pin_load[src] += gate.pin(p).input_load;
        }
    }

    const double eps = 1e-9;
    for (std::size_t i = 0; i < m.gates.size(); ++i) {
        const RiseFall& a = timing.arrival[i];
        if (!std::isfinite(a.rise) || !std::isfinite(a.fall)) {
            rep.error(stage, i, "arrival time is not finite");
            continue;
        }
        if (a.rise < -eps || a.fall < -eps) {
            rep.error(stage, i,
                      "negative arrival time (rise " + std::to_string(a.rise) + ", fall " +
                          std::to_string(a.fall) + ")");
        }
        if (!std::isfinite(timing.load[i]) || timing.load[i] < -eps) {
            rep.error(stage, i, "load " + std::to_string(timing.load[i]) +
                                    " is negative or non-finite");
        } else if (timing.load[i] + eps < pin_load[i]) {
            rep.error(stage, i,
                      "load " + std::to_string(timing.load[i]) +
                          " below the connected pin capacitance " +
                          std::to_string(pin_load[i]) + " (wire load must be non-negative)");
        }
        // Monotonicity: with non-negative block and load-slope delays, a
        // gate's output cannot arrive before any of its driving inputs'
        // earliest transition.
        const GateInstance& inst = m.gates[i];
        for (const SubjectId in : inst.inputs) {
            const std::size_t src = m.instance_driving(in);
            if (src == MappedNetlist::npos) continue;  // subject input: arrives at t=0
            const RiseFall& s = timing.arrival[src];
            const double earliest = std::min(s.rise, s.fall);
            if (a.worst() + eps < earliest) {
                rep.error(stage, i,
                          "arrival " + std::to_string(a.worst()) +
                              " earlier than driving instance " + std::to_string(src) +
                              " arrival " + std::to_string(earliest) +
                              " (arrival-time monotonicity violated)");
            }
        }
    }
    if (!std::isfinite(timing.critical_delay) || timing.critical_delay < -eps) {
        rep.error(stage, kNoCheckNode,
                  "critical delay " + std::to_string(timing.critical_delay) +
                      " is negative or non-finite");
    }
    return rep;
}

bool inject_wrong_cover(MappedNetlist& mapped, const Library& lib) {
    for (GateInstance& inst : mapped.gates) {
        const Gate& current = lib.gate(inst.gate);
        for (GateId g = 0; g < lib.size(); ++g) {
            const Gate& candidate = lib.gate(g);
            if (g != inst.gate && candidate.n_inputs() == current.n_inputs() &&
                !(candidate.function == current.function)) {
                inst.gate = g;
                return true;
            }
        }
    }
    return false;
}

}  // namespace lily
