#include "sta/gate_sizing.hpp"

#include <algorithm>
#include <map>

namespace lily {

namespace {

/// Gates grouped by (input count, function): the legal swap sets.
std::map<std::pair<unsigned, std::string>, std::vector<GateId>> variant_groups(
    const Library& lib) {
    std::map<std::pair<unsigned, std::string>, std::vector<GateId>> groups;
    for (GateId g = 0; g < lib.size(); ++g) {
        groups[{lib.gate(g).n_inputs(), lib.gate(g).function.to_hex()}].push_back(g);
    }
    return groups;
}

/// Worst-case stage delay of `gate` driving `load`.
double stage_delay(const Gate& gate, double load) {
    double worst = 0.0;
    for (const PinTiming& pin : gate.pins) {
        worst = std::max(worst, pin.worst_block() + pin.worst_fanout() * load);
    }
    return worst;
}

}  // namespace

SizingResult size_gates(MappedNetlist& m, const Library& lib, const MappedPlacementView& view,
                        std::span<const Point> positions, const SizingOptions& opts) {
    SizingResult result;
    const auto groups = variant_groups(lib);

    TimingReport rep = analyze_timing(m, lib, view, positions, opts.timing);
    result.delay_before = rep.critical_delay;
    result.delay_after = rep.critical_delay;

    for (std::size_t pass = 0; pass < opts.max_passes; ++pass) {
        // Snapshot so a pass that hurts the global critical path (local
        // stage gains are not globally monotone) can be undone.
        std::vector<GateId> before(m.gates.size());
        for (std::size_t i = 0; i < m.gates.size(); ++i) before[i] = m.gates[i].gate;
        std::size_t pass_swaps = 0;
        bool changed = false;
        for (std::size_t i = 0; i < m.gates.size(); ++i) {
            const Gate& cur = lib.gate(m.gates[i].gate);
            const auto it = groups.find({cur.n_inputs(), cur.function.to_hex()});
            if (it == groups.end() || it->second.size() < 2) continue;
            const double load = rep.load[i];
            GateId best = m.gates[i].gate;
            double best_delay = stage_delay(cur, load);
            for (const GateId cand : it->second) {
                if (cand == m.gates[i].gate) continue;
                const double d = stage_delay(lib.gate(cand), load);
                // Accept strictly better delay; on a tie, the smaller cell.
                if (d < best_delay * (1.0 - opts.min_gain) ||
                    (d <= best_delay && lib.gate(cand).area < lib.gate(best).area)) {
                    best = cand;
                    best_delay = d;
                }
            }
            if (best != m.gates[i].gate) {
                m.gates[i].gate = best;
                ++pass_swaps;
                changed = true;
            }
        }
        if (!changed) break;
        const TimingReport after = analyze_timing(m, lib, view, positions, opts.timing);
        if (after.critical_delay > result.delay_after + 1e-12) {
            // Revert the pass and stop: the fixpoint went the wrong way.
            for (std::size_t i = 0; i < m.gates.size(); ++i) m.gates[i].gate = before[i];
            break;
        }
        rep = after;
        result.delay_after = after.critical_delay;
        result.swaps += pass_swaps;
    }
    m.check(lib).throw_if_errors("size_gates");
    return result;
}

}  // namespace lily
