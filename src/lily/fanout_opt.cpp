#include "lily/fanout_opt.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace lily {

namespace {

/// Strongest (lowest drive resistance) 1-input identity gate; ties go to
/// the smaller cell. kNullGate when the library has no buffer.
GateId find_buffer(const Library& lib) {
    const TruthTable ident = TruthTable::variable(0, 1);
    GateId best = kNullGate;
    for (GateId g = 0; g < lib.size(); ++g) {
        const Gate& cand = lib.gate(g);
        if (cand.n_inputs() != 1 || cand.function != ident) continue;
        if (best == kNullGate) {
            best = g;
            continue;
        }
        const Gate& cur = lib.gate(best);
        const double cand_drive = cand.pin(0).worst_fanout();
        const double cur_drive = cur.pin(0).worst_fanout();
        if (cand_drive < cur_drive || (cand_drive == cur_drive && cand.area < cur.area)) {
            best = g;
        }
    }
    return best;
}

struct Sink {
    std::size_t gate;
    std::size_t pin;
    Point pos;
};

}  // namespace

FanoutOptResult optimize_fanout(MappedNetlist& m, const Library& lib,
                                std::vector<Point>* positions, const FanoutOptOptions& opts) {
    if (opts.max_fanout < 2) {
        throw std::invalid_argument("optimize_fanout: max_fanout must be at least 2");
    }
    if (positions != nullptr && positions->size() != m.gates.size()) {
        throw std::invalid_argument("optimize_fanout: positions/gates size mismatch");
    }
    const std::size_t group_size =
        opts.sinks_per_buffer > 0 ? opts.sinks_per_buffer : opts.max_fanout;

    const GateId buffer = find_buffer(lib);
    const GateId inverter = lib.inverter();
    if (buffer == kNullGate && inverter == kNullGate) {
        throw std::invalid_argument("optimize_fanout: library has neither buffer nor inverter");
    }

    // Fresh signal ids, disjoint from everything the netlist references.
    SubjectId next_id = 0;
    for (const SubjectId s : m.subject_inputs) next_id = std::max(next_id, s + 1);
    for (const GateInstance& g : m.gates) {
        next_id = std::max(next_id, g.driver + 1);
        for (const SubjectId in : g.inputs) next_id = std::max(next_id, in + 1);
    }

    FanoutOptResult result;
    bool changed = true;
    while (changed) {
        changed = false;
        // Sinks per signal (gate input pins only; primary outputs stay put).
        std::unordered_map<SubjectId, std::vector<Sink>> sinks;
        for (std::size_t i = 0; i < m.gates.size(); ++i) {
            for (std::size_t k = 0; k < m.gates[i].inputs.size(); ++k) {
                const Point p = positions != nullptr ? (*positions)[i] : Point{};
                sinks[m.gates[i].inputs[k]].push_back({i, k, p});
            }
        }

        // Deterministic processing order: instance drivers, then PIs.
        std::vector<SubjectId> order;
        for (const GateInstance& g : m.gates) order.push_back(g.driver);
        for (const SubjectId s : m.subject_inputs) order.push_back(s);

        for (const SubjectId signal : order) {
            const auto it = sinks.find(signal);
            if (it == sinks.end() || it->second.size() <= opts.max_fanout) continue;

            std::vector<Sink> list = it->second;
            const std::size_t driver_idx = m.instance_driving(signal);
            const Point driver_pos = (positions != nullptr && driver_idx != MappedNetlist::npos)
                                         ? (*positions)[driver_idx]
                                         : Point{};

            // Sinks nearest the driver stay directly connected (a proxy for
            // criticality: the farther sinks gain most from relief buffers
            // and lose least to the extra stage); the overflow is buffered.
            std::sort(list.begin(), list.end(), [&](const Sink& a, const Sink& b) {
                const double da = manhattan(a.pos, driver_pos);
                const double db = manhattan(b.pos, driver_pos);
                if (da != db) return da < db;
                return a.gate != b.gate ? a.gate < b.gate : a.pin < b.pin;
            });
            // Smallest buffer count B with (max_fanout - B) direct slots and
            // B groups of `group_size` covering everything.
            std::size_t n_buffers = 1;
            while (n_buffers < opts.max_fanout &&
                   (opts.max_fanout - n_buffers) + n_buffers * group_size < list.size()) {
                ++n_buffers;
            }
            const std::size_t direct =
                std::min(list.size(),
                         (opts.max_fanout > n_buffers) ? opts.max_fanout - n_buffers : 0);

            // Spatially chunk the buffered overflow.
            std::sort(list.begin() + static_cast<std::ptrdiff_t>(direct), list.end(),
                      [](const Sink& a, const Sink& b) {
                          if (a.pos.x != b.pos.x) return a.pos.x < b.pos.x;
                          if (a.pos.y != b.pos.y) return a.pos.y < b.pos.y;
                          return a.gate != b.gate ? a.gate < b.gate : a.pin < b.pin;
                      });

            // Insert buffers right after the driver (or at the front when a
            // primary input drives the net).
            std::size_t insert_at = driver_idx == MappedNetlist::npos ? 0 : driver_idx + 1;

            ++result.nets_split;
            for (std::size_t start = direct; start < list.size(); start += group_size) {
                const std::size_t end = std::min(start + group_size, list.size());
                std::vector<Point> pts;
                for (std::size_t s = start; s < end; ++s) pts.push_back(list[s].pos);
                const Point at = center_of_mass(pts);

                SubjectId new_signal;
                std::size_t inserted = 0;
                if (buffer != kNullGate) {
                    GateInstance buf;
                    buf.gate = buffer;
                    buf.driver = new_signal = next_id++;
                    buf.inputs = {signal};
                    m.gates.insert(m.gates.begin() + static_cast<std::ptrdiff_t>(insert_at),
                                   std::move(buf));
                    if (positions != nullptr) {
                        positions->insert(
                            positions->begin() + static_cast<std::ptrdiff_t>(insert_at), at);
                    }
                    inserted = 1;
                } else {
                    // Double inverter.
                    GateInstance inv1;
                    inv1.gate = inverter;
                    inv1.driver = next_id++;
                    inv1.inputs = {signal};
                    GateInstance inv2;
                    inv2.gate = inverter;
                    inv2.driver = new_signal = next_id++;
                    inv2.inputs = {inv1.driver};
                    m.gates.insert(m.gates.begin() + static_cast<std::ptrdiff_t>(insert_at),
                                   std::move(inv1));
                    m.gates.insert(m.gates.begin() + static_cast<std::ptrdiff_t>(insert_at) + 1,
                                   std::move(inv2));
                    if (positions != nullptr) {
                        positions->insert(
                            positions->begin() + static_cast<std::ptrdiff_t>(insert_at), 2, at);
                    }
                    inserted = 2;
                }
                result.buffers_added += inserted;
                m.bump_version();  // instance indices shifted: invalidate driver index

                // Rewire the group's sinks (indices shifted by insertions).
                for (std::size_t s = start; s < end; ++s) {
                    std::size_t gi = list[s].gate;
                    if (gi >= insert_at) gi += inserted;
                    m.gates[gi].inputs[list[s].pin] = new_signal;
                    // Keep later groups' recorded indices consistent.
                    list[s].gate = gi;
                }
                for (std::size_t s = end; s < list.size(); ++s) {
                    if (list[s].gate >= insert_at) list[s].gate += inserted;
                }
                insert_at += inserted;
            }
            changed = true;
            break;  // sink map is stale; rebuild and continue
        }
    }
    m.check(lib).throw_if_errors("optimize_fanout");
    return result;
}

}  // namespace lily
