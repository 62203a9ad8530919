#include "subject/decompose.hpp"

#include <bit>
#include <deque>
#include <stdexcept>

namespace lily {

namespace {

/// A partially built signal: its subject node plus a representative
/// position for proximity-driven pairing.
struct Operand {
    SubjectId id;
    Point pos;
};

class TreeBuilder {
public:
    TreeBuilder(SubjectGraph& g, TreeShape shape) : g_(g), shape_(shape) {}

    /// AND of the operands, as INV(NAND tree). Single operand passes through.
    Operand build_and(std::vector<Operand> ops) {
        return combine(std::move(ops), [this](const Operand& a, const Operand& b) {
            return Operand{g_.add_inv(g_.add_nand(a.id, b.id)), midpoint(a, b)};
        });
    }

    /// OR of the operands via De Morgan: OR(a,b) = NAND(!a, !b).
    Operand build_or(std::vector<Operand> ops) {
        return combine(std::move(ops), [this](const Operand& a, const Operand& b) {
            return Operand{g_.add_nand(g_.add_inv(a.id), g_.add_inv(b.id)), midpoint(a, b)};
        });
    }

private:
    static Point midpoint(const Operand& a, const Operand& b) {
        return {(a.pos.x + b.pos.x) / 2.0, (a.pos.y + b.pos.y) / 2.0};
    }

    template <typename Join>
    Operand combine(std::vector<Operand> ops, Join&& join) {
        if (ops.empty()) throw std::logic_error("TreeBuilder: empty operand list");
        switch (shape_) {
            case TreeShape::LeftDeep: {
                Operand acc = ops[0];
                for (std::size_t i = 1; i < ops.size(); ++i) acc = join(acc, ops[i]);
                return acc;
            }
            case TreeShape::Proximity:
                // Greedy nearest-pair agglomeration keeps spatially close
                // signals topologically close. Quadratic search is fine for
                // node fanins; very wide lists degrade to Balanced.
                if (ops.size() <= 64) {
                    std::vector<Operand> work = std::move(ops);
                    while (work.size() > 1) {
                        std::size_t bi = 0, bj = 1;
                        double best = std::numeric_limits<double>::max();
                        for (std::size_t i = 0; i < work.size(); ++i) {
                            for (std::size_t j = i + 1; j < work.size(); ++j) {
                                const double d = manhattan(work[i].pos, work[j].pos);
                                if (d < best) {
                                    best = d;
                                    bi = i;
                                    bj = j;
                                }
                            }
                        }
                        Operand merged = join(work[bi], work[bj]);
                        work.erase(work.begin() + static_cast<std::ptrdiff_t>(bj));
                        work[bi] = merged;
                    }
                    return work[0];
                }
                [[fallthrough]];
            case TreeShape::Balanced: {
                // Queue pairing: level-by-level combination, minimum depth.
                std::deque<Operand> q(ops.begin(), ops.end());
                while (q.size() > 1) {
                    const Operand a = q.front();
                    q.pop_front();
                    const Operand b = q.front();
                    q.pop_front();
                    q.push_back(join(a, b));
                }
                return q.front();
            }
        }
        throw std::logic_error("TreeBuilder: unreachable");
    }

    SubjectGraph& g_;
    TreeShape shape_;
};

/// Decompose one logic node's SOP over the current signal_of table and
/// record its root signal. Shared by the batch and incremental paths so
/// both derive byte-for-byte the same structure for the same inputs.
void decompose_logic_node(const Network& net, NodeId id, SubjectGraph& g,
                          TreeBuilder& builder, std::vector<SubjectId>& signal_of,
                          const DecomposeOptions& opts) {
    const Node& n = net.node(id);
    if (n.function.is_constant()) {
        throw std::invalid_argument("decompose: node '" + n.name +
                                    "' is constant; propagate constants first");
    }
    const auto pos_of = [&](NodeId v) -> Point {
        if (v < opts.source_positions.size()) return opts.source_positions[v];
        return {static_cast<double>(v), 0.0};  // deterministic fallback
    };

    // Each cube: AND of literals. Literal = fanin signal or its INV.
    std::vector<Operand> cube_ops;
    cube_ops.reserve(n.function.cubes.size());
    for (const Cube& c : n.function.cubes) {
        std::vector<Operand> lits;
        std::uint64_t care = c.care;
        while (care != 0) {
            const unsigned i = static_cast<unsigned>(std::countr_zero(care));
            care &= care - 1;
            const NodeId fan = n.fanins[i];
            SubjectId sig = signal_of[fan];
            if (!((c.polarity >> i) & 1)) sig = g.add_inv(sig);
            lits.push_back({sig, pos_of(fan)});
        }
        cube_ops.push_back(builder.build_and(std::move(lits)));
    }
    Operand root = builder.build_or(std::move(cube_ops));
    if (n.function.complement) root = {g.add_inv(root.id), root.pos};
    signal_of[id] = root.id;
    if (g.node(root.id).origin == kNullNode) g.set_origin(root.id, id);
}

TreeShape effective_shape(const DecomposeOptions& opts) {
    return (opts.shape == TreeShape::Proximity && opts.source_positions.empty())
               ? TreeShape::Balanced
               : opts.shape;
}

}  // namespace

DecomposeResult decompose(const Network& net, const DecomposeOptions& opts) {
    DecomposeResult out{SubjectGraph(net.name(), opts.cancel_inverter_pairs),
                        std::vector<SubjectId>(net.node_count(), kNullSubject)};
    SubjectGraph& g = out.graph;
    TreeBuilder builder(g, effective_shape(opts));

    for (NodeId id = 0; id < net.node_count(); ++id) {
        const Node& n = net.node(id);
        if (n.dead) continue;
        if (n.kind == NodeKind::PrimaryInput) {
            out.signal_of[id] = g.add_input(n.name, id);
            continue;
        }
        decompose_logic_node(net, id, g, builder, out.signal_of, opts);
    }

    for (const PrimaryOutput& po : net.outputs()) {
        g.add_output(po.name, out.signal_of[po.driver]);
    }
    g.check().throw_if_errors("decompose");
    return out;
}

IncrementalDecomposeStats decompose_incremental(const Network& net,
                                                std::span<const NodeId> touched,
                                                DecomposeResult& inout,
                                                const DecomposeOptions& opts) {
    SubjectGraph& g = inout.graph;
    IncrementalDecomposeStats stats;
    stats.nodes_before = g.size();

    const std::size_t n = net.node_count();
    const std::size_t known = inout.signal_of.size();
    inout.signal_of.resize(n, kNullSubject);

    std::vector<bool> dirty(n, false);
    for (NodeId id : touched) {
        if (id < n) dirty[id] = true;
    }
    for (NodeId id = static_cast<NodeId>(known); id < n; ++id) dirty[id] = true;

    // One ascending pass: a node is re-derived when it was edited directly
    // or any fanin's signal changed. Structural hashing means an unchanged
    // re-derivation lands on the same subject node, so `changed` — and with
    // it the propagation — dies out at the edit's logical boundary.
    std::vector<bool> changed(n, false);
    TreeBuilder builder(g, effective_shape(opts));
    for (NodeId id = 0; id < n; ++id) {
        const Node& node = net.node(id);
        if (node.kind == NodeKind::PrimaryInput) continue;  // PIs never change
        if (!dirty[id]) {
            for (NodeId f : node.fanins) {
                if (changed[f]) {
                    dirty[id] = true;
                    break;
                }
            }
            if (!dirty[id]) continue;
        }
        const SubjectId old = inout.signal_of[id];
        if (node.dead) {
            inout.signal_of[id] = kNullSubject;
            continue;  // fanout-free by apply_delta's contract: nothing downstream
        }
        ++stats.dirty_sources;
        decompose_logic_node(net, id, g, builder, inout.signal_of, opts);
        if (inout.signal_of[id] != old) {
            changed[id] = true;
            stats.changed_signals.push_back(id);
        }
    }

    // Re-point primary outputs (PO count and names are delta-invariant).
    for (std::size_t k = 0; k < net.outputs().size(); ++k) {
        const SubjectId want = inout.signal_of[net.outputs()[k].driver];
        if (g.outputs()[k].driver != want) g.retarget_output(k, want);
    }
    g.check().throw_if_errors("decompose_incremental");
    stats.nodes_after = g.size();
    return stats;
}

}  // namespace lily
