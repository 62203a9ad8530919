#include "subject/subject_graph.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

namespace lily {

SubjectId SubjectGraph::allocate(SubjectNode n) {
    const SubjectId id = static_cast<SubjectId>(nodes_.size());
    nodes_.push_back(std::move(n));
    po_driver_.push_back(false);
    version_.bump();  // adjacency changed: frozen topology views are stale
    return id;
}

const SubjectTopology& SubjectGraph::topology() const {
    if (topo_ == nullptr || topo_->built_from != version_.value()) {
        auto t = std::make_shared<SubjectTopology>();
        t->built_from = version_.value();
        const std::size_t n = nodes_.size();
        t->kind.resize(n);
        t->fanin0.resize(n);
        t->fanin1.resize(n);
        for (SubjectId v = 0; v < n; ++v) {
            t->kind[v] = nodes_[v].kind;
            t->fanin0[v] = nodes_[v].fanin0;
            t->fanin1[v] = nodes_[v].fanin1;
        }
        t->fanouts = Csr<SubjectId>::counted(
            n, [&](std::size_t v) { return nodes_[v].fanouts.size(); },
            [&](auto&& emit) {
                for (SubjectId v = 0; v < n; ++v) {
                    for (const SubjectId f : nodes_[v].fanouts) emit(v, f);
                }
            });
        topo_ = std::move(t);
    }
    return *topo_;
}

SubjectId SubjectGraph::add_input(std::string input_name, NodeId origin) {
    SubjectNode n;
    n.kind = SubjectKind::Input;
    n.origin = origin;
    const SubjectId id = allocate(std::move(n));
    if (!input_name.empty()) set_name(id, std::move(input_name));
    inputs_.push_back(id);
    return id;
}

SubjectId SubjectGraph::add_inv(SubjectId a) {
    if (a >= nodes_.size()) throw std::invalid_argument("SubjectGraph: bad fanin");
    // Optional: double inverters cancel structurally, INV(INV(x)) == x.
    if (cancel_inv_ && nodes_[a].kind == SubjectKind::Inv) return nodes_[a].fanin0;
    const Key key{SubjectKind::Inv, a, kNullSubject};
    if (const auto it = strash_.find(key); it != strash_.end()) return it->second;
    SubjectNode n;
    n.kind = SubjectKind::Inv;
    n.fanin0 = a;
    const SubjectId id = allocate(std::move(n));
    nodes_[a].fanouts.push_back(id);
    strash_.emplace(key, id);
    return id;
}

SubjectId SubjectGraph::add_nand(SubjectId a, SubjectId b) {
    if (a >= nodes_.size() || b >= nodes_.size()) {
        throw std::invalid_argument("SubjectGraph: bad fanin");
    }
    if (b < a) std::swap(a, b);  // normalize for hashing (NAND is symmetric)
    const Key key{SubjectKind::Nand2, a, b};
    if (const auto it = strash_.find(key); it != strash_.end()) return it->second;
    SubjectNode n;
    n.kind = SubjectKind::Nand2;
    n.fanin0 = a;
    n.fanin1 = b;
    const SubjectId id = allocate(std::move(n));
    nodes_[a].fanouts.push_back(id);
    if (b != a) {
        nodes_[b].fanouts.push_back(id);
    } else {
        nodes_[a].fanouts.push_back(id);  // NAND(a,a): two parallel lines
    }
    strash_.emplace(key, id);
    return id;
}

void SubjectGraph::add_output(std::string po_name, SubjectId driver) {
    if (driver >= nodes_.size()) throw std::invalid_argument("SubjectGraph: bad PO driver");
    outputs_.push_back({std::move(po_name), driver});
    po_driver_[driver] = true;
}

void SubjectGraph::retarget_output(std::size_t index, SubjectId driver) {
    if (index >= outputs_.size()) throw std::invalid_argument("SubjectGraph: bad PO index");
    if (driver >= nodes_.size()) throw std::invalid_argument("SubjectGraph: bad PO driver");
    const SubjectId old = outputs_[index].driver;
    outputs_[index].driver = driver;
    po_driver_[driver] = true;
    bool still = false;
    for (const SubjectOutput& po : outputs_) still |= (po.driver == old);
    po_driver_[old] = still;
}

void SubjectGraph::set_origin(SubjectId s, NodeId origin) { nodes_[s].origin = origin; }

void SubjectGraph::set_name(SubjectId s, std::string name) {
    if (s >= nodes_.size()) throw std::invalid_argument("SubjectGraph: set_name on bad node");
    names_[s] = std::move(name);
}

std::string SubjectGraph::name_of(SubjectId s) const {
    if (const auto it = names_.find(s); it != names_.end()) return it->second;
    return "s" + std::to_string(s);
}

std::size_t SubjectGraph::gate_count() const {
    return static_cast<std::size_t>(std::count_if(
        nodes_.begin(), nodes_.end(),
        [](const SubjectNode& n) { return n.kind != SubjectKind::Input; }));
}

std::size_t SubjectGraph::depth() const {
    std::vector<std::size_t> level(nodes_.size(), 0);
    std::size_t deepest = 0;
    for (SubjectId i = 0; i < nodes_.size(); ++i) {
        const SubjectNode& n = nodes_[i];
        if (n.kind == SubjectKind::Input) continue;
        std::size_t lv = level[n.fanin0];
        if (n.kind == SubjectKind::Nand2) lv = std::max(lv, level[n.fanin1]);
        level[i] = lv + 1;
        deepest = std::max(deepest, level[i]);
    }
    return deepest;
}

Network SubjectGraph::to_network() const {
    Network net(name_ + "_subject");
    std::vector<NodeId> map(nodes_.size(), kNullNode);
    for (SubjectId i = 0; i < nodes_.size(); ++i) {
        const SubjectNode& n = nodes_[i];
        switch (n.kind) {
            case SubjectKind::Input:
                map[i] = net.add_input(name_of(i));
                break;
            case SubjectKind::Inv:
                map[i] = net.add_node(name_of(i), {map[n.fanin0]}, Sop::inverter());
                break;
            case SubjectKind::Nand2:
                map[i] = net.add_node(name_of(i), {map[n.fanin0], map[n.fanin1]}, Sop::nand_n(2));
                break;
        }
    }
    for (const SubjectOutput& po : outputs_) net.add_output(po.name, map[po.driver]);
    return net;
}

namespace {

/// True when `name` has the form of an anonymous name ("s<digits>") other
/// than `id`'s own, so name_of() of two nodes could print alike.
bool aliases_anonymous_name(std::string_view name, SubjectId id) {
    if (name.size() < 2 || name[0] != 's' ||
        name.find_first_not_of("0123456789", 1) != std::string_view::npos) {
        return false;
    }
    SubjectId value = 0;
    const auto [end, ec] = std::from_chars(name.data() + 1, name.data() + name.size(), value);
    return ec != std::errc() || value != id || (name[1] == '0' && name.size() > 2);
}

}  // namespace

CheckReport SubjectGraph::check() const {
    CheckReport rep;
    constexpr CheckStage kStage = CheckStage::Subject;
    const std::size_t n = nodes_.size();

    // Names live in a side-table keyed by id (anonymous nodes print as
    // "s<id>"). Check the interned entries: no empty names, no duplicates,
    // no aliasing of a canonical anonymous name.
    std::unordered_map<std::string_view, SubjectId> owner;
    owner.reserve(names_.size());
    for (const auto& [id, nm] : names_) {
        if (id >= n) {
            rep.error(kStage, kNoCheckNode,
                      "interned name '" + nm + "' for out-of-range node " + std::to_string(id));
            continue;
        }
        if (nm.empty()) {
            rep.error(kStage, id, "subject node has an empty interned name");
            continue;
        }
        if (const auto [it, inserted] = owner.emplace(nm, id); !inserted) {
            rep.error(kStage, id,
                      "name '" + nm + "' already used by subject node " +
                          std::to_string(it->second));
        }
        if (aliases_anonymous_name(nm, id)) {
            rep.warning(kStage, id,
                        "interned name '" + nm + "' shadows another node's anonymous name");
        }
    }

    // Base functions only, topological fanin order, and each fanin edge
    // matched by as many fanout edges as the node reads the fanin
    // (NAND(a,a) records two parallel edges).
    std::size_t fanin_edges = 0;
    std::size_t fanout_edges = 0;
    std::size_t dangling = 0;
    SubjectId first_dangling = kNullSubject;
    for (SubjectId i = 0; i < n; ++i) {
        const SubjectNode& node = nodes_[i];
        fanout_edges += node.fanouts.size();
        // The kind enum makes other ops unrepresentable, but a corrupted
        // byte (or a future extension that forgets this invariant) must be
        // caught.
        switch (node.kind) {
            case SubjectKind::Input:
                if (node.fanin0 != kNullSubject || node.fanin1 != kNullSubject) {
                    rep.error(kStage, i, "input node has fanins");
                }
                break;
            case SubjectKind::Inv:
            case SubjectKind::Nand2:
                break;
            default:
                rep.error(kStage, i,
                          "node kind " + std::to_string(static_cast<unsigned>(node.kind)) +
                              " is not a base function (NAND2/INV/Input only)");
                continue;
        }
        for (unsigned k = 0; k < node.fanin_count(); ++k) {
            const SubjectId f = node.fanin(k);
            if (k == 1 && f == node.fanin0) continue;  // NAND(a,a): checked at slot 0
            if (f >= n) {
                rep.error(kStage, i, "fanin id " + std::to_string(f) + " out of range");
                continue;
            }
            if (f >= i) {
                rep.error(kStage, i,
                          "fanin " + std::to_string(f) +
                              " not earlier in topological order (cycle)");
                continue;
            }
            const std::size_t uses =
                node.kind == SubjectKind::Nand2 && node.fanin1 == node.fanin0 ? 2 : 1;
            const auto& fo = nodes_[f].fanouts;
            const auto edges = static_cast<std::size_t>(std::count(fo.begin(), fo.end(), i));
            fanin_edges += uses;
            if (edges == 0) {
                rep.error(kStage, i, "missing fanout edge from fanin " + std::to_string(f));
            } else if (edges != uses) {
                rep.error(kStage, i,
                          "fanin/fanout multiplicity mismatch with fanin " + std::to_string(f) +
                              ": read " + std::to_string(uses) + " time(s), " +
                              std::to_string(edges) + " fanout edge(s)");
            }
        }
        if (node.kind != SubjectKind::Input && node.fanouts.empty() && !po_driver_[i]) {
            if (dangling++ == 0) first_dangling = i;
        }
    }
    // One warning however many: the ECO path appends and never deletes, so
    // a maintained graph collects orphaned gates on every edit.
    if (dangling > 0) {
        rep.warning(kStage, first_dangling,
                    "dangling gate node: no fanouts and drives no output" +
                        (dangling > 1 ? " (" + std::to_string(dangling - 1) + " more like it)"
                                      : std::string()));
    }

    // Every fanin edge matched its fanout edges above, so equal totals
    // leave no unmatched fanout edge; otherwise find the strays.
    if (fanin_edges != fanout_edges || rep.has_errors()) {
        for (SubjectId i = 0; i < n; ++i) {
            for (const SubjectId fo : nodes_[i].fanouts) {
                if (fo >= n) {
                    rep.error(kStage, i, "fanout id " + std::to_string(fo) + " out of range");
                } else if (nodes_[fo].fanin0 != i &&
                           (nodes_[fo].kind != SubjectKind::Nand2 || nodes_[fo].fanin1 != i)) {
                    rep.error(kStage, i,
                              "fanout edge to node " + std::to_string(fo) +
                                  " which does not list the node as a fanin");
                }
            }
        }
    }

    std::unordered_set<std::string_view> po_names;
    po_names.reserve(outputs_.size());
    for (const SubjectOutput& po : outputs_) {
        if (!po_names.insert(po.name).second) {
            rep.warning(kStage, kNoCheckNode, "duplicate output name '" + po.name + "'");
        }
        if (po.driver >= n) {
            rep.error(kStage, kNoCheckNode,
                      "output '" + po.name + "' has dangling driver id " +
                          std::to_string(po.driver));
        } else if (!po_driver_[po.driver]) {
            rep.error(kStage, po.driver,
                      "drives output '" + po.name + "' but po_driver flag unset");
        }
    }
    return rep;
}

}  // namespace lily
