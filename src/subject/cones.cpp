#include "subject/cones.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace lily {

std::vector<Cone> logic_cones(const SubjectGraph& g) {
    std::vector<Cone> cones;
    std::vector<bool> seen_root(g.size(), false);
    for (const SubjectOutput& po : g.outputs()) {
        if (seen_root[po.driver]) continue;  // outputs sharing a driver share a cone
        seen_root[po.driver] = true;
        cones.push_back({po.name, po.driver});
    }
    return cones;
}

Csr<SubjectId> cone_schedule(const SubjectGraph& g, const std::vector<Cone>& cones,
                             const std::vector<std::size_t>& order,
                             const std::vector<bool>& done) {
    constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
    const SubjectTopology& t = g.topology();
    // first[v]: the earliest position whose cone holds v. A root holds
    // itself; any other node is in a cone iff one of its fanouts is.
    std::vector<std::uint32_t> first(g.size(), kNone);
    for (std::size_t k = 0; k < order.size(); ++k) {
        first[cones[order[k]].root] = static_cast<std::uint32_t>(k);
    }
    for (SubjectId v = static_cast<SubjectId>(g.size()); v-- > 0;) {
        for (const SubjectId f : t.fanouts_of(v)) first[v] = std::min(first[v], first[f]);
    }
    const auto scheduled = [&](SubjectId v) {
        return first[v] != kNone && t.kind[v] != SubjectKind::Input &&
               (done.empty() || !done[v]);
    };
    // Counting sort by first position; emission in id order keeps each
    // bucket in id order.
    std::vector<std::uint32_t> count(order.size(), 0);
    for (SubjectId v = 0; v < g.size(); ++v) {
        if (scheduled(v)) ++count[first[v]];
    }
    return Csr<SubjectId>::counted(
        order.size(), [&](std::size_t k) { return count[k]; },
        [&](auto&& emit) {
            for (SubjectId v = 0; v < g.size(); ++v) {
                if (scheduled(v)) emit(first[v], v);
            }
        });
}

std::vector<std::vector<unsigned>> exit_line_matrix(const SubjectGraph& g,
                                                    const std::vector<Cone>& cones) {
    const std::size_t nc = cones.size();
    const SubjectTopology& t = g.topology();
    // Cone membership as per-node bitsets over cones (nc is small: one per
    // PO), OR-ed up from the roots in one reverse-id pass.
    const std::size_t words = (nc + 63) / 64;
    std::vector<std::uint64_t> member(g.size() * words, 0);
    for (std::size_t i = 0; i < nc; ++i) {
        member[cones[i].root * words + i / 64] |= std::uint64_t{1} << (i % 64);
    }
    for (SubjectId v = static_cast<SubjectId>(g.size()); v-- > 0;) {
        for (const SubjectId f : t.fanouts_of(v)) {
            for (std::size_t w = 0; w < words; ++w) member[v * words + w] |= member[f * words + w];
        }
    }

    // Line u -> v exits cone i into cone j iff u is in i, v is not, and v is
    // in j (so j != i): walk the set bits of both masks.
    std::vector<std::vector<unsigned>> m(nc, std::vector<unsigned>(nc, 0));
    for (SubjectId u = 0; u < g.size(); ++u) {
        for (const SubjectId v : t.fanouts_of(u)) {
            const std::uint64_t* into = &member[v * words];
            for (std::size_t wi = 0; wi < words; ++wi) {
                for (std::uint64_t exits = member[u * words + wi] & ~into[wi]; exits != 0;
                     exits &= exits - 1) {
                    std::vector<unsigned>& row = m[wi * 64 + std::countr_zero(exits)];
                    for (std::size_t wj = 0; wj < words; ++wj) {
                        for (std::uint64_t js = into[wj]; js != 0; js &= js - 1) {
                            ++row[wj * 64 + std::countr_zero(js)];
                        }
                    }
                }
            }
        }
    }
    return m;
}

namespace {

std::vector<std::size_t> greedy_min_row_sum(const std::vector<std::vector<unsigned>>& m) {
    const std::size_t nc = m.size();
    // Row sums over the cones not yet emitted, kept up to date as each cone
    // is emitted: O(nc^2) in all.
    std::vector<std::uint64_t> row_sum(nc, 0);
    for (std::size_t i = 0; i < nc; ++i) {
        for (std::size_t j = 0; j < nc; ++j) row_sum[i] += m[i][j];
    }
    std::vector<bool> done(nc, false);
    std::vector<std::size_t> order;
    order.reserve(nc);
    for (std::size_t step = 0; step < nc; ++step) {
        std::size_t best = nc;
        std::uint64_t best_sum = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < nc; ++i) {
            if (!done[i] && row_sum[i] < best_sum) {
                best_sum = row_sum[i];
                best = i;
            }
        }
        done[best] = true;
        order.push_back(best);
        for (std::size_t i = 0; i < nc; ++i) row_sum[i] -= m[i][best];
    }
    return order;
}

/// Adjacent-swap hill climbing: swapping neighbours a,b changes the cost by
/// E[b][a] - E[a][b], so swap while E[a][b] > E[b][a]. Each swap strictly
/// lowers the (integer) cost, so this terminates.
void improve_by_adjacent_swaps(const std::vector<std::vector<unsigned>>& m,
                               std::vector<std::size_t>& order) {
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t k = 0; k + 1 < order.size(); ++k) {
            const std::size_t a = order[k];
            const std::size_t b = order[k + 1];
            if (m[a][b] > m[b][a]) {
                std::swap(order[k], order[k + 1]);
                changed = true;
            }
        }
    }
}

}  // namespace

std::vector<std::size_t> order_cones(const SubjectGraph& g, const std::vector<Cone>& cones) {
    // The paper's greedy min-row-sum pass is a heuristic (its optimality
    // claim does not hold in general); we additionally compare against the
    // identity ordering and polish with adjacent swaps, so the result is
    // never worse than processing cones in declaration order.
    const auto m = exit_line_matrix(g, cones);
    std::vector<std::size_t> greedy = greedy_min_row_sum(m);
    std::vector<std::size_t> identity(cones.size());
    for (std::size_t i = 0; i < cones.size(); ++i) identity[i] = i;
    std::vector<std::size_t> order =
        ordering_cost(m, greedy) <= ordering_cost(m, identity) ? std::move(greedy)
                                                               : std::move(identity);
    improve_by_adjacent_swaps(m, order);
    return order;
}

std::size_t ordering_cost(const std::vector<std::vector<unsigned>>& matrix,
                          const std::vector<std::size_t>& order) {
    std::size_t cost = 0;
    for (std::size_t a = 0; a < order.size(); ++a) {
        for (std::size_t b = a + 1; b < order.size(); ++b) {
            cost += matrix[order[a]][order[b]];
        }
    }
    return cost;
}

TreePartition partition_trees(const SubjectGraph& g) {
    TreePartition part;
    part.tree_of.assign(g.size(), TreePartition::npos);

    const SubjectTopology& t = g.topology();
    const auto is_root = [&](SubjectId v) {
        if (t.kind[v] == SubjectKind::Input) return false;
        return g.drives_output(v) || t.fanouts_of(v).size() != 1;
    };

    // Assign each gate node to the tree of its unique fanout chain root.
    // Process in reverse topological order so the root is known first.
    std::vector<std::size_t> root_tree(g.size(), TreePartition::npos);
    for (SubjectId v = static_cast<SubjectId>(g.size()); v-- > 0;) {
        if (t.kind[v] == SubjectKind::Input) continue;
        if (is_root(v)) {
            root_tree[v] = part.trees.size();
            part.trees.emplace_back();
            part.tree_of[v] = root_tree[v];
        } else {
            part.tree_of[v] = part.tree_of[t.fanouts_of(v)[0]];
        }
    }
    // Collect members in topological (id) order, root last within each tree.
    for (SubjectId v = 0; v < g.size(); ++v) {
        if (part.tree_of[v] != TreePartition::npos) part.trees[part.tree_of[v]].push_back(v);
    }
    return part;
}

}  // namespace lily
