#include "opt/optimize.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <stdexcept>

#include "opt/sop_algebra.hpp"

namespace lily {

namespace {

using alg::ACube;
using alg::ASop;
using alg::Lit;

/// Mutable whole-network SOP view: definition `v` computes
/// (complement ? !OR(sop) : OR(sop)) where literal variables are def ids.
struct Def {
    bool is_input = false;
    std::string name;
    ASop sop;  // over def ids
    bool complement = false;
    bool is_constant = false;
    bool constant_value = false;
};

struct DefNetwork {
    std::string name;
    std::vector<Def> defs;
    std::vector<std::pair<std::string, std::uint32_t>> outputs;
    std::uint64_t next_fresh = 0;

    std::uint32_t add_def(Def d) {
        defs.push_back(std::move(d));
        return static_cast<std::uint32_t>(defs.size() - 1);
    }
    std::string fresh_name(const char* prefix) {
        return std::string(prefix) + std::to_string(next_fresh++);
    }
    std::size_t literal_count() const {
        std::size_t n = 0;
        for (const Def& d : defs) {
            if (!d.is_input) n += alg::literal_count(d.sop);
        }
        return n;
    }
};

DefNetwork from_network(const Network& net) {
    DefNetwork dn;
    dn.name = net.name();
    dn.defs.resize(net.node_count());
    for (NodeId id = 0; id < net.node_count(); ++id) {
        const Node& n = net.node(id);
        Def& d = dn.defs[id];
        d.name = n.name;
        if (n.kind == NodeKind::PrimaryInput) {
            d.is_input = true;
            continue;
        }
        d.complement = n.function.complement;
        if (n.function.cubes.empty() ||
            (n.function.cubes.size() == 1 && n.function.cubes[0].care == 0)) {
            d.is_constant = true;
            d.constant_value = n.function.constant_value();
            continue;
        }
        for (const Cube& c : n.function.cubes) {
            ACube ac;
            std::uint64_t care = c.care;
            while (care != 0) {
                const unsigned i = static_cast<unsigned>(std::countr_zero(care));
                care &= care - 1;
                ac.push_back(alg::make_lit(n.fanins[i], !((c.polarity >> i) & 1)));
            }
            d.sop.push_back(std::move(ac));
        }
        d.sop = alg::normalized(std::move(d.sop));
    }
    for (const PrimaryOutput& po : net.outputs()) dn.outputs.emplace_back(po.name, po.driver);
    return dn;
}

Network to_network(const DefNetwork& dn) {
    // Dependency topological sort (extraction appends defs that earlier
    // defs reference).
    const std::size_t n = dn.defs.size();
    std::vector<int> state(n, 0);
    std::vector<std::uint32_t> order;
    order.reserve(n);
    std::vector<std::pair<std::uint32_t, std::size_t>> stack;
    for (std::uint32_t root = 0; root < n; ++root) {
        if (state[root] == 2) continue;
        stack.push_back({root, 0});
        state[root] = 1;
        while (!stack.empty()) {
            auto& [v, cursor] = stack.back();
            // Flatten the literal list lazily: iterate (cube, lit) pairs.
            bool descended = false;
            std::size_t seen = 0;
            for (const ACube& c : dn.defs[v].sop) {
                for (const Lit l : c) {
                    if (seen++ < cursor) continue;
                    ++cursor;
                    const std::uint32_t dep = alg::lit_var(l);
                    if (state[dep] == 1) {
                        throw std::logic_error("optimize: cyclic substitution");
                    }
                    if (state[dep] == 0) {
                        state[dep] = 1;
                        stack.push_back({dep, 0});
                        descended = true;
                        break;
                    }
                }
                if (descended) break;
            }
            if (!descended) {
                state[v] = 2;
                order.push_back(v);
                stack.pop_back();
            }
        }
    }

    Network net(dn.name);
    std::vector<NodeId> node_of(n, kNullNode);
    for (const std::uint32_t v : order) {
        const Def& d = dn.defs[v];
        if (d.is_input) {
            node_of[v] = net.add_input(d.name);
            continue;
        }
        if (d.is_constant) {
            node_of[v] = net.add_node(d.name, {}, Sop::constant(d.constant_value));
            continue;
        }
        // Collect distinct fanins.
        std::vector<std::uint32_t> vars;
        for (const ACube& c : d.sop) {
            for (const Lit l : c) vars.push_back(alg::lit_var(l));
        }
        std::sort(vars.begin(), vars.end());
        vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
        if (vars.size() > 64) throw std::logic_error("optimize: node exceeds 64 fanins");
        std::vector<NodeId> fanins;
        fanins.reserve(vars.size());
        for (const std::uint32_t var : vars) fanins.push_back(node_of[var]);

        Sop sop;
        sop.complement = d.complement;
        for (const ACube& c : d.sop) {
            Cube cube;
            for (const Lit l : c) {
                const auto it = std::lower_bound(vars.begin(), vars.end(), alg::lit_var(l));
                const unsigned idx = static_cast<unsigned>(it - vars.begin());
                cube.care |= std::uint64_t{1} << idx;
                if (!alg::lit_complemented(l)) cube.polarity |= std::uint64_t{1} << idx;
            }
            sop.cubes.push_back(cube);
        }
        node_of[v] = net.add_node(d.name, std::move(fanins), std::move(sop));
    }
    for (const auto& [po_name, driver] : dn.outputs) net.add_output(po_name, node_of[driver]);
    net.sweep();
    net.check().throw_if_errors("optimize");
    return net;
}

}  // namespace

Network propagate_constants(const Network& net, std::size_t* folded) {
    DefNetwork dn = from_network(net);
    std::size_t count = 0;
    // Defs are in topological order for the original nodes, so one forward
    // pass suffices.
    for (std::uint32_t v = 0; v < dn.defs.size(); ++v) {
        Def& d = dn.defs[v];
        if (d.is_input || d.is_constant) continue;
        ASop simplified;
        bool tautology = false;
        for (const ACube& c : d.sop) {
            ACube out;
            bool dead = false;
            for (const Lit l : c) {
                const Def& src = dn.defs[alg::lit_var(l)];
                if (src.is_constant) {
                    const bool lit_value = src.constant_value != alg::lit_complemented(l);
                    if (!lit_value) {
                        dead = true;  // literal is 0: cube vanishes
                        break;
                    }
                    // literal is 1: drop it from the cube
                } else {
                    out.push_back(l);
                }
            }
            if (dead) continue;
            if (out.empty()) {
                tautology = true;  // all literals constant-1: OR is 1
                break;
            }
            simplified.push_back(std::move(out));
        }
        if (tautology) {
            d.is_constant = true;
            d.constant_value = !d.complement;
            d.sop.clear();
            ++count;
        } else if (simplified.empty()) {
            d.is_constant = true;
            d.constant_value = d.complement;
            d.sop.clear();
            ++count;
        } else {
            d.sop = alg::normalized(std::move(simplified));
        }
    }
    if (folded != nullptr) *folded = count;
    return to_network(dn);
}

Network collapse_buffers(const Network& net, std::size_t* removed) {
    DefNetwork dn = from_network(net);
    // alias[v]: v computes exactly another def's signal.
    std::vector<std::uint32_t> alias(dn.defs.size());
    for (std::uint32_t v = 0; v < dn.defs.size(); ++v) alias[v] = v;
    std::size_t count = 0;
    for (std::uint32_t v = 0; v < dn.defs.size(); ++v) {
        Def& d = dn.defs[v];
        if (d.is_input || d.is_constant) continue;
        // Rewrite literals through known aliases first (forward pass).
        for (ACube& c : d.sop) {
            for (Lit& l : c) {
                const std::uint32_t tgt = alias[alg::lit_var(l)];
                l = alg::make_lit(tgt, alg::lit_complemented(l));
            }
        }
        d.sop = alg::normalized(std::move(d.sop));
        if (!d.complement && d.sop.size() == 1 && d.sop[0].size() == 1 &&
            !alg::lit_complemented(d.sop[0][0])) {
            alias[v] = alg::lit_var(d.sop[0][0]);
            ++count;
        }
    }
    // Outputs follow aliases; aliased defs become dead and are swept.
    for (auto& [po_name, driver] : dn.outputs) driver = alias[driver];
    if (removed != nullptr) *removed = count;
    return to_network(dn);
}

Network extract_common_cubes(const Network& net, std::size_t max_extractions,
                             std::size_t* made) {
    DefNetwork dn = from_network(net);
    std::size_t count = 0;
    while (count < max_extractions) {
        // Count co-occurring literal pairs across all cubes.
        std::map<std::pair<Lit, Lit>, std::size_t> pairs;
        for (const Def& d : dn.defs) {
            if (d.is_input || d.is_constant) continue;
            for (const ACube& c : d.sop) {
                for (std::size_t i = 0; i < c.size(); ++i) {
                    for (std::size_t j = i + 1; j < c.size(); ++j) {
                        ++pairs[{c[i], c[j]}];
                    }
                }
            }
        }
        std::pair<Lit, Lit> best{};
        std::size_t best_count = 2;  // need >= 3 occurrences for a net win
        for (const auto& [p, n] : pairs) {
            if (n > best_count) {
                best_count = n;
                best = p;
            }
        }
        if (best_count <= 2) break;

        Def nd;
        nd.name = dn.fresh_name("cube_");
        nd.sop = {{best.first, best.second}};
        const std::uint32_t new_var = dn.add_def(std::move(nd));
        const Lit new_lit = alg::make_lit(new_var, false);
        for (std::uint32_t v = 0; v + 1 < dn.defs.size(); ++v) {  // skip the new def
            Def& d = dn.defs[v];
            if (d.is_input || d.is_constant) continue;
            bool touched = false;
            for (ACube& c : d.sop) {
                if (std::binary_search(c.begin(), c.end(), best.first) &&
                    std::binary_search(c.begin(), c.end(), best.second)) {
                    c = alg::cube_remove(c, {best.first, best.second});
                    c.insert(std::lower_bound(c.begin(), c.end(), new_lit), new_lit);
                    touched = true;
                }
            }
            if (touched) d.sop = alg::normalized(std::move(d.sop));
        }
        ++count;
    }
    if (made != nullptr) *made = count;
    return to_network(dn);
}

Network extract_common_kernels(const Network& net, std::size_t max_extractions,
                               std::size_t* made) {
    DefNetwork dn = from_network(net);
    std::size_t count = 0;
    while (count < max_extractions) {
        // Gather shallow kernels per def, grouped by kernel expression.
        std::map<ASop, std::vector<std::uint32_t>> occurrences;
        for (std::uint32_t v = 0; v < dn.defs.size(); ++v) {
            const Def& d = dn.defs[v];
            if (d.is_input || d.is_constant) continue;
            if (d.sop.size() < 2 || d.sop.size() > 40) continue;
            auto ks = alg::level0_kernels(d.sop);
            if (ks.size() > 24) ks.resize(24);
            std::vector<ASop> seen_here;
            for (const alg::Kernel& k : ks) {
                if (std::find(seen_here.begin(), seen_here.end(), k.kernel) !=
                    seen_here.end()) {
                    continue;
                }
                seen_here.push_back(k.kernel);
                occurrences[k.kernel].push_back(v);
            }
        }
        const ASop* best = nullptr;
        long best_score = 0;
        for (const auto& [kernel, where] : occurrences) {
            if (where.size() < 2) continue;
            // Per occurrence with a single-cube quotient q, re-substitution
            // turns cubes(K) * (|q| + lits-per-cube) literals into 1 + |q|,
            // saving ~ (lits(K) - 1) + (cubes(K) - 1); the new node itself
            // costs lits(K).
            const long lits = static_cast<long>(alg::literal_count(kernel));
            const long cubes = static_cast<long>(kernel.size());
            const long occ = static_cast<long>(where.size());
            const long score = occ * (lits + cubes - 2) - lits;
            if (score > best_score) {
                best_score = score;
                best = &kernel;
            }
        }
        if (best == nullptr) break;

        const ASop kernel = *best;  // copy: map is invalidated by add_def
        Def nd;
        nd.name = dn.fresh_name("kern_");
        nd.sop = kernel;
        const std::uint32_t new_var = dn.add_def(std::move(nd));
        const Lit new_lit = alg::make_lit(new_var, false);
        for (std::uint32_t v = 0; v + 1 < dn.defs.size(); ++v) {
            Def& d = dn.defs[v];
            if (d.is_input || d.is_constant || d.sop.size() < 2) continue;
            const alg::DivisionResult div = alg::divide(d.sop, kernel);
            if (div.quotient.empty()) continue;
            d.sop = alg::add(alg::multiply(div.quotient, {{new_lit}}), div.remainder);
        }
        ++count;
    }
    if (made != nullptr) *made = count;
    return to_network(dn);
}

namespace {

/// quick_factor support: create a def computing `f` (recursively factored)
/// and return a positive literal referring to it. Single-literal inputs are
/// returned directly.
Lit emit_factored(DefNetwork& dn, ASop f, std::size_t cube_limit);

/// Shrink a wide SOP in place: repeatedly pull out the most frequent
/// literal (f = l*Q + R) or, with no sharing, split the cube list in half.
void factor_in_place(DefNetwork& dn, ASop& f, std::size_t cube_limit) {
    while (f.size() > cube_limit) {
        std::map<Lit, std::size_t> freq;
        for (const ACube& c : f) {
            for (const Lit l : c) ++freq[l];
        }
        Lit best = 0;
        std::size_t best_n = 1;
        for (const auto& [l, n] : freq) {
            if (n > best_n) {
                best_n = n;
                best = l;
            }
        }
        if (best_n >= 2) {
            const alg::DivisionResult div = alg::divide(f, {{best}});
            if (div.quotient.size() >= 2) {
                const Lit q = emit_factored(dn, div.quotient, cube_limit);
                ASop next = div.remainder;
                ACube lead{best, q};
                std::sort(lead.begin(), lead.end());
                next.push_back(std::move(lead));
                f = alg::normalized(std::move(next));
                continue;
            }
        }
        // No useful sharing: split the OR in half.
        const std::size_t half = f.size() / 2;
        ASop lo(f.begin(), f.begin() + static_cast<std::ptrdiff_t>(half));
        ASop hi(f.begin() + static_cast<std::ptrdiff_t>(half), f.end());
        const Lit ll = emit_factored(dn, std::move(lo), cube_limit);
        const Lit hl = emit_factored(dn, std::move(hi), cube_limit);
        f = alg::normalized({{ll}, {hl}});
    }
}

Lit emit_factored(DefNetwork& dn, ASop f, std::size_t cube_limit) {
    if (f.size() == 1 && f[0].size() == 1) return f[0][0];
    factor_in_place(dn, f, cube_limit);
    Def d;
    d.name = dn.fresh_name("fac_");
    d.sop = std::move(f);
    return alg::make_lit(dn.add_def(std::move(d)), false);
}

}  // namespace

Network factor_wide_nodes(const Network& net, std::size_t cube_limit) {
    if (cube_limit < 2) throw std::invalid_argument("factor_wide_nodes: limit must be >= 2");
    DefNetwork dn = from_network(net);
    const std::size_t original = dn.defs.size();
    for (std::uint32_t v = 0; v < original; ++v) {
        if (dn.defs[v].is_input || dn.defs[v].is_constant) continue;
        if (dn.defs[v].sop.size() <= cube_limit) continue;
        ASop f = dn.defs[v].sop;
        factor_in_place(dn, f, cube_limit);
        dn.defs[v].sop = std::move(f);
    }
    return to_network(dn);
}

Network optimize(const Network& net, const OptimizeOptions& opts, OptimizeStats* stats) {
    OptimizeStats local;
    local.literals_before = net.literal_count();
    local.nodes_before = net.logic_node_count();

    Network cur = net;
    if (opts.propagate_constants) cur = propagate_constants(cur, &local.constants_folded);
    if (opts.collapse_buffers) cur = collapse_buffers(cur, &local.buffers_collapsed);
    if (opts.max_kernel_extractions > 0) {
        cur = extract_common_kernels(cur, opts.max_kernel_extractions,
                                     &local.kernels_extracted);
    }
    if (opts.max_cube_extractions > 0) {
        cur = extract_common_cubes(cur, opts.max_cube_extractions, &local.cubes_extracted);
    }
    if (opts.factor_cube_limit >= 2) cur = factor_wide_nodes(cur, opts.factor_cube_limit);

    local.literals_after = cur.literal_count();
    local.nodes_after = cur.logic_node_count();
    if (stats != nullptr) *stats = local;
    return cur;
}

}  // namespace lily
