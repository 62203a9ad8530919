#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "place/placement.hpp"
#include "util/sparse.hpp"

namespace lily {

double PlacementNetlist::total_cell_area() const {
    double a = 0.0;
    for (const double c : cell_area) a += c;
    return a;
}

void PlacementNetlist::check() const {
    if (cell_area.size() != n_cells) throw std::logic_error("PlacementNetlist: area size");
    for (const Net& net : nets) {
        for (const std::size_t c : net.cells) {
            if (c >= n_cells) throw std::logic_error("PlacementNetlist: bad cell index");
        }
        for (const std::size_t p : net.pads) {
            if (p >= pad_positions.size()) throw std::logic_error("PlacementNetlist: bad pad");
        }
    }
}

namespace {

/// The connectivity part of the quadratic system, built once per placement:
/// clique springs with weight 2/k per pin pair, pad springs folded into the
/// diagonal and the right-hand side. Region anchors are the only thing that
/// changes between partitioning rounds, and they are pure diagonal + rhs
/// terms — so each round refolds the anchor slot in place (set_anchor,
/// bit-identical to a full re-assembly with that weight) instead of
/// re-building and re-sorting every triplet.
struct QpSystem {
    SparseMatrix a;                  // springs + pads, anchor slots reserved
    std::vector<double> base_bx;     // rhs before region anchors
    std::vector<double> base_by;
    // Scratch reused across rounds (rhs with anchors applied), plus one CG
    // workspace per axis — after the first round the solves allocate nothing.
    std::vector<double> bx, by, x, y;
    CgWorkspace cg_x, cg_y;
};

QpSystem build_qp_system(const PlacementNetlist& nl) {
    const std::size_t n = nl.n_cells;
    QpSystem sys;
    sys.base_bx.assign(n, 0.0);
    sys.base_by.assign(n, 0.0);

    SparseMatrix::Builder builder(n);
    for (const PlacementNetlist::Net& net : nl.nets) {
        const std::size_t k = net.pin_count();
        if (k < 2) continue;
        const double w = 2.0 / static_cast<double>(k);
        for (std::size_t i = 0; i < net.cells.size(); ++i) {
            // Cell-cell springs.
            for (std::size_t j = i + 1; j < net.cells.size(); ++j) {
                builder.add_spring(net.cells[i], net.cells[j], w);
            }
            // Cell-pad springs (pad is fixed: diagonal + rhs).
            for (const std::size_t p : net.pads) {
                builder.add_anchor(net.cells[i], w);
                sys.base_bx[net.cells[i]] += w * nl.pad_positions[p].x;
                sys.base_by[net.cells[i]] += w * nl.pad_positions[p].y;
            }
        }
    }
    // Reserve a refreshable anchor slot on every diagonal; per-round anchor
    // weights are folded in by set_anchor in the slot's exact sort position.
    for (std::size_t c = 0; c < n; ++c) builder.add_anchor_slot(c);

    sys.a = std::move(builder).build();
    sys.bx.resize(n);
    sys.by.resize(n);
    sys.x.resize(n);
    sys.y.resize(n);
    return sys;
}

/// One quadratic solve against the prebuilt system: region anchors go into
/// the diagonal and rhs, then the x and y axes are solved independently.
/// Returns false when the stage budget fired before both axes converged.
bool solve_qp(QpSystem& sys, const PlacementNetlist& nl, std::span<const Point> anchor_pos,
              std::span<const double> anchor_w, const GlobalPlacementOptions& opts,
              std::vector<Point>& positions) {
    const std::size_t n = nl.n_cells;
    if (n == 0) return true;

    for (std::size_t c = 0; c < n; ++c) {
        const double w = std::max(anchor_w[c], 1e-9);
        sys.a.set_anchor(c, w);
        sys.bx[c] = sys.base_bx[c] + w * anchor_pos[c].x;
        sys.by[c] = sys.base_by[c] + w * anchor_pos[c].y;
        sys.x[c] = positions[c].x;
        sys.y[c] = positions[c].y;
    }

    // Both axes share one Laplacian, so the lockstep pair solver streams the
    // matrix once per iteration for the two right-hand sides. Each axis's
    // arithmetic is exactly a standalone conjugate_gradient call, so the
    // positions stay bit-identical to sequential axis solves.
    const auto [rx, ry] =
        conjugate_gradient_pair(sys.a, sys.bx, sys.x, sys.cg_x, sys.by, sys.y, sys.cg_y,
                                opts.cg_tolerance, opts.cg_max_iters, opts.budget);
    for (std::size_t c = 0; c < n; ++c) positions[c] = {sys.x[c], sys.y[c]};
    return !rx.budget_exhausted && !ry.budget_exhausted;
}

struct Region {
    Rect rect;
    std::vector<std::size_t> cells;
};

/// Level 0: one unconstrained solve, every cell weakly pulled toward the
/// region center.
GlobalPlacement solve_level0(QpSystem& sys, const PlacementNetlist& nl, const Rect& region,
                             const GlobalPlacementOptions& opts) {
    GlobalPlacement out;
    out.region = region;
    out.positions.assign(nl.n_cells, region.center());
    const std::vector<Point> anchor_pos(nl.n_cells, region.center());
    const std::vector<double> anchor_w(nl.n_cells, opts.anchor_weight * 1e-3);
    out.budget_exhausted = !solve_qp(sys, nl, anchor_pos, anchor_w, opts, out.positions);
    return out;
}

}  // namespace

GlobalPlacement place_quadratic(const PlacementNetlist& nl, const Rect& region,
                                const GlobalPlacementOptions& opts) {
    nl.check();
    QpSystem sys = build_qp_system(nl);
    return solve_level0(sys, nl, region, opts);
}

GlobalPlacement place_global(const PlacementNetlist& nl, const Rect& region,
                             const GlobalPlacementOptions& opts) {
    nl.check();
    // One system serves every level, level 0 included: solve_qp refolds
    // every anchor slot and rewrites the whole rhs on each call.
    QpSystem sys = build_qp_system(nl);
    GlobalPlacement out = solve_level0(sys, nl, region, opts);
    if (nl.n_cells == 0) return out;

    // Recursive bipartitioning with center-of-mass anchoring (GORDIAN
    // style): regions are split along their longer side, cells are divided
    // by their current coordinate so each half receives (close to) half the
    // cell area, then the whole system is re-solved with every cell pulled
    // toward its region center. The connectivity Laplacian is shared across
    // all rounds; only the anchor diagonal changes (see QpSystem).
    std::vector<Region> regions(1);
    regions[0].rect = region;
    regions[0].cells.resize(nl.n_cells);
    for (std::size_t c = 0; c < nl.n_cells; ++c) regions[0].cells[c] = c;

    double anchor = opts.anchor_weight;
    std::vector<Point> anchor_pos(nl.n_cells, region.center());
    std::vector<double> anchor_w(nl.n_cells, 0.0);

    while (true) {
        // Budget guard: stop refining and keep the coarser (still legal)
        // placement from the previous level.
        if (opts.budget != nullptr && opts.budget->exhausted()) {
            out.budget_exhausted = true;
            break;
        }
        // Split every oversized region, keeping region order: each split
        // region is replaced in place by its low then its high half.
        bool any_split = false;
        std::vector<Region> next;
        next.reserve(regions.size() * 2);
        for (Region& r : regions) {
            if (r.cells.size() <= opts.max_cells_per_region) {
                next.push_back(std::move(r));
                continue;
            }
            any_split = true;
            const bool split_x = r.rect.width() >= r.rect.height();
            std::sort(r.cells.begin(), r.cells.end(), [&](std::size_t a, std::size_t b) {
                return split_x ? out.positions[a].x < out.positions[b].x
                               : out.positions[a].y < out.positions[b].y;
            });
            // Area-balanced cut point.
            double total = 0.0;
            for (const std::size_t c : r.cells) total += nl.cell_area[c];
            double acc = 0.0;
            std::size_t cut = 0;
            while (cut < r.cells.size() && acc + nl.cell_area[r.cells[cut]] / 2.0 < total / 2.0) {
                acc += nl.cell_area[r.cells[cut]];
                ++cut;
            }
            cut = std::clamp<std::size_t>(cut, 1, r.cells.size() - 1);
            const double frac = total > 0 ? acc / total : 0.5;

            Region lo, hi;
            if (split_x) {
                const double split_at = r.rect.ll.x + r.rect.width() * frac;
                lo.rect = {r.rect.ll, {split_at, r.rect.ur.y}};
                hi.rect = {{split_at, r.rect.ll.y}, r.rect.ur};
            } else {
                const double split_at = r.rect.ll.y + r.rect.height() * frac;
                lo.rect = {r.rect.ll, {r.rect.ur.x, split_at}};
                hi.rect = {{r.rect.ll.x, split_at}, r.rect.ur};
            }
            const auto mid = r.cells.begin() + static_cast<std::ptrdiff_t>(cut);
            lo.cells.assign(r.cells.begin(), mid);
            hi.cells.assign(mid, r.cells.end());
            next.push_back(std::move(lo));
            next.push_back(std::move(hi));
        }
        regions = std::move(next);
        if (!any_split) break;

        ++out.partition_levels;
        for (const Region& r : regions) {
            for (const std::size_t c : r.cells) {
                anchor_pos[c] = r.rect.center();
                anchor_w[c] = anchor;
            }
        }
        if (!solve_qp(sys, nl, anchor_pos, anchor_w, opts, out.positions)) {
            out.budget_exhausted = true;
            break;
        }
        anchor *= 2.0;  // firm up level by level
    }

    // Clamp into the region (anchors keep everything inside in practice).
    for (Point& p : out.positions) {
        p.x = std::clamp(p.x, region.ll.x, region.ur.x);
        p.y = std::clamp(p.y, region.ll.y, region.ur.y);
    }
    return out;
}

IncrementalPlacement place_incremental(const PlacementNetlist& nl, const Rect& region,
                                       std::vector<Point>& positions,
                                       std::span<const std::size_t> dirty,
                                       const GlobalPlacementOptions& opts) {
    nl.check();
    if (positions.size() != nl.n_cells) {
        throw std::invalid_argument("place_incremental: positions/cells size mismatch");
    }
    IncrementalPlacement out;
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::vector<std::size_t> local(nl.n_cells, npos);
    std::vector<std::size_t> cells;  // dirty cells, deduplicated, input order
    for (const std::size_t c : dirty) {
        if (c >= nl.n_cells) {
            throw std::invalid_argument("place_incremental: bad dirty cell index");
        }
        if (local[c] != npos) continue;
        local[c] = cells.size();
        cells.push_back(c);
    }
    out.solved_cells = cells.size();
    if (cells.empty()) {
        out.converged = true;
        return out;
    }
    const std::size_t n = cells.size();

    // Dirty subsystem: clique springs between dirty pins, frozen pins folded
    // into the diagonal and the right-hand side (exactly how build_qp_system
    // treats pads). Serial assembly — ECO edits keep n small.
    SparseMatrix::Builder builder(n);
    std::vector<double> bx(n, 0.0), by(n, 0.0);
    for (const PlacementNetlist::Net& net : nl.nets) {
        const std::size_t k = net.pin_count();
        if (k < 2) continue;
        bool touches = false;
        for (const std::size_t c : net.cells) {
            if (local[c] != npos) {
                touches = true;
                break;
            }
        }
        if (!touches) continue;
        const double w = 2.0 / static_cast<double>(k);
        for (std::size_t i = 0; i < net.cells.size(); ++i) {
            const std::size_t ci = net.cells[i];
            const std::size_t li = local[ci];
            for (std::size_t j = i + 1; j < net.cells.size(); ++j) {
                const std::size_t cj = net.cells[j];
                const std::size_t lj = local[cj];
                if (li != npos && lj != npos) {
                    builder.add_spring(li, lj, w);
                } else if (li != npos) {
                    builder.add_anchor(li, w);
                    bx[li] += w * positions[cj].x;
                    by[li] += w * positions[cj].y;
                } else if (lj != npos) {
                    builder.add_anchor(lj, w);
                    bx[lj] += w * positions[ci].x;
                    by[lj] += w * positions[ci].y;
                }
            }
            if (li == npos) continue;
            for (const std::size_t p : net.pads) {
                builder.add_anchor(li, w);
                bx[li] += w * nl.pad_positions[p].x;
                by[li] += w * nl.pad_positions[p].y;
            }
        }
    }
    // Weak center pull keeps cells with no frozen neighbor well-posed — the
    // same floor weight place_quadratic uses at level 0.
    const double w0 = std::max(opts.anchor_weight * 1e-3, 1e-9);
    const Point center = region.center();
    for (std::size_t i = 0; i < n; ++i) {
        builder.add_anchor(i, w0);
        bx[i] += w0 * center.x;
        by[i] += w0 * center.y;
    }
    const SparseMatrix a = std::move(builder).build();

    std::vector<double> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = positions[cells[i]].x;
        y[i] = positions[cells[i]].y;
    }
    CgWorkspace wsx, wsy;
    const auto [rx, ry] = conjugate_gradient_pair(a, bx, x, wsx, by, y, wsy, opts.cg_tolerance,
                                                  opts.cg_max_iters, opts.budget);
    out.cg_iterations = rx.iterations + ry.iterations;
    out.converged = rx.converged && ry.converged;
    out.budget_exhausted = rx.budget_exhausted || ry.budget_exhausted;
    for (std::size_t i = 0; i < n; ++i) {
        positions[cells[i]] = {std::clamp(x[i], region.ll.x, region.ur.x),
                               std::clamp(y[i], region.ll.y, region.ur.y)};
    }
    return out;
}

double total_hpwl(const PlacementNetlist& nl, std::span<const Point> cell_positions) {
    double sum = 0.0;
    for (const PlacementNetlist::Net& net : nl.nets) {
        Rect bb;
        for (const std::size_t c : net.cells) bb.expand(cell_positions[c]);
        for (const std::size_t p : net.pads) bb.expand(nl.pad_positions[p]);
        sum += bb.half_perimeter();
    }
    return sum;
}

HpwlCache build_hpwl_cache(const PlacementNetlist& nl, std::span<const Point> cell_positions) {
    HpwlCache cache;
    cache.net_hpwl.resize(nl.nets.size());
    cache.nets_of_cell.resize(nl.n_cells);
    for (std::size_t ni = 0; ni < nl.nets.size(); ++ni) {
        const PlacementNetlist::Net& net = nl.nets[ni];
        Rect bb;
        for (const std::size_t c : net.cells) {
            bb.expand(cell_positions[c]);
            cache.nets_of_cell[c].push_back(ni);
        }
        for (const std::size_t p : net.pads) bb.expand(nl.pad_positions[p]);
        cache.net_hpwl[ni] = bb.half_perimeter();
        cache.total += cache.net_hpwl[ni];
    }
    return cache;
}

std::size_t update_hpwl(const PlacementNetlist& nl, std::span<const Point> cell_positions,
                        std::span<const std::size_t> moved_cells, HpwlCache& cache) {
    std::vector<std::size_t> touched;
    for (const std::size_t c : moved_cells) {
        for (const std::size_t ni : cache.nets_of_cell[c]) touched.push_back(ni);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (const std::size_t ni : touched) {
        const PlacementNetlist::Net& net = nl.nets[ni];
        Rect bb;
        for (const std::size_t c : net.cells) bb.expand(cell_positions[c]);
        for (const std::size_t p : net.pads) bb.expand(nl.pad_positions[p]);
        cache.total += bb.half_perimeter() - cache.net_hpwl[ni];
        cache.net_hpwl[ni] = bb.half_perimeter();
    }
    return touched.size();
}

double quadratic_objective(const PlacementNetlist& nl, std::span<const Point> cell_positions) {
    double sum = 0.0;
    for (const PlacementNetlist::Net& net : nl.nets) {
        const std::size_t k = net.pin_count();
        if (k < 2) continue;
        const double w = 2.0 / static_cast<double>(k);
        std::vector<Point> pins;
        pins.reserve(k);
        for (const std::size_t c : net.cells) pins.push_back(cell_positions[c]);
        for (const std::size_t p : net.pads) pins.push_back(nl.pad_positions[p]);
        for (std::size_t i = 0; i < pins.size(); ++i) {
            for (std::size_t j = i + 1; j < pins.size(); ++j) {
                sum += w * euclidean_sq(pins[i], pins[j]);
            }
        }
    }
    return sum;
}

}  // namespace lily
