// Hot-path kernel microbenchmarks: the four inner loops the CSR/arena
// flattening targets, measured in isolation so a regression in one kernel
// is visible without re-profiling the whole flow.
//
//   spmv           Jacobi-CG's fused SpMV+dot-product fold over the
//                  CSR-stored grid Laplacian (SparseMatrix::multiply_dot_fold)
//   matcher_walk   pattern matching at every gate node of a decomposed
//                  subject graph through the frozen SubjectTopology, with
//                  the pooled in-place matches_at overload
//   rect_assembly  true-fanout rectangle assembly: per node, gather fanout
//                  positions from the CSR view, bound them, then take the
//                  Manhattan median of the rectangle set (the Lily wire
//                  model's geometric core)
//   dp_scan        the full Lily DP candidate scan (LilyMapper::map on the
//                  same subject graph, single thread)
//
// Each kernel reports best-of-rep wall milliseconds per sweep plus the
// heap-allocation delta of a *warmed* sweep — the pooled-scratch design
// makes the steady-state matcher and rectangle sweeps allocation-free, and
// this harness is where that claim is checked numerically.
//
// Usage: kernels [--quick] [--out=BENCH_kernels.json]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "library/standard_cells.hpp"
#include "lily/lily_mapper.hpp"
#include "match/matcher.hpp"
#include "subject/decompose.hpp"
#include "util/alloc_stats.hpp"
#include "util/geometry.hpp"
#include "util/parallel.hpp"
#include "util/sparse.hpp"

using namespace lily;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct KernelReport {
    std::string name;
    std::size_t work_items = 0;   // rows, nodes, ... per sweep
    double best_ms = 0.0;         // best-of-reps wall time per sweep
    std::uint64_t warm_allocs = 0;  // operator-new calls in one warmed sweep
    double checksum = 0.0;        // defeats DCE; also a change detector
};

/// Time `sweep()` best-of-`reps` after one untimed warmup, and capture the
/// allocation count of the final (fully warmed) sweep.
template <typename F>
KernelReport run_kernel(const std::string& name, std::size_t work_items, int reps,
                        F&& sweep) {
    KernelReport rep;
    rep.name = name;
    rep.work_items = work_items;
    rep.checksum = sweep();  // warmup: grows every pool to steady state
    rep.best_ms = 1e300;
    for (int i = 0; i < reps; ++i) {
        const AllocStats a0 = alloc_stats_snapshot();
        const Clock::time_point t0 = Clock::now();
        rep.checksum = sweep();
        rep.best_ms = std::min(rep.best_ms, ms_since(t0));
        rep.warm_allocs = alloc_stats_snapshot().count - a0.count;
    }
    return rep;
}

/// 2D-grid Laplacian with anchored corners: the placement CG's matrix shape.
SparseMatrix make_grid_laplacian(std::size_t side) {
    const std::size_t n = side * side;
    SparseMatrix::Builder b(n);
    for (std::size_t r = 0; r < side; ++r) {
        for (std::size_t c = 0; c < side; ++c) {
            const std::size_t i = r * side + c;
            if (c + 1 < side) b.add_spring(i, i + 1, 1.0);
            if (r + 1 < side) b.add_spring(i, i + side, 1.0);
        }
    }
    b.add_anchor(0, 4.0);
    b.add_anchor(n - 1, 4.0);
    return std::move(b).build();
}

KernelReport bench_spmv(std::size_t side, int reps) {
    const SparseMatrix a = make_grid_laplacian(side);
    const std::size_t n = a.size();
    std::vector<double> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = 1.0 + 1e-3 * static_cast<double>(i % 97);
    return run_kernel("spmv", n, reps, [&] { return a.multiply_dot_fold(x, y); });
}

KernelReport bench_matcher_walk(const SubjectGraph& g, const Matcher& matcher, int reps) {
    MatchScratch scratch;
    std::vector<Match> pool;
    return run_kernel("matcher_walk", g.size(), reps, [&] {
        std::size_t total = 0;
        for (SubjectId v = 0; v < g.size(); ++v) {
            total += matcher.matches_at(g, v, scratch, pool);
        }
        return static_cast<double>(total);
    });
}

KernelReport bench_rect_assembly(const SubjectGraph& g, int reps) {
    const SubjectTopology& t = g.topology();
    // Deterministic synthetic placement: what the inchoate placer would
    // hand the wire model.
    std::vector<Point> pos(g.size());
    for (SubjectId v = 0; v < g.size(); ++v) {
        pos[v] = {static_cast<double>((v * 37) % 101), static_cast<double>((v * 53) % 89)};
    }
    std::vector<Point> pts;
    std::vector<Rect> rects;
    MedianScratch median;
    return run_kernel("rect_assembly", g.size(), reps, [&] {
        double acc = 0.0;
        rects.clear();
        for (SubjectId v = 0; v < g.size(); ++v) {
            const std::span<const SubjectId> fo = t.fanouts_of(v);
            if (fo.empty()) continue;
            pts.clear();
            for (SubjectId u : fo) pts.push_back(pos[u]);
            rects.push_back(bounding_box(pts));
            if (rects.size() == 16) {
                const Point m = manhattan_median_of_rects(rects, median);
                acc += m.x + m.y;
                rects.clear();
            }
        }
        if (!rects.empty()) {
            const Point m = manhattan_median_of_rects(rects, median);
            acc += m.x + m.y;
        }
        return acc;
    });
}

KernelReport bench_dp_scan(const SubjectGraph& g, const Library& lib, int reps) {
    const LilyMapper mapper(lib);
    // The DP allocates its solution arrays per map() call by design; the
    // interesting number here is the wall time, not the allocation delta.
    return run_kernel("dp_scan", g.size(), reps, [&] {
        const LilyResult res = mapper.map(g);
        return res.total_area + res.estimated_wirelength;
    });
}

std::string json_num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    std::string out_path = "BENCH_kernels.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else {
            std::fprintf(stderr, "usage: kernels [--quick] [--out=FILE]\n");
            return 2;
        }
    }

    // Single-thread numbers: kernel changes should be visible without the
    // scheduler in the frame. (The flow-level harness covers scaling.)
    ThreadPool::global().resize(1);

    const int reps = quick ? 3 : 8;
    const std::size_t grid_side = quick ? 96 : 256;
    const unsigned gates = quick ? 300 : 1200;

    const Library lib = load_msu_big();
    const Network net =
        make_control_logic(gates / 8 + 8, gates / 16 + 4, gates, 0xBEEF, "kernels");
    const DecomposeResult dec = decompose(net);
    const SubjectGraph& g = dec.graph;
    const Matcher matcher(lib);
    g.topology();  // freeze the CSR view outside the timed regions

    std::vector<KernelReport> reports;
    reports.push_back(bench_spmv(grid_side, reps));
    reports.push_back(bench_matcher_walk(g, matcher, reps));
    reports.push_back(bench_rect_assembly(g, reps));
    reports.push_back(bench_dp_scan(g, lib, reps));

    bool ok = true;
    for (const KernelReport& r : reports) {
        std::fprintf(stderr, "%-14s %7zu items  %9.3f ms/sweep  %6llu allocs warm\n",
                     r.name.c_str(), r.work_items, r.best_ms,
                     static_cast<unsigned long long>(r.warm_allocs));
        // The pooled kernels must stay allocation-free once warmed; a few
        // stragglers are tolerated (stdio, one-off rehashes), a return to
        // per-node churn is not.
        if ((r.name == "matcher_walk" || r.name == "rect_assembly" || r.name == "spmv") &&
            r.warm_allocs > 16) {
            std::fprintf(stderr, "FAIL: %s allocated %llu times in a warmed sweep\n",
                         r.name.c_str(), static_cast<unsigned long long>(r.warm_allocs));
            ok = false;
        }
    }

    std::ostringstream os;
    os << "{\n  \"quick\": " << (quick ? "true" : "false") << ",\n  \"kernels\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const KernelReport& r = reports[i];
        os << "    {\"name\": \"" << r.name << "\", \"work_items\": " << r.work_items
           << ", \"best_ms\": " << json_num(r.best_ms)
           << ", \"warm_allocs\": " << r.warm_allocs
           << ", \"checksum\": " << json_num(r.checksum) << "}"
           << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::ofstream f(out_path);
    f << os.str();
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    return ok ? 0 : 1;
}
