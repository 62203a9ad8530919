// Determinism and correctness of the parallel engine: the thread pool
// primitives, the deterministic reductions, the CG solver, the pruned
// matcher, and — the end-to-end guarantee — a full Lily flow that must be
// bit-identical with 1 and 8 threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"
#include "match/matcher.hpp"
#include "subject/decompose.hpp"
#include "util/budget.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/sparse.hpp"

namespace lily {
namespace {

/// Run `body` under a given global pool size, restoring the default after.
template <typename Body>
void with_pool_size(std::size_t n, Body&& body) {
    ThreadPool::global().resize(n);
    body();
    ThreadPool::global().resize(0);
}

TEST(ThreadPool, EveryChunkRunsExactlyOnce) {
    with_pool_size(8, [] {
        std::vector<std::atomic<int>> hits(1000);
        parallel_for(
            0, hits.size(),
            [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
            },
            /*grain=*/7);
        for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
    });
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
    with_pool_size(4, [] {
        EXPECT_THROW(parallel_for(
                         0, 100,
                         [&](std::size_t begin, std::size_t) {
                             if (begin == 0) throw std::runtime_error("boom");
                         },
                         /*grain=*/10),
                     std::runtime_error);
    });
}

TEST(ThreadPool, NestedRegionsRunInline) {
    with_pool_size(4, [] {
        std::atomic<int> inner_total{0};
        parallel_for(
            0, 8,
            [&](std::size_t, std::size_t) {
                // A nested region must execute inline on this worker (no
                // deadlock) and still cover its whole range.
                int local = 0;
                parallel_for(
                    0, 100, [&](std::size_t b, std::size_t e) { local += static_cast<int>(e - b); },
                    /*grain=*/9);
                inner_total.fetch_add(local);
            },
            /*grain=*/1);
        EXPECT_EQ(inner_total.load(), 8 * 100);
    });
}

TEST(ThreadPool, ReduceIsBitIdenticalAcrossPoolSizes) {
    // Values chosen so summation order matters in double precision.
    std::vector<double> v(100'000);
    double x = 1e-9;
    for (std::size_t i = 0; i < v.size(); ++i) {
        x = x * 1.0000001 + 1e-7;
        v[i] = (i % 3 == 0 ? 1e12 : 1.0) * x;
    }
    auto sum_with = [&](std::size_t pool) {
        double out = 0.0;
        with_pool_size(pool, [&] {
            out = parallel_reduce(
                std::size_t{0}, v.size(), 0.0,
                [&](std::size_t begin, std::size_t end) {
                    double s = 0.0;
                    for (std::size_t i = begin; i < end; ++i) s += v[i];
                    return s;
                },
                [](double acc, double part) { return acc + part; });
        });
        return out;
    };
    const double s1 = sum_with(1);
    const double s2 = sum_with(2);
    const double s8 = sum_with(8);
    // Bit-identical, not merely close.
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(s1, s8);
}

TEST(ParallelSparse, CgSolveBitIdenticalAcrossPoolSizes) {
    // A 1-D chain Laplacian with anchors at both ends: SPD, nontrivial.
    const std::size_t n = 5000;
    SparseMatrix::Builder b(n);
    for (std::size_t i = 0; i + 1 < n; ++i) b.add_spring(i, i + 1, 1.0 + 0.001 * (i % 7));
    b.add_anchor(0, 2.0);
    b.add_anchor(n - 1, 3.0);
    const SparseMatrix a = std::move(b).build();
    std::vector<double> rhs(n);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = std::sin(0.01 * static_cast<double>(i));

    auto solve_with = [&](std::size_t pool) {
        std::vector<double> x(n, 0.0);
        with_pool_size(pool, [&] { conjugate_gradient(a, rhs, x, 1e-10, 2000); });
        return x;
    };
    const std::vector<double> x1 = solve_with(1);
    const std::vector<double> x8 = solve_with(8);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(x1[i], x8[i]) << "component " << i << " differs across pool sizes";
    }
}

TEST(ParallelSparse, SetDiagonalMatchesRebuild) {
    const std::size_t n = 64;
    SparseMatrix::Builder b1(n);
    SparseMatrix::Builder b2(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        b1.add_spring(i, i + 1, 2.0);
        b2.add_spring(i, i + 1, 2.0);
    }
    for (std::size_t i = 0; i < n; ++i) {
        b1.add_anchor(i, 0.0);  // reserve, then overwrite in place
        b2.add_anchor(i, 0.5 * static_cast<double>(i) + 1.0);
    }
    SparseMatrix incremental = std::move(b1).build();
    const SparseMatrix rebuilt = std::move(b2).build();
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(incremental.has_diagonal_entry(i));
        incremental.set_diagonal(i, incremental.diagonal(i) +
                                        (0.5 * static_cast<double>(i) + 1.0));
    }
    std::vector<double> x(n), y_inc(n), y_reb(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = std::cos(0.1 * static_cast<double>(i));
    incremental.multiply(x, y_inc);
    rebuilt.multiply(x, y_reb);
    for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(y_inc[i], y_reb[i]);
}

// The regression this guards: std::sort is unstable, so on large triplet
// sets the anchor triplet does not necessarily sum *last* into its
// diagonal — a naive "built diagonal + w" update then rounds differently
// than a rebuild. set_anchor records the slot's exact fold position, so
// the refreshed matrix must be bit-identical (EXPECT_EQ, not NEAR) to a
// from-scratch build with the same weights, at any problem size.
TEST(ParallelSparse, SetAnchorBitIdenticalToRebuild) {
    for (const std::size_t n : {8UL, 300UL, 5000UL}) {
        Rng rng(0x5EED0000 + n);
        SparseMatrix::Builder b1(n);
        SparseMatrix::Builder b2(n);
        // Random springs create many duplicate diagonal contributions with
        // irrational-ish weights, so any fold-order change is visible.
        const std::size_t n_springs = 6 * n;
        for (std::size_t s = 0; s < n_springs; ++s) {
            const std::size_t i = static_cast<std::size_t>(rng.next_below(n));
            const std::size_t j = static_cast<std::size_t>(rng.next_below(n));
            if (i == j) continue;
            const double w = 0.1 + rng.next_double();
            b1.add_spring(i, j, w);
            b2.add_spring(i, j, w);
        }
        std::vector<double> weights(n);
        for (std::size_t i = 0; i < n; ++i) weights[i] = 1e-3 + rng.next_double();
        for (std::size_t i = 0; i < n; ++i) {
            b1.add_anchor_slot(i);
            b2.add_anchor(i, weights[i]);
        }
        SparseMatrix incremental = std::move(b1).build();
        const SparseMatrix rebuilt = std::move(b2).build();
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(incremental.has_anchor_slot(i));
            incremental.set_anchor(i, weights[i]);
        }
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(incremental.diagonal(i), rebuilt.diagonal(i)) << "n=" << n << " i=" << i;
        }
        std::vector<double> x(n), y_inc(n), y_reb(n);
        for (std::size_t i = 0; i < n; ++i) x[i] = std::cos(0.1 * static_cast<double>(i));
        incremental.multiply(x, y_inc);
        rebuilt.multiply(x, y_reb);
        for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(y_inc[i], y_reb[i]);
    }
}

TEST(StageBudgetThreaded, ConcurrentTicksNeverLoseCounts) {
    StageBudget budget = StageBudget::iterations(1'000'000'000);  // never exhausts here
    constexpr int kThreads = 8;
    constexpr int kTicks = 10'000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&budget] {
            for (int i = 0; i < kTicks; ++i) budget.tick();
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(budget.ticks_used(), static_cast<std::size_t>(kThreads) * kTicks);
}

TEST(StageBudgetThreaded, ExhaustionSeenByAllPollers) {
    StageBudget budget = StageBudget::iterations(100);
    with_pool_size(8, [&] {
        std::atomic<int> saw_exhausted{0};
        parallel_for(
            0, 64,
            [&](std::size_t, std::size_t) {
                for (int i = 0; i < 10; ++i) budget.tick();
                if (budget.exhausted()) saw_exhausted.fetch_add(1);
            },
            /*grain=*/1);
        EXPECT_TRUE(budget.exhausted());
        EXPECT_GT(saw_exhausted.load(), 0);
    });
}

// ------------------------------------------------------------- matcher

TEST(MatcherPruning, PrunedEqualsReferenceOnGeneratedGraphs) {
    const Library lib = load_msu_big();
    const Matcher matcher(lib);
    // A spread of shapes: control logic (random-ish cones) and a multiplier
    // (deep reconvergent arrays).
    std::vector<Network> nets;
    for (unsigned seed : {1u, 7u, 42u}) {
        nets.push_back(make_control_logic(12, 6, 120, seed, "prune"));
    }
    nets.push_back(make_multiplier(6));
    MatchScratch scratch;
    for (const Network& net : nets) {
        const DecomposeResult sub = decompose(net);
        for (SubjectId v = 0; v < sub.graph.size(); ++v) {
            for (bool base_only : {false, true}) {
                const std::vector<Match> pruned =
                    matcher.matches_at(sub.graph, v, scratch, base_only);
                const std::vector<Match> reference =
                    matcher.matches_at_reference(sub.graph, v, base_only);
                ASSERT_EQ(pruned.size(), reference.size())
                    << "node " << v << " base_only=" << base_only;
                for (std::size_t i = 0; i < pruned.size(); ++i) {
                    EXPECT_EQ(pruned[i].gate, reference[i].gate);
                    EXPECT_EQ(pruned[i].pattern_index, reference[i].pattern_index);
                    EXPECT_EQ(pruned[i].inputs, reference[i].inputs);
                    EXPECT_EQ(pruned[i].covered, reference[i].covered);
                }
            }
        }
    }
}

TEST(MatcherPruning, ScratchReuseMatchesFreshScratch) {
    const Library lib = load_msu_big();
    const Matcher matcher(lib);
    const DecomposeResult sub = decompose(make_control_logic(8, 4, 60, 3, "scratch"));
    MatchScratch reused;
    for (SubjectId v = 0; v < sub.graph.size(); ++v) {
        const std::vector<Match> with_reuse = matcher.matches_at(sub.graph, v, reused);
        const std::vector<Match> fresh = matcher.matches_at(sub.graph, v);
        ASSERT_EQ(with_reuse.size(), fresh.size()) << "node " << v;
        for (std::size_t i = 0; i < with_reuse.size(); ++i) {
            EXPECT_EQ(with_reuse[i].covered, fresh[i].covered);
            EXPECT_EQ(with_reuse[i].inputs, fresh[i].inputs);
        }
    }
}

// ------------------------------------------------- end-to-end determinism

void expect_flows_bit_identical(MapObjective objective) {
    const Library lib = load_msu_big();
    const Network net = make_control_logic(24, 12, 300, 0xBEEF, "det");

    auto run_with = [&](std::size_t threads) {
        FlowOptions opts;
        opts.objective = objective;
        opts.threads = threads;
        return run_lily_flow_checked(net, lib, opts).take_or_raise();
    };
    const FlowResult r1 = run_with(1);
    const FlowResult r8 = run_with(8);

    EXPECT_EQ(r1.metrics.gate_count, r8.metrics.gate_count);
    EXPECT_EQ(r1.metrics.cell_area, r8.metrics.cell_area);
    EXPECT_EQ(r1.metrics.chip_area, r8.metrics.chip_area);
    EXPECT_EQ(r1.metrics.wirelength, r8.metrics.wirelength);
    EXPECT_EQ(r1.metrics.critical_delay, r8.metrics.critical_delay);
    EXPECT_EQ(r1.metrics.max_congestion, r8.metrics.max_congestion);
    ASSERT_EQ(r1.final_positions.size(), r8.final_positions.size());
    for (std::size_t i = 0; i < r1.final_positions.size(); ++i) {
        ASSERT_EQ(r1.final_positions[i].x, r8.final_positions[i].x) << "instance " << i;
        ASSERT_EQ(r1.final_positions[i].y, r8.final_positions[i].y) << "instance " << i;
    }
    ASSERT_EQ(r1.pad_positions.size(), r8.pad_positions.size());
    for (std::size_t i = 0; i < r1.pad_positions.size(); ++i) {
        ASSERT_EQ(r1.pad_positions[i].x, r8.pad_positions[i].x);
        ASSERT_EQ(r1.pad_positions[i].y, r8.pad_positions[i].y);
    }
    // Restore the default pool for the remaining tests.
    ThreadPool::global().resize(0);
}

TEST(FlowDeterminism, AreaObjectiveBitIdentical1vs8Threads) {
    expect_flows_bit_identical(MapObjective::Area);
}

TEST(FlowDeterminism, DelayObjectiveBitIdentical1vs8Threads) {
    expect_flows_bit_identical(MapObjective::Delay);
}

TEST(FlowDeterminism, BaselineFlowBitIdentical1vs8Threads) {
    const Library lib = load_msu_big();
    const Network net = make_control_logic(16, 8, 200, 0xCAFE, "det-base");
    FlowOptions o1;
    o1.threads = 1;
    FlowOptions o8;
    o8.threads = 8;
    const FlowResult r1 = run_baseline_flow_checked(net, lib, o1).take_or_raise();
    const FlowResult r8 = run_baseline_flow_checked(net, lib, o8).take_or_raise();
    EXPECT_EQ(r1.metrics.cell_area, r8.metrics.cell_area);
    EXPECT_EQ(r1.metrics.wirelength, r8.metrics.wirelength);
    EXPECT_EQ(r1.metrics.critical_delay, r8.metrics.critical_delay);
    ASSERT_EQ(r1.final_positions.size(), r8.final_positions.size());
    for (std::size_t i = 0; i < r1.final_positions.size(); ++i) {
        ASSERT_EQ(r1.final_positions[i].x, r8.final_positions[i].x);
        ASSERT_EQ(r1.final_positions[i].y, r8.final_positions[i].y);
    }
    ThreadPool::global().resize(0);
}

}  // namespace
}  // namespace lily
