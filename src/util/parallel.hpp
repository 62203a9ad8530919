// Fixed-size thread pool with deterministic data-parallel primitives.
//
// The pool is for coarse-grain work only: a region should cover a whole
// pass (thousands of microseconds of work), never one step of an inner
// loop. A fork/join costs tens of microseconds on a loaded host, so the
// per-iteration CG kernels, the clique assembly, the partitioner's region
// splits and the per-node Lily candidate scan all measured faster serial
// and run serially; no flow stage forks or sizes the pool today
// (DESIGN.md §6c records the measurements). Two design rules keep any
// multi-threaded run bit-identical to LILY_THREADS=1:
//
//  1. Work is split into chunks of a FIXED grain that depends only on the
//     problem size, never on the thread count. Chunk c always covers the
//     same index range no matter how many workers exist.
//  2. Reductions are ORDERED: every chunk produces its partial result into
//     a slot indexed by its chunk number, and the partials are combined
//     serially in chunk order. Floating-point summation order is therefore
//     a function of the grain alone, so 1-thread and N-thread runs agree to
//     the last bit. The serial fallback path walks the same chunks in the
//     same order.
//
// Nested parallel regions execute inline on the calling worker (no
// deadlock, no oversubscription); determinism is unaffected because the
// chunk decomposition does not change.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace lily {

/// LILY_THREADS environment variable (unset/empty/unparsable -> 0).
std::size_t lily_threads_from_env();

/// Thread count to use when nothing was requested explicitly: LILY_THREADS
/// if set, otherwise the hardware concurrency. Always >= 1.
std::size_t default_thread_count();

/// A fixed-size pool of worker threads executing chunked index ranges. The
/// calling thread always participates, so a pool of size N uses N-1 workers.
class ThreadPool {
public:
    /// `n_threads == 0` means default_thread_count().
    explicit ThreadPool(std::size_t n_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// The process-wide pool used by parallel_for / parallel_reduce. Sized
    /// by default_thread_count() on first use, then only by resize().
    static ThreadPool& global();

    /// Total parallelism (workers + the calling thread). Always >= 1.
    std::size_t size() const { return workers_.size() + 1; }

    /// Change the pool size. Must not be called while a region is running
    /// (flows reconfigure the pool only between stages). No-op if the size
    /// is unchanged.
    void resize(std::size_t n_threads);

    /// True when the current thread is running chunks of a region — a pool
    /// worker, or the caller while it takes part — so nested regions run
    /// inline.
    static bool in_worker();

    /// Execute chunk(0..n_chunks-1), each exactly once, distributed over
    /// the pool; blocks until all chunks completed. The first exception
    /// thrown by a chunk is rethrown here (remaining chunks still run).
    void run_chunks(std::size_t n_chunks, const std::function<void(std::size_t)>& chunk);

private:
    struct Region;

    void start_workers(std::size_t n_workers);
    void stop_workers();
    void worker_loop();
    void execute(Region& region);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_cv_;
    std::condition_variable done_cv_;
    Region* region_ = nullptr;    // guarded by mutex_
    std::uint64_t generation_ = 0;  // guarded by mutex_
    bool stop_ = false;           // guarded by mutex_
};

/// Default elements-per-chunk for parallel_for / parallel_reduce. Fixed (not
/// a function of thread count) so the chunk decomposition — and with it the
/// floating-point combination order — is reproducible.
inline constexpr std::size_t kParallelGrain = 2048;

/// Number of fixed-grain chunks covering [0, n).
inline std::size_t parallel_chunk_count(std::size_t n, std::size_t grain) {
    grain = std::max<std::size_t>(1, grain);
    return n == 0 ? 0 : (n + grain - 1) / grain;
}

/// body(begin, end) over disjoint subranges of [first, last). Runs serially
/// (same ranges, ascending order) when the pool has one lane, the range is
/// a single chunk, or we are already inside a parallel region.
template <typename Body>
void parallel_for(std::size_t first, std::size_t last, Body&& body,
                  std::size_t grain = kParallelGrain) {
    if (first >= last) return;
    grain = std::max<std::size_t>(1, grain);
    const std::size_t n = last - first;
    const std::size_t chunks = parallel_chunk_count(n, grain);
    ThreadPool& pool = ThreadPool::global();
    if (chunks <= 1 || pool.size() <= 1 || ThreadPool::in_worker()) {
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::size_t b = first + c * grain;
            body(b, std::min(last, b + grain));
        }
        return;
    }
    pool.run_chunks(chunks, [&](std::size_t c) {
        const std::size_t b = first + c * grain;
        body(b, std::min(last, b + grain));
    });
}

/// Ordered deterministic reduction: acc = combine(acc, map(begin, end)) over
/// the fixed-grain chunks of [first, last), combined in ascending chunk
/// order. `map` must be pure over its subrange; `combine` is always applied
/// on the calling thread. Bit-identical for every pool size.
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t first, std::size_t last, T init, Map&& map, Combine&& combine,
                  std::size_t grain = kParallelGrain) {
    if (first >= last) return init;
    grain = std::max<std::size_t>(1, grain);
    const std::size_t chunks = parallel_chunk_count(last - first, grain);
    ThreadPool& pool = ThreadPool::global();
    T acc = std::move(init);
    if (chunks <= 1 || pool.size() <= 1 || ThreadPool::in_worker()) {
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::size_t b = first + c * grain;
            acc = combine(std::move(acc), map(b, std::min(last, b + grain)));
        }
        return acc;
    }
    std::vector<T> partials(chunks);
    pool.run_chunks(chunks, [&](std::size_t c) {
        const std::size_t b = first + c * grain;
        partials[c] = map(b, std::min(last, b + grain));
    });
    for (std::size_t c = 0; c < chunks; ++c) acc = combine(std::move(acc), std::move(partials[c]));
    return acc;
}

}  // namespace lily
