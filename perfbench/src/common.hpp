// Shared pieces of the lily_perfbench program: clocks, seeded input
// generation, pinned flow options, sample statistics and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "library/library.hpp"
#include "netlist/network.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 1.0;
    bool trace = false;
    std::string serve_bin;
    std::string workdir;
};

/// splitmix64 step: derives independent per-op seeds from the run seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

/// A make_control_logic circuit of `gates` gates (the perf_scaling shape:
/// gates/8+8 inputs, gates/16+4 outputs), serialized as BLIF text. The
/// program under test only ever sees this text.
std::string control_blif(unsigned gates, std::uint64_t seed, const std::string& name);

/// FlowOptions with every knob that has an environment default pinned:
/// checks off, no budget, no trace sink, the given verify level and
/// thread count.
lily::FlowOptions pinned_options(lily::MapObjective objective, lily::VerifyLevel verify,
                                 std::size_t threads);

/// Parse the bundled msu_big genlib text (the library every workload uses).
lily::Library load_library();

/// Random-simulation equivalence of a mapped netlist against its source,
/// run outside every timed region.
bool sim_equivalent(const lily::Network& source, const lily::MappedNetlist& mapped,
                    const lily::Library& lib);

/// Move the calling thread to the `turn`-th CPU (cyclically) of the set it
/// may run on, then allow it every CPU of that set again. Called between
/// ops, outside every timed span. A busy thread stays on the CPU it runs
/// on, and the CPUs of a shared host run at different speeds for tens of
/// seconds at a time, so without the move one run would time all its ops
/// on one CPU and its medians would swing with that CPU's speed.
void rotate_cpu(std::size_t turn);

/// Peak resident set (VmHWM) of a process in MB; pid 0 means this process.
double peak_rss_mb(int pid = 0);

struct Samples {
    std::vector<double> values;

    void add(double v) { values.push_back(v); }
    std::size_t size() const { return values.size(); }
    double sum() const;
    double median() const;
    /// The means of consecutive groups of `k` samples (an incomplete last
    /// group is dropped unless it is the only one).
    Samples group_means(std::size_t k) const;
    /// The highest percentile with at least 10 samples beyond it (the
    /// maximum when fewer than 11 samples exist). `percentile` receives it.
    double tail(double* percentile = nullptr) const;
};

/// Quality of results summed over a workload's fixed QoR set.
struct Qor {
    double wirelength = 0.0;
    double chip_area = 0.0;
    double cell_area = 0.0;
    double critical_delay = 0.0;

    /// Add one result: layout QoR from an Area flow, the delay as given.
    void add(const lily::FlowMetrics& area, double delay) {
        wirelength += area.wirelength;
        chip_area += area.chip_area;
        cell_area += area.cell_area;
        critical_delay += delay;
    }
};

/// The metrics of one run plus the counts of the result line.
class Report {
public:
    void set(const std::string& name, double value, const std::string& unit);
    void fail(const std::string& why);  // an op failed or an output was wrong
    void attempt() { ++attempted_; }
    void mark_incorrect(const std::string& why);

    /// The end-to-end metrics every workload reports.
    void end_to_end(const Samples& op_ms, double ops_per_s, const Samples& setup_s,
                    double rss_mb, const Qor& qor);

    /// Print the human-readable summary and the JSON result line.
    void print(const std::string& workload) const;

private:
    struct Value {
        double value;
        std::string unit;
    };
    std::map<std::string, Value> metrics_;
    std::vector<std::string> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
};

/// Per-layer accumulator for traced runs: each name collects one sample
/// per op, reported as the median over ops.
class Layers {
public:
    void add(const std::string& name, double value) { samples_[name].add(value); }
    double median(const std::string& name) const;
    /// Report every per-layer metric; names this workload never sampled
    /// read 0 (the layer is not on the workload's path).
    void report(Report& out) const;

private:
    std::map<std::string, Samples> samples_;
};

/// Per-layer report of a traced run: the layer medians plus, per op, the
/// untraced op time, the traced op time, their difference (the tracing
/// overhead), and the op time the timed layer calls did not cover.
void report_trace_layers(Report& report, Layers& layers, const Samples& op_ms,
                         const Samples& traced_ms, const Samples& covered_ms);

/// ECO drift probe for the workloads without an ECO stream of their own:
/// one epoch of 1% local deltas applied to each of the workload's first
/// circuits with the workload's flow options, against a fresh batch flow
/// of the edited network (all untimed); reports the mean ratios.
void report_eco_probe(Report& report, const std::vector<std::string>& blifs,
                      const lily::Library& lib, const lily::FlowOptions& opts,
                      std::uint64_t seed);

int run_batch_flow(const Args& args, Report& report);
int run_proven_flow(const Args& args, Report& report);
int run_eco_stream(const Args& args, Report& report);
int run_serve_jobs(const Args& args, Report& report);

}  // namespace perfbench
