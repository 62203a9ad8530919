#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "circuits/benchmarks.hpp"
#include "library/standard_cells.hpp"
#include "netlist/blif.hpp"
#include "netlist/simulate.hpp"

namespace perfbench {

namespace {

struct LayerMetric {
    const char* name;
    const char* unit;
};

// Every per-layer metric, named <src module>.<what>. NOTES.md maps each to
// the end-to-end metric and workload it should move.
constexpr LayerMetric kLayerMetrics[] = {
    {"netlist.read_blif_ms", "ms"},
    {"library.read_genlib_ms", "ms"},
    {"subject.decompose_ms", "ms"},
    {"match.walk_ms", "ms"},
    {"match.matches", "count"},
    {"lily.map_ms", "ms"},
    {"lily.map_allocs", "count"},
    {"lily.inchoate_place_ms", "ms"},
    {"place.global_ms", "ms"},
    {"place.legalize_ms", "ms"},
    {"place.allocs", "count"},
    {"route.global_ms", "ms"},
    {"route.mazed_connections", "count"},
    {"route.overflow", "units"},
    {"sta.analyze_ms", "ms"},
    {"verify.cec_ms", "ms"},
    {"verify.aig_ands", "count"},
    {"verify.sat_calls", "count"},
    {"verify.conflicts", "count"},
    {"verify.merged_nodes", "count"},
    {"verify.allocs", "count"},
    {"eco.apply_ms", "ms"},
    {"eco.remapped_nodes", "count"},
    {"eco.map_reuse_ratio", "ratio"},
    {"eco.place_reuse_ratio", "ratio"},
    {"eco.timing_reuse_ratio", "ratio"},
    {"eco.full_reflows", "count"},
    {"serve.submit_ms", "ms"},
    {"serve.wait_ms", "ms"},
    {"serve.inproc_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.respawns", "count"},
    {"serve.shed", "count"},
    {"flow.op_ms", "ms"},
    {"flow.traced_op_ms", "ms"},
    {"flow.trace_overhead_ms", "ms"},
    {"flow.unaccounted_ms", "ms"},
    {"flow.layer_coverage", "ratio"},
};

}  // namespace

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::string control_blif(unsigned gates, std::uint64_t seed, const std::string& name) {
    return lily::write_blif(
        lily::make_control_logic(gates / 8 + 8, gates / 16 + 4, gates, seed, name));
}

lily::FlowOptions pinned_options(lily::MapObjective objective, lily::VerifyLevel verify,
                                 std::size_t threads) {
    lily::FlowOptions o;
    o.objective = objective;
    o.check = lily::CheckLevel::Off;
    o.verify = verify;
    o.budget = lily::FlowBudget{};
    o.budget.total_ms = 0.0;
    o.threads = threads;
    o.trace = nullptr;
    return o;
}

lily::Library load_library() {
    return lily::read_genlib_checked(lily::msu_big_genlib(), "msu_big").take_or_raise();
}

bool sim_equivalent(const lily::Network& source, const lily::MappedNetlist& mapped,
                    const lily::Library& lib) {
    const lily::StatusOr<bool> eq =
        lily::equivalent_random_checked(source, mapped.to_network(lib), 16, 0x5EEDu);
    return eq.is_ok() && eq.value();
}

void rotate_cpu(std::size_t turn) {
    static const cpu_set_t allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (::sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
        return set;
    }();
    const int n = CPU_COUNT(&allowed);
    if (n < 2) return;
    int skip = static_cast<int>(turn % static_cast<std::size_t>(n));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        (void)::sched_setaffinity(0, sizeof one, &one);
        (void)::sched_setaffinity(0, sizeof allowed, &allowed);
        return;
    }
}

double peak_rss_mb(int pid) {
    const std::string path =
        pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

double Samples::sum() const {
    double s = 0.0;
    for (double v : values) s += v;
    return s;
}

double Samples::median() const {
    if (values.empty()) return 0.0;
    std::vector<double> v = values;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Samples Samples::group_means(std::size_t k) const {
    Samples out;
    for (std::size_t at = 0; at < values.size(); at += k) {
        const std::size_t end = std::min(at + k, values.size());
        if (end - at < k && at > 0) break;
        double sum = 0.0;
        for (std::size_t i = at; i < end; ++i) sum += values[i];
        out.add(sum / static_cast<double>(end - at));
    }
    return out;
}

double Samples::tail(double* percentile) const {
    if (values.empty()) return 0.0;
    std::vector<double> v = values;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    const std::size_t at = n >= 11 ? n - 11 : n - 1;
    if (percentile != nullptr) {
        *percentile = 100.0 * static_cast<double>(at + 1) / static_cast<double>(n);
    }
    return v[at];
}

void Report::set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Value{value, unit};
}

void Report::fail(const std::string& why) {
    ++failed_;
    notes_.push_back("failed: " + why);
}

void Report::mark_incorrect(const std::string& why) {
    correct_ = false;
    notes_.push_back("incorrect: " + why);
}

void Report::end_to_end(const Samples& op_ms, double ops_per_s, const Samples& setup_s,
                        double rss_mb, const Qor& qor) {
    double pct = 0.0;
    const double tail = op_ms.tail(&pct);
    set("setup_s", setup_s.median(), "s");
    set("op_ms_p50", op_ms.median(), "ms");
    set("op_ms_tail", tail, "ms");
    set("ops_per_s", ops_per_s, "1/s");
    set("ok_ratio",
        attempted_ == 0 ? 0.0
                        : static_cast<double>(attempted_ - failed_) /
                              static_cast<double>(attempted_),
        "ratio");
    set("peak_rss_mb", rss_mb, "MB");
    set("wirelength", qor.wirelength, "units");
    set("chip_area", qor.chip_area, "units");
    set("cell_area", qor.cell_area, "units");
    set("critical_delay", qor.critical_delay, "ns");
    notes_.push_back("op samples: " + std::to_string(op_ms.size()) + ", tail = p" +
                     std::to_string(static_cast<int>(std::floor(pct))) +
                     "; set-up samples: " + std::to_string(setup_s.size()));
}

void Report::print(const std::string& workload) const {
    std::printf("# perfbench %s\n", workload.c_str());
    for (const std::string& n : notes_) std::printf("#   %s\n", n.c_str());
    for (const auto& [name, m] : metrics_) {
        std::printf("#   %-26s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
    }
    const bool correct = correct_ && failed_ == 0 && attempted_ > 0;
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                correct ? "true" : "false", attempted_, failed_);
    bool first = true;
    for (const auto& [name, m] : metrics_) {
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                    name.c_str(), v, m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double Layers::median(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : it->second.median();
}

void Layers::report(Report& out) const {
    for (const LayerMetric& m : kLayerMetrics) out.set(m.name, median(m.name), m.unit);
}

}  // namespace perfbench
