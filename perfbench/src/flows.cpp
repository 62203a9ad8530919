// The in-process workloads: batch_flow, proven_flow and eco_stream.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "common.hpp"
#include "flow/pipeline.hpp"
#include "netlist/blif.hpp"
#include "replay.hpp"
#include "util/alloc_stats.hpp"
#include "util/parallel.hpp"

namespace perfbench {

using namespace lily;

namespace {

// Flow threads of the in-process workloads: enough to exercise the thread
// pool, few enough that a stray runnable thread on the host does not stall
// every fork/join (NOTES.md has the measurements).
constexpr std::size_t kThreads = 2;
// setup_s of batch_flow and proven_flow is the median of the means of
// groups of this many set-ups, taken an op apart. A single set-up of
// ~14 ms is either fast or slow, as it caught the host, and the median of
// a two-humped sample jumps between the humps from run to run.
constexpr std::size_t kSetupGroup = 4;

// batch_flow: 400-gate control logic, Area then Delay per op.
constexpr unsigned kBatchGates = 400;
constexpr std::size_t kBatchQorOps = 12;
constexpr std::size_t kBatchProbeCircuits = 3;  // ECO drift probe

// proven_flow: 150-200 gates, verify = Prove.
constexpr unsigned kProvenMinGates = 150;
constexpr unsigned kProvenMaxGates = 200;
constexpr std::size_t kProvenQorOps = 12;
constexpr std::size_t kProvenProbeCircuits = 4;

// eco_stream: kEcoStreams ~1,600-gate circuits; each op applies a ~1%
// local delta to one of them. A stream restarts from its built state every
// kEcoEpoch ops, so the state after its first epoch (QoR and drift) is
// fixed by the seed.
constexpr unsigned kEcoGates = 1600;
constexpr std::size_t kEcoStreams = 2;
constexpr std::size_t kEcoEpoch = 8;
constexpr double kEcoEditShare = 0.01;
constexpr int kEcoSetupReps = 3;  // each rep builds the whole pipeline

constexpr double kWallCapMs = 120'000.0;

/// The measurement window of a single-client workload: it stays open until
/// the timed op time reaches the run's seconds and the fixed QoR set is
/// complete. Untimed input generation and output checks do not count.
/// A wall-clock cap keeps a run whose ops all fail inside its time limit.
struct Window {
    double seconds = 1.0;
    std::size_t min_ops = 1;
    Clock::time_point start = Clock::now();
    bool open(std::size_t ops_done, const Samples& op_ms) const {
        return (ops_done < min_ops || op_ms.sum() < seconds * 1000.0) &&
               ms_since(start) < kWallCapMs;
    }
};

struct Drift {
    double wl = 0.0;
    double delay = 0.0;
};

/// ECO drift of a pipeline state: its QoR over a fresh batch flow of the
/// same network (both untimed).
StatusOr<Drift> drift_of(const PipelineState& state, const Library& lib) {
    LILY_ASSIGN_OR_RETURN(FlowResult fresh, run_lily_flow_checked(state.net, lib, state.opts));
    return Drift{state.flow.metrics.wirelength / fresh.metrics.wirelength,
                 state.flow.metrics.critical_delay / fresh.metrics.critical_delay};
}

NetDelta eco_delta(const Network& net, std::uint64_t seed) {
    const std::size_t edits = std::max<std::size_t>(
        1, static_cast<std::size_t>(kEcoEditShare * static_cast<double>(net.node_count())));
    return local_delta(net, edits, seed);
}

/// Build a pipeline for a circuit and apply kEcoEpoch deltas to it.
StatusOr<PipelineState> eco_epoch(const Network& net, const Library& lib,
                                  const FlowOptions& opts, std::uint64_t seed) {
    LILY_ASSIGN_OR_RETURN(PipelineState state, build_pipeline(net, lib, opts));
    for (std::size_t j = 0; j < kEcoEpoch; ++j) {
        LILY_RETURN_IF_ERROR(run_eco_flow_checked(state, eco_delta(state.net, mix(seed, j)))
                                 .status());
    }
    return state;
}

void report_drift(Report& report, const StatusOr<Drift>& drift) {
    if (!drift.is_ok()) {
        report.mark_incorrect("ECO drift: " + drift.status().to_string());
        return;
    }
    report.set("eco_wl_drift", drift.value().wl, "ratio");
    report.set("eco_delay_drift", drift.value().delay, "ratio");
}

void add_op_layers(Layers& layers, const OpLayers& op) {
    for (const auto& [name, value] : op) layers.add(name, value);
}

/// The library load every workload's setup starts with (timed in traced
/// runs as library.read_genlib_ms).
Library timed_library(Layers& layers) {
    const Clock::time_point t0 = Clock::now();
    Library lib = load_library();
    layers.add("library.read_genlib_ms", ms_since(t0));
    return lib;
}

/// One set-up of batch_flow or proven_flow: the library parse and the
/// first circuit's generation. The run repeats it before every op, outside
/// the op's timed span, so setup_s is taken over the whole run rather than
/// over one burst at its start, which a short stall on the host would
/// skew.
template <typename BlifOf>
Library set_up(Layers& layers, Samples& setup_s, const BlifOf& blif_of,
               std::string& first_blif) {
    const Clock::time_point t0 = Clock::now();
    Library lib = timed_library(layers);
    first_blif = blif_of(0);
    setup_s.add(ms_since(t0) / 1000.0);
    return lib;
}

}  // namespace

void report_trace_layers(Report& report, Layers& layers, const Samples& op_ms,
                         const Samples& traced_ms, const Samples& covered_ms) {
    for (std::size_t i = 0; i < op_ms.size(); ++i) {
        const double op = op_ms.values[i];
        layers.add("flow.op_ms", op);
        layers.add("flow.traced_op_ms", traced_ms.values[i]);
        layers.add("flow.trace_overhead_ms", traced_ms.values[i] - op);
        layers.add("flow.unaccounted_ms", op - covered_ms.values[i]);
        layers.add("flow.layer_coverage", covered_ms.values[i] / op);
    }
    layers.report(report);
}

void report_eco_probe(Report& report, const std::vector<std::string>& blifs,
                      const Library& lib, const FlowOptions& opts, std::uint64_t seed) {
    report_drift(report, [&]() -> StatusOr<Drift> {
        Drift mean;
        for (std::size_t k = 0; k < blifs.size(); ++k) {
            LILY_ASSIGN_OR_RETURN(Network net, read_blif_checked(blifs[k]));
            LILY_ASSIGN_OR_RETURN(PipelineState s, eco_epoch(net, lib, opts, mix(seed, 778 + k)));
            LILY_ASSIGN_OR_RETURN(Drift d, drift_of(s, lib));
            mean.wl += d.wl / static_cast<double>(blifs.size());
            mean.delay += d.delay / static_cast<double>(blifs.size());
        }
        return mean;
    }());
}

int run_batch_flow(const Args& args, Report& report) {
    ThreadPool::global().resize(kThreads);
    Layers layers;
    Samples setup_s;
    const auto blif_of = [&](std::size_t i) {
        return control_blif(kBatchGates, mix(args.seed, i), "batch" + std::to_string(i));
    };
    std::string first_blif;
    const Library lib = set_up(layers, setup_s, blif_of, first_blif);

    const FlowOptions area = pinned_options(MapObjective::Area, VerifyLevel::Off, kThreads);
    const FlowOptions delay = pinned_options(MapObjective::Delay, VerifyLevel::Off, kThreads);
    Samples op_ms, traced_ms, covered_ms;
    Qor qor;
    const Window window{args.seconds, kBatchQorOps};
    for (std::size_t i = 0; window.open(i, op_ms); ++i) {
        rotate_cpu(i);
        if (i > 0) (void)set_up(layers, setup_s, blif_of, first_blif);
        const std::string blif = i == 0 ? first_blif : blif_of(i);
        report.attempt();

        const Clock::time_point t0 = Clock::now();
        StatusOr<Network> net = read_blif_checked(blif);
        StatusOr<FlowResult> ra = net.is_ok() ? run_lily_flow_checked(net.value(), lib, area)
                                              : StatusOr<FlowResult>(net.status());
        StatusOr<FlowResult> rd = net.is_ok() ? run_lily_flow_checked(net.value(), lib, delay)
                                              : StatusOr<FlowResult>(net.status());
        const double ms = ms_since(t0);
        if (!ra.is_ok() || !rd.is_ok()) {
            report.fail(!ra.is_ok() ? ra.status().to_string() : rd.status().to_string());
            continue;
        }
        if (!sim_equivalent(net.value(), ra.value().netlist, lib) ||
            !sim_equivalent(net.value(), rd.value().netlist, lib)) {
            report.fail("batch op " + std::to_string(i) + ": mapped netlist miscompares");
            continue;
        }
        op_ms.add(ms);
        if (i < kBatchQorOps) {
            qor.add(ra.value().metrics, rd.value().metrics.critical_delay);
        }
        if (!args.trace) continue;

        // Traced: the same op again, one public call at a time.
        OpLayers op;
        Clock::time_point t1 = Clock::now();
        const StatusOr<Network> traced_net = read_blif_checked(blif);
        const double read_ms = ms_since(t1);
        op["netlist.read_blif_ms"] = read_ms;
        t1 = Clock::now();
        const StatusOr<Replayed> pa = replay_lily_flow(traced_net.value(), lib, area, op);
        const StatusOr<Replayed> pd = replay_lily_flow(traced_net.value(), lib, delay, op);
        const double replay_ms = ms_since(t1);
        if (!pa.is_ok() || !pd.is_ok() || !same_qor(pa.value().metrics, ra.value().metrics) ||
            !same_qor(pd.value().metrics, rd.value().metrics)) {
            report.mark_incorrect("batch op " + std::to_string(i) +
                                  ": traced replay QoR differs from the flow");
            op_ms.values.pop_back();  // keep the traced samples paired
            continue;
        }
        const double extra = pa.value().extra_ms + pd.value().extra_ms;
        traced_ms.add(read_ms + replay_ms - extra);
        covered_ms.add(read_ms + pa.value().flow_ms + pd.value().flow_ms);
        add_op_layers(layers, op);
    }

    if (args.trace) {
        report_trace_layers(report, layers, op_ms, traced_ms, covered_ms);
        return 0;
    }
    report.end_to_end(op_ms, op_ms.size() / (op_ms.sum() / 1000.0),
                      setup_s.group_means(kSetupGroup), peak_rss_mb(), qor);
    std::vector<std::string> probe;
    for (std::size_t i = 0; i < kBatchProbeCircuits; ++i) probe.push_back(blif_of(i));
    report_eco_probe(report, probe, lib, area, args.seed);
    return 0;
}

int run_proven_flow(const Args& args, Report& report) {
    ThreadPool::global().resize(kThreads);
    Layers layers;
    Samples setup_s;
    std::string first_blif;
    // Sizes step through 150..200 by op index alone, so every seed maps
    // the same size mix and only the circuit structure varies.
    const auto blif_of = [&](std::size_t i) {
        const unsigned gates =
            kProvenMinGates + static_cast<unsigned>(i % 6) * (kProvenMaxGates - kProvenMinGates) / 5;
        return control_blif(gates, mix(args.seed, i), "proven" + std::to_string(i));
    };
    const Library lib = set_up(layers, setup_s, blif_of, first_blif);

    const FlowOptions prove = pinned_options(MapObjective::Area, VerifyLevel::Prove, kThreads);
    const FlowOptions replay_opts = pinned_options(MapObjective::Area, VerifyLevel::Off, kThreads);
    Samples op_ms, traced_ms, covered_ms;
    Qor qor;
    const Window window{args.seconds, kProvenQorOps};
    for (std::size_t i = 0; window.open(i, op_ms); ++i) {
        rotate_cpu(i);
        if (i > 0) (void)set_up(layers, setup_s, blif_of, first_blif);
        const std::string blif = i == 0 ? first_blif : blif_of(i);
        report.attempt();

        const Clock::time_point t0 = Clock::now();
        StatusOr<Network> net = read_blif_checked(blif);
        StatusOr<FlowResult> res = net.is_ok() ? run_lily_flow_checked(net.value(), lib, prove)
                                               : StatusOr<FlowResult>(net.status());
        const double ms = ms_since(t0);
        if (!res.is_ok()) {
            report.fail(res.status().to_string());
            continue;
        }
        const FlowResult& flow = res.value();

        // The verdict the op must reach: Proven (an inconclusive proof that
        // the flow accepted on simulation alone does not count). In traced
        // runs the timed check_equivalence replay below supplies it.
        OpLayers op;
        StatusOr<CecResult> cec = Status(StatusCode::Internal, "not run");
        double cec_ms = 0.0;
        {
            const Network impl = flow.netlist.to_network(lib);
            const AllocStats a0 = alloc_stats_snapshot();
            const Clock::time_point t1 = Clock::now();
            cec = check_equivalence(net.value(), impl, prove.cec);
            cec_ms = ms_since(t1);
            op["verify.cec_ms"] = cec_ms;
            op["verify.allocs"] = static_cast<double>(alloc_stats_snapshot().count - a0.count);
        }
        if (!cec.is_ok() || cec.value().verdict != CecVerdict::Proven) {
            report.fail("proven op " + std::to_string(i) + ": verdict " +
                        (cec.is_ok() ? to_string(cec.value().verdict)
                                     : cec.status().to_string().c_str()));
            continue;
        }
        op_ms.add(ms);
        if (i < kProvenQorOps) {
            qor.add(flow.metrics, flow.metrics.critical_delay);
        }
        if (!args.trace) continue;

        const CecStats& st = cec.value().stats;
        op["verify.aig_ands"] = static_cast<double>(st.aig_and_nodes);
        op["verify.sat_calls"] = static_cast<double>(st.sat_calls);
        op["verify.conflicts"] = static_cast<double>(st.conflicts);
        op["verify.merged_nodes"] = static_cast<double>(st.merged_nodes);
        Clock::time_point t1 = Clock::now();
        const StatusOr<Network> traced_net = read_blif_checked(blif);
        const double read_ms = ms_since(t1);
        op["netlist.read_blif_ms"] = read_ms;
        t1 = Clock::now();
        const StatusOr<Replayed> rp = replay_lily_flow(traced_net.value(), lib, replay_opts, op);
        const double replay_ms = ms_since(t1);
        if (!rp.is_ok() || !same_qor(rp.value().metrics, flow.metrics)) {
            report.mark_incorrect("proven op " + std::to_string(i) +
                                  ": traced replay QoR differs from the flow");
            op_ms.values.pop_back();  // keep the traced samples paired
            continue;
        }
        traced_ms.add(read_ms + replay_ms - rp.value().extra_ms + cec_ms);
        covered_ms.add(read_ms + rp.value().flow_ms + cec_ms);
        add_op_layers(layers, op);
    }

    if (args.trace) {
        report_trace_layers(report, layers, op_ms, traced_ms, covered_ms);
        return 0;
    }
    report.end_to_end(op_ms, op_ms.size() / (op_ms.sum() / 1000.0),
                      setup_s.group_means(kSetupGroup), peak_rss_mb(), qor);
    std::vector<std::string> probe;
    for (std::size_t i = 0; i < kProvenProbeCircuits; ++i) probe.push_back(blif_of(i));
    report_eco_probe(report, probe, lib, replay_opts, args.seed);
    return 0;
}

int run_eco_stream(const Args& args, Report& report) {
    ThreadPool::global().resize(kThreads);
    Layers layers;
    Samples setup_s;
    std::optional<Library> lib;
    std::vector<PipelineState> built;
    const FlowOptions area = pinned_options(MapObjective::Area, VerifyLevel::Off, kThreads);
    for (int rep = 0; rep < kEcoSetupReps; ++rep) {
        rotate_cpu(static_cast<std::size_t>(rep));
        built.clear();
        const Clock::time_point t0 = Clock::now();
        lib.emplace(timed_library(layers));
        for (std::size_t k = 0; k < kEcoStreams; ++k) {
            const Network net =
                read_blif(control_blif(kEcoGates, mix(args.seed, k), "eco" + std::to_string(k)));
            StatusOr<PipelineState> state = build_pipeline(net, *lib, area);
            if (!state.is_ok()) {
                std::fprintf(stderr, "perfbench: build_pipeline: %s\n",
                             state.status().to_string().c_str());
                return 1;
            }
            built.push_back(std::move(state).value());
        }
        setup_s.add(ms_since(t0) / 1000.0);
    }

    // Ops go round-robin over the streams; each stream restarts from its
    // built state after kEcoEpoch deltas.
    std::vector<PipelineState> states = built;
    std::vector<std::size_t> steps(kEcoStreams, 0);
    Samples op_ms, traced_ms, covered_ms;
    Qor qor;
    Drift drift;
    Status drift_status = Status::ok();
    std::size_t full_reflows = 0;
    const Window window{args.seconds, kEcoStreams * kEcoEpoch};
    for (std::size_t i = 0; window.open(i, op_ms); ++i) {
        rotate_cpu(i);
        const std::size_t k = i % kEcoStreams;
        PipelineState& state = states[k];
        if (steps[k] == kEcoEpoch) {
            state = built[k];
            steps[k] = 0;
        }
        ++steps[k];
        const NetDelta delta = eco_delta(state.net, mix(args.seed, 100'000 + i));
        report.attempt();

        const Clock::time_point t0 = Clock::now();
        StatusOr<EcoStats> eco = run_eco_flow_checked(state, delta);
        const double ms = ms_since(t0);
        if (!eco.is_ok() || !sim_equivalent(state.net, state.flow.netlist, *lib)) {
            report.fail("eco op " + std::to_string(i) + ": " +
                        (eco.is_ok() ? "mapped netlist miscompares" : eco.status().to_string()));
            state = built[k];
            steps[k] = 0;
            continue;
        }
        op_ms.add(ms);
        if (i / kEcoStreams + 1 == kEcoEpoch && !args.trace) {
            // This stream finished its first epoch: its QoR and drift.
            qor.add(state.flow.metrics, state.flow.metrics.critical_delay);
            const StatusOr<Drift> d = drift_of(state, *lib);
            if (d.is_ok()) {
                drift.wl += d.value().wl / kEcoStreams;
                drift.delay += d.value().delay / kEcoStreams;
            } else {
                drift_status = d.status();
            }
        }
        if (!args.trace) continue;

        // run_eco_flow_checked is the nearest public function around the
        // incremental stages (their glue is private to flow/pipeline.cpp),
        // so the op is that one call and eco.apply_ms is the op's own span:
        // coverage reads 1 and the overhead only counts the bookkeeping.
        const Clock::time_point t2 = Clock::now();
        const EcoStats& s = eco.value();
        layers.add("eco.apply_ms", ms);
        layers.add("eco.remapped_nodes", static_cast<double>(s.remapped_nodes));
        layers.add("eco.map_reuse_ratio", s.map_reuse_ratio());
        layers.add("eco.place_reuse_ratio", s.place_reuse_ratio());
        layers.add("eco.timing_reuse_ratio", s.timing_reuse_ratio());
        if (s.full_reflow) ++full_reflows;
        traced_ms.add(ms + ms_since(t2));
        covered_ms.add(ms);
    }

    if (args.trace) {
        layers.add("eco.full_reflows", static_cast<double>(full_reflows));
        report_trace_layers(report, layers, op_ms, traced_ms, covered_ms);
        return 0;
    }
    report.end_to_end(op_ms, op_ms.size() / (op_ms.sum() / 1000.0), setup_s,
                      peak_rss_mb(), qor);
    report_drift(report, drift_status.is_ok() ? StatusOr<Drift>(drift)
                                              : StatusOr<Drift>(drift_status));
    return 0;
}

}  // namespace perfbench
