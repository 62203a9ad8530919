// serve_jobs: a real lily_serve daemon (warm pool of kSlots single-threaded
// workers) driven by a closed loop of kClients connections. Each job is a
// distinct small generated circuit as BLIF text plus the msu_big genlib.
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <thread>

#include "common.hpp"
#include "flow/job.hpp"
#include "library/standard_cells.hpp"
#include "netlist/blif.hpp"
#include "serve/client.hpp"
#include "util/subprocess.hpp"

namespace perfbench {

using namespace lily;

namespace {

constexpr std::uint32_t kSlots = 2;
constexpr int kClients = 2;
constexpr int kSegments = 8;           // window slices, set-ups between them
constexpr int kSetupRepsPerPause = 2;
constexpr unsigned kJobMinGates = 30;
constexpr unsigned kJobMaxGates = 80;
constexpr std::size_t kQorJobs = 200;
constexpr std::size_t kProbeJobs = 16;  // ECO drift probe circuits

JobSpec job_spec(std::uint64_t seed, std::size_t i) {
    JobSpec spec;
    spec.name = "job" + std::to_string(i);
    // Sizes step through 30..80 by job index alone, so every seed serves
    // the same size mix (and the same set-up job) and only the circuit
    // structure varies.
    const unsigned gates =
        kJobMinGates + static_cast<unsigned>(i % (kJobMaxGates - kJobMinGates + 1));
    spec.blif = control_blif(gates, mix(seed, i), spec.name);
    spec.genlib = std::string(msu_big_genlib());
    spec.options.kind = JobFlowKind::Lily;
    spec.options.objective = MapObjective::Area;
    spec.options.check = CheckLevel::Off;
    spec.options.verify = VerifyLevel::Off;
    spec.options.budget_ms = 0.0;
    spec.options.threads = 1;
    return spec;
}

/// A lily_serve daemon started in the working directory (relative socket
/// and spool paths keep the socket path short).
class Daemon {
public:
    Daemon(const std::string& bin, int tag) : socket_("serve" + std::to_string(tag) + ".sock") {
        const std::vector<std::string> argv = {
            bin,
            "--socket=" + socket_,
            "--spool=spool" + std::to_string(tag),
            "--workers=" + std::to_string(kSlots),
            "--queue-cap=16",
            "--pool=warm",
            // Workers live for the whole run, so their peak RSS does not
            // depend on where a planned recycle fell.
            "--recycle-after=0",
        };
        StatusOr<pid_t> spawned = spawn_process(argv, "daemon" + std::to_string(tag) + ".log");
        if (spawned.is_ok()) pid_ = spawned.value();
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Wait until the daemon answers Health (its pool is preforked then).
    bool wait_healthy() {
        if (pid_ < 0) return false;
        ServeClient client(socket_);
        const Clock::time_point t0 = Clock::now();
        while (ms_since(t0) < 20'000.0) {
            if (client.health().is_ok()) return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return false;
    }

    void stop() {
        if (pid_ < 0) return;
        ServeClient client(socket_);
        (void)client.shutdown(/*drain=*/false);
        stop_process(pid_, 5000.0);
        pid_ = -1;
    }

    const std::string& socket() const { return socket_; }
    pid_t pid() const { return pid_; }

private:
    std::string socket_;
    pid_t pid_ = -1;
};

/// Peak resident set of a process plus its direct children (the daemon
/// and its pooled workers), from /proc.
double tree_peak_rss_mb(pid_t root) {
    double total = peak_rss_mb(root);
    DIR* proc = ::opendir("/proc");
    if (proc == nullptr) return total;
    while (const dirent* e = ::readdir(proc)) {
        const char* name = e->d_name;
        if (name[0] < '0' || name[0] > '9') continue;
        std::ifstream stat(std::string("/proc/") + name + "/stat");
        std::string line;
        if (!std::getline(stat, line)) continue;
        const std::size_t close = line.rfind(')');
        if (close == std::string::npos) continue;
        char state = 0;
        long ppid = 0;
        if (std::sscanf(line.c_str() + close + 1, " %c %ld", &state, &ppid) == 2 &&
            ppid == static_cast<long>(root)) {
            total += peak_rss_mb(std::atoi(name));
        }
    }
    ::closedir(proc);
    return total;
}

struct JobRecord {
    std::size_t index = 0;
    double latency_ms = 0.0;
    double submit_ms = 0.0;
    double wait_ms = 0.0;
    std::uint32_t shed = 0;
    std::optional<JobOutcome> outcome;
    std::string error;
};

/// Submit one job (honouring load-shed hints) and wait for its verdict.
/// The op's latency is the submit span plus the wait span.
JobRecord serve_one(ServeClient& client, const JobSpec& spec, std::size_t index) {
    JobRecord rec;
    rec.index = index;
    const Clock::time_point submit0 = Clock::now();
    std::uint64_t id = 0;
    for (;;) {
        const StatusOr<SubmitReply> reply = client.submit(spec);
        if (!reply.is_ok()) {
            rec.error = "submit: " + reply.status().to_string();
            return rec;
        }
        if (reply.value().accepted) {
            id = reply.value().job_id;
            break;
        }
        ++rec.shed;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::max<std::uint32_t>(reply.value().retry_after_ms, 1)));
    }
    rec.submit_ms = ms_since(submit0);
    const Clock::time_point wait0 = Clock::now();
    for (;;) {
        const StatusOr<ResultReply> reply = client.wait(id, 2000);
        if (!reply.is_ok()) {
            rec.error = "wait: " + reply.status().to_string();
            return rec;
        }
        if (reply.value().terminal) {
            rec.outcome = reply.value().outcome;
            break;
        }
    }
    rec.wait_ms = ms_since(wait0);
    rec.latency_ms = rec.submit_ms + rec.wait_ms;
    return rec;
}

}  // namespace

int run_serve_jobs(const Args& args, Report& report) {
    if (::chdir(args.workdir.c_str()) != 0) {
        std::fprintf(stderr, "perfbench: cannot enter %s\n", args.workdir.c_str());
        return 2;
    }
    // Workers are single-threaded; the daemon inherits this environment.
    ::setenv("LILY_THREADS", "1", 1);

    Layers layers;
    Samples setup_s;
    const JobSpec first = job_spec(args.seed, 0);
    std::string first_blif;
    // One set-up: daemon start, prefork and the first job, into `daemon`.
    int tag = 0;
    const auto set_up = [&](std::optional<Daemon>& daemon) -> bool {
        daemon.reset();
        {
            const Clock::time_point t0 = Clock::now();
            const StatusOr<Library> lib = read_genlib_checked(msu_big_genlib(), "msu_big");
            layers.add("library.read_genlib_ms", ms_since(t0));
            if (!lib.is_ok()) {
                std::fprintf(stderr, "perfbench: genlib: %s\n", lib.status().to_string().c_str());
                return false;
            }
        }
        const Clock::time_point t0 = Clock::now();
        daemon.emplace(args.serve_bin, tag++);
        if (!daemon->wait_healthy()) {
            std::fprintf(stderr, "perfbench: lily_serve did not come up\n");
            return false;
        }
        ServeClient client(daemon->socket());
        JobRecord rec = serve_one(client, first, 0);
        setup_s.add(ms_since(t0) / 1000.0);
        if (!rec.outcome.has_value() || rec.outcome->state != JobState::Ok) {
            std::fprintf(stderr, "perfbench: first job failed: %s\n", rec.error.c_str());
            return false;
        }
        if (!first_blif.empty() && rec.outcome->mapped_blif != first_blif) {
            report.mark_incorrect("first job: served BLIF differs between set-ups");
        }
        first_blif = rec.outcome->mapped_blif;
        return true;
    };
    // Set-ups of throwaway daemons, while the measured daemon (if any)
    // sits idle.
    const auto probe_set_ups = [&]() -> bool {
        for (int rep = 0; rep < kSetupRepsPerPause; ++rep) {
            std::optional<Daemon> probe;
            if (!set_up(probe)) return false;
        }
        return true;
    };

    // The measured daemon's own set-up is the first sample.
    std::optional<Daemon> daemon;
    if (!set_up(daemon)) return 1;

    // The closed loop: each client submits its next job only after the
    // previous one reached a verdict. The window is cut into kSegments
    // slices with set-ups of other daemons in the pauses between them and
    // at both ends, so setup_s is a median over the whole run rather than
    // over one burst, which a short stall on the host would skew. The
    // pauses do not count towards the window.
    std::atomic<std::size_t> next{1};
    std::atomic<std::size_t> done{0};
    std::mutex mu;
    std::vector<JobRecord> records;
    double window_ms = 0.0;
    for (int seg = 0; seg < kSegments; ++seg) {
        if (!probe_set_ups()) return 1;
        const bool last = seg + 1 == kSegments;
        const double slice_ms = args.seconds * 1000.0 / kSegments;
        const Clock::time_point start = Clock::now();
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&] {
                ServeClient client(daemon->socket());
                while (ms_since(start) < slice_ms || (last && done.load() < kQorJobs)) {
                    const std::size_t i = next.fetch_add(1);
                    const JobSpec spec = job_spec(args.seed, i);
                    JobRecord rec = serve_one(client, spec, i);
                    done.fetch_add(1);
                    const std::lock_guard<std::mutex> lock(mu);
                    records.push_back(std::move(rec));
                }
            });
        }
        for (std::thread& t : clients) t.join();
        window_ms += ms_since(start);
    }
    const double window_s = window_ms / 1000.0;

    HealthReply health;
    {
        ServeClient client(daemon->socket());
        const StatusOr<HealthReply> h = client.health();
        if (h.is_ok()) health = h.value();
    }
    const double rss_mb = tree_peak_rss_mb(daemon->pid());
    daemon.reset();
    if (!probe_set_ups()) return 1;

    // Check every served result against an in-process run of the same spec.
    std::sort(records.begin(), records.end(),
              [](const JobRecord& a, const JobRecord& b) { return a.index < b.index; });
    if (run_flow_job(first).mapped_blif != first_blif) {
        report.mark_incorrect("first job: served BLIF differs from the in-process run");
    }
    Samples op_ms, traced_ms, covered_ms;
    Qor qor;
    std::uint64_t shed = 0;
    for (const JobRecord& rec : records) {
        report.attempt();
        shed += rec.shed;
        if (!rec.outcome.has_value()) {
            report.fail("job " + std::to_string(rec.index) + ": " + rec.error);
            continue;
        }
        const JobOutcome& served = *rec.outcome;
        const JobSpec spec = job_spec(args.seed, rec.index);
        const Clock::time_point t0 = Clock::now();
        const JobOutcome local = run_flow_job(spec);
        const double inproc_ms = ms_since(t0);
        if (served.state != JobState::Ok || local.mapped_blif != served.mapped_blif) {
            report.fail("job " + std::to_string(rec.index) + ": state " +
                        to_string(served.state) + ", served BLIF " +
                        (local.mapped_blif == served.mapped_blif ? "matches" : "differs"));
            continue;
        }
        op_ms.add(rec.latency_ms);
        if (rec.index <= kQorJobs) {
            qor.add(served.metrics, served.metrics.critical_delay);
        }
        if (!args.trace) continue;
        const Clock::time_point t1 = Clock::now();
        const StatusOr<Network> parsed = read_blif_checked(spec.blif);
        layers.add("netlist.read_blif_ms", ms_since(t1));
        layers.add("serve.submit_ms", rec.submit_ms);
        layers.add("serve.wait_ms", rec.wait_ms);
        layers.add("serve.inproc_ms", inproc_ms);
        layers.add("serve.overhead_ms", rec.latency_ms - inproc_ms);
        traced_ms.add(rec.submit_ms + rec.wait_ms);
        covered_ms.add(inproc_ms);
    }

    if (args.trace) {
        const double probes =
            static_cast<double>(health.cache_hits) + static_cast<double>(health.cache_misses);
        layers.add("serve.cache_hit_ratio",
                   probes == 0.0 ? 0.0 : static_cast<double>(health.cache_hits) / probes);
        layers.add("serve.respawns", static_cast<double>(health.workers_respawned));
        layers.add("serve.shed", static_cast<double>(shed));
        report_trace_layers(report, layers, op_ms, traced_ms, covered_ms);
        return 0;
    }
    report.end_to_end(op_ms, static_cast<double>(op_ms.size()) / window_s, setup_s,
                      rss_mb, qor);
    // ECO drift probe (no ECO path on this workload): single-threaded, as
    // the workers run.
    std::vector<std::string> probe;
    for (std::size_t i = 0; i < kProbeJobs; ++i) probe.push_back(job_spec(args.seed, i).blif);
    report_eco_probe(report, probe, load_library(),
                     pinned_options(MapObjective::Area, VerifyLevel::Off, 1), args.seed);
    return 0;
}

}  // namespace perfbench
