// lily_perfbench: the repository benchmark's program (see perfbench/NOTES.md).
//
//   lily_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --serve-bin PATH --workdir DIR
//
// perfbench/run.py builds this binary and passes the last two arguments.
// The last line of standard output is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"

extern char** environ;

namespace {

/// Drop every LILY_* variable: each knob they set is pinned explicitly.
void clear_lily_environment() {
    std::vector<std::string> names;
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "LILY_", 5) == 0) {
            const char* eq = std::strchr(*e, '=');
            names.emplace_back(*e, eq == nullptr ? std::strlen(*e) : eq - *e);
        }
    }
    for (const std::string& n : names) ::unsetenv(n.c_str());
}

bool parse_args(int argc, char** argv, perfbench::Args& a) {
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), nullptr, 10);
            have_seed = true;
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), nullptr);
        } else if (key == "--trace") {
            a.trace = val == "1";
        } else if (key == "--serve-bin") {
            a.serve_bin = val;
        } else if (key == "--workdir") {
            a.workdir = val;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && have_seed && a.seconds > 0.0 && !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
    clear_lily_environment();
    perfbench::Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: lily_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                     "--serve-bin PATH --workdir DIR\n");
        return 2;
    }
    perfbench::Report report;
    int rc = 2;
    try {
        if (args.workload == "batch_flow") {
            rc = perfbench::run_batch_flow(args, report);
        } else if (args.workload == "proven_flow") {
            rc = perfbench::run_proven_flow(args, report);
        } else if (args.workload == "eco_stream") {
            rc = perfbench::run_eco_stream(args, report);
        } else if (args.workload == "serve_jobs") {
            rc = perfbench::run_serve_jobs(args, report);
        } else {
            std::fprintf(stderr, "lily_perfbench: unknown workload '%s'\n",
                         args.workload.c_str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lily_perfbench: %s\n", e.what());
        return 1;
    }
    if (rc != 0) return rc;
    report.print(args.workload);
    return 0;
}
