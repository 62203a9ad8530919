// Stale-artifact detection for the incremental (ECO) pipeline: every stage
// artifact records the version of the upstream artifact it was built from,
// and a downstream artifact whose record trails the upstream's current
// version must not be consumed — it describes a circuit that no longer
// exists. The records are plain value types so this checker stays free of a
// dependency on the flow layer (which owns the artifacts themselves).
#pragma once

#include <span>
#include <string>

#include "util/check.hpp"
#include "util/version.hpp"

namespace lily {

/// One stage artifact's version lineage. `upstream` is the current version
/// of the artifact this stage consumes; `built_from` is the upstream
/// version recorded when this stage last (re)built its own artifact.
struct StageVersionRecord {
    std::string stage;  // "subject", "mapping", "backend", ...
    Version built_from = kNeverBuilt;
    Version upstream = kNeverBuilt;
};

/// Validates stage lineage — a pure O(stages) scan, so it runs at
/// CheckLevel Light:
///  * error — a stage is consumed but was never built (kNeverBuilt stamp);
///  * error — built_from < upstream: the artifact is stale (e.g. a
///            MappedNetlist built against an older SubjectGraph epoch);
///  * error — built_from > upstream: the stamp claims an upstream version
///            that does not exist yet, i.e. the bookkeeping is corrupted.
class PipelineChecker {
public:
    CheckReport check(std::span<const StageVersionRecord> records) const;
};

}  // namespace lily
