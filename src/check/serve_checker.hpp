// Spool/journal integrity checker (CheckStage::Serve) for the serving
// layer. The spool is the crash-safety boundary: after any sequence of
// worker crashes, SIGKILLed jobs, and server restarts, the journal must
// still describe a consistent set of jobs. The chaos harness runs this
// audit after every run; lily_serve --check-spool and lily_client both
// expose it for operators.
//
// Declared under src/check/ beside the other stage checkers but compiled
// into the lily_serve library (it parses spool records, which live above
// lily_check in the dependency order).
#pragma once

#include <string>

#include "util/check.hpp"

namespace lily {

class ServeChecker {
public:
    /// Audit every record in `spool_dir`:
    ///  * file unreadable, bad magic/version, CRC mismatch, malformed
    ///    payload                                     -> error
    ///  * id in the record disagreeing with the filename -> error
    ///  * duplicate job ids                           -> error
    ///  * terminal record without an embedded outcome, or an outcome whose
    ///    state disagrees with the record state       -> error
    ///  * non-terminal record carrying an outcome     -> warning
    ///  * leftover .tmp file (interrupted atomic write) -> warning
    ///  * directory missing entirely                  -> error
    CheckReport check_spool(const std::string& spool_dir) const;
};

}  // namespace lily
