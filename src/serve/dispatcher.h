// Range-sharded design-space dispatch: actuaryd in --dispatch mode
// splits one design_space study into contiguous enumeration-index
// windows, runs each window on a worker actuaryd over the ordinary wire
// protocol, and merges the per-shard rankings into a result envelope
// byte-identical to a single-process run of the same spec.
//
// Why byte-identity holds: candidate indices are global (the window
// restricts the scan, not the numbering), every shard ranks by the same
// (total_per_unit, index) order with the same top_k, and the library
// serialises numbers deterministically — so the merged top-K is exactly
// the whole-space top-K, and the merge copies each worker's serialised
// "best" entries and table rows through verbatim rather than re-rounding
// recomputed numbers.  Only the table's rank cells (strings) are
// rewritten, and the space accounting (total/pruned/evaluated) is summed
// from exact integers.  JSON numbers print as shortest round-trip text,
// so the merge sorts on each entry's parsed total_per_unit — exactly the
// double the worker ranked by — with the single-process comparator.
//
// Failure model: a dead or misbehaving worker fails the sharded study —
// there is no silent partial ranking — and surfaces as a structured
// per-study failure with stage "dispatch"; other studies in the same
// request batch still run.  Explain studies and every non-design_space
// kind are evaluated locally by the dispatching server.
#pragma once

#include <string>
#include <vector>

#include "core/actuary.h"
#include "explore/study.h"
#include "util/json.h"

namespace chiplet::serve {

/// One worker actuaryd endpoint.
struct WorkerAddress {
    std::string host = "127.0.0.1";
    unsigned short port = 0;

    [[nodiscard]] std::string label() const {
        return host + ":" + std::to_string(port);
    }
};

/// Parses the --dispatch worker list: comma-separated `host:port` or
/// bare `port` entries (host defaults to 127.0.0.1).  Throws ParseError
/// on an empty list, a bad port, or a malformed entry.
[[nodiscard]] std::vector<WorkerAddress> parse_worker_list(
    const std::string& text);

class Dispatcher {
public:
    struct Config {
        std::vector<WorkerAddress> workers;
        /// Per-shard read timeout; large spaces take a while (0 = none).
        unsigned timeout_seconds = 600;
    };

    explicit Dispatcher(Config config) : config_(std::move(config)) {}

    /// True when `spec` is dispatched instead of evaluated locally: a
    /// design_space study without explain (ledger attachment needs the
    /// winning candidate's system, which only exists whole-space).
    [[nodiscard]] static bool can_shard(const explore::StudySpec& spec);

    [[nodiscard]] const std::vector<WorkerAddress>& workers() const {
        return config_.workers;
    }

    /// Shards `spec` across the workers and returns the merged result
    /// envelope — the same document shape as
    /// explore::to_json(run_study(actuary, spec)), with payload and
    /// table bit-identical to the single-process run ("meta" reflects
    /// the dispatch instead).  Throws chiplet::Error naming the worker
    /// when any shard fails; the caller reports it as a stage
    /// "dispatch" study failure.
    [[nodiscard]] JsonValue run_sharded(const core::ChipletActuary& actuary,
                                        const explore::StudySpec& spec) const;

private:
    Config config_;
};

}  // namespace chiplet::serve
