#ifndef SIEVE_PERFBENCH_TRACE_H_
#define SIEVE_PERFBENCH_TRACE_H_

// In-memory span recording around calls into the library's layers, and the
// in-process replay that makes those calls. The benchmark only times calls
// at layer boundaries from outside the library: each span is one call into
// a layer's public function (name "layer.operation"), its parent is the
// span that made the call, and every span of one request shares the
// request id. Spans are written out only when the run ends.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/exec_stats.h"
#include "perfbench/src/fixture.h"
#include "perfbench/src/perfbench.h"

namespace perfbench {

struct SpanRecord {
  const char* name;  ///< static string: "request", "prepare" or "layer.op"
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;    ///< index of the calling span, -1 for a root
  int64_t request;   ///< request id shared by the spans of one request
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  int32_t Begin(const char* name) {
    spans_.push_back({name, NowNs(), 0, current_, request_});
    current_ = static_cast<int32_t>(spans_.size() - 1);
    return current_;
  }
  void End(int32_t id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    current_ = spans_[static_cast<size_t>(id)].parent;
  }
  void set_request(int64_t id) { request_ = id; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
  int32_t current_ = -1;
  int64_t request_ = 0;
};

/// Times one call when a tracer is given; does nothing otherwise.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Per span name: calls, total time and self time (total minus the time
/// its direct children cover).
struct SpanTotals {
  uint64_t calls = 0;
  double total_us = 0;
  double self_us = 0;
};

struct TraceSummary {
  std::map<std::string, SpanTotals> by_name;
  double root_us = 0;        ///< Σ durations of root spans
  double layer_self_us = 0;  ///< Σ self time of non-root spans

  void Add(const std::vector<SpanRecord>& spans);
  /// Mean duration of one call of `name`, µs (0 when never called).
  double MeanUs(const std::string& name) const;
  double TotalUs(const std::string& name) const;
  /// Σ layer self time over replayed request time.
  double Coverage() const { return root_us > 0 ? layer_self_us / root_us : 0; }
};

/// Writes the spans as JSON lines (times relative to the first span).
bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans);
/// Writes the per-name and per-layer self-time summary as JSON.
bool WriteSummary(const std::string& path, const TraceSummary& summary);

// ---------------------------------------------------------------------------
// In-process replay
// ---------------------------------------------------------------------------

/// Outcome of one replay pass over a request list.
struct ReplayPass {
  double seconds = 0;               ///< wall time of the whole pass
  std::vector<double> request_us;   ///< per request of the list
  sieve::ExecStats exec;            ///< Σ over executions
  uint64_t executions = 0;
  uint64_t lookups = 0;             ///< rewrite-cache lookups
  uint64_t hits = 0;
  double guards = 0;                ///< Σ guards over rewritten tables
  double guard_rho = 0;             ///< Σ ρ(G) over rewritten tables
  uint64_t rewritten_tables = 0;
  uint64_t digest = 0;              ///< hash of every result row multiset
  std::vector<uint64_t> row_digests;  ///< per request, 0 for writes
  uint64_t errors = 0;
};

/// Replays requests in-process by calling each layer's public function in
/// the order SieveSession::Prepare and PreparedQuery::Execute do (the
/// server's row encoding included), without the middleware's state gate:
/// the replay runs on one thread. It plans each statement once more than
/// the engine does, outside the cursor, to time Optimizer::Plan.
///
/// `shared_cache` replays through the middleware's rewrite cache: warm from
/// set-up, and its keyed invalidation reacts to writes. Otherwise every pass
/// starts from a private, empty cache, so every new query text misses.
ReplayPass Replay(Fixture* f, const std::vector<Request>& requests,
                  bool shared_cache, Tracer* tracer);

/// Order-independent digest of a row multiset.
uint64_t RowsDigest(const std::vector<sieve::Row>& rows);

}  // namespace perfbench

#endif  // SIEVE_PERFBENCH_TRACE_H_
