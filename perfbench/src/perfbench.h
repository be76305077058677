#ifndef SIEVE_PERFBENCH_PERFBENCH_H_
#define SIEVE_PERFBENCH_PERFBENCH_H_

// Shared declarations of the Sieve benchmark (see perfbench/README.md):
// the fixed TIPPERS world, the seeded request streams, the result report,
// and the small statistics helpers every workload uses.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"
#include "engine/database.h"
#include "policy/policy.h"
#include "sieve/middleware.h"
#include "workload/policy_gen.h"
#include "workload/query_gen.h"
#include "workload/tippers.h"

namespace perfbench {

using sieve::Value;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The status of a Result (Result::status() is valid only on error).
template <typename T>
sieve::Status StatusOf(const sieve::Result<T>& r) {
  return r.ok() ? sieve::Status::OK() : r.status();
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".perfbench_out";
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of `v` (sorted in place); 0 for no samples.
double Percentile(std::vector<double>* v, double p);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);
/// Peak resident set size of this process, MiB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// Result report
// ---------------------------------------------------------------------------

/// Collects the metrics of one run, the attempted/failed operation counts
/// and the reasons of failures, and prints them: a human-readable block,
/// then the one-line JSON result the benchmark contract asks for.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples);
  void Attempted(uint64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation; the first few reasons are printed.
  void Fail(const std::string& why);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  /// Human-readable lines (one per metric, with unit and sample count).
  void PrintHuman() const;
  /// The final contract line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultLine() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    uint64_t samples;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// The fixed TIPPERS world
// ---------------------------------------------------------------------------

/// Engine + dataset + middleware + policy corpus. The world is a fixture:
/// it does not depend on the run's seed, only the request streams do.
struct World {
  std::unique_ptr<sieve::Database> db;
  sieve::TippersDataset dataset;
  std::unique_ptr<sieve::SieveMiddleware> mw;

  /// Users (not groups) that are policy subjects, most policies first;
  /// restricted to one device profile unless `profile` is empty.
  std::vector<std::pair<std::string, size_t>> TopQueriers(
      const std::string& profile, size_t k) const;
};

/// `scale` 1.0 is the full corpus (250k events, ~5.2k policies); 0.1 with
/// 20 advanced policies per user is the serving world (~25k events, ~290
/// policies). `num_threads` is SieveOptions::num_threads.
std::unique_ptr<World> BuildWorld(double scale, int advanced_policies,
                                  int num_threads);

/// Every enforced query runs under this purpose.
inline constexpr const char* kPurpose = "Analytics";
inline constexpr const char* kTable = "WiFi_Dataset";

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

enum class Kind {
  kCount,   ///< prepared indexed COUNT(*)
  kRange,   ///< prepared small-range materialized SELECT
  kStream,  ///< prepared SELECT read through a cursor with FETCH
  kAdhoc,   ///< literal SQL, prepared and executed once
  kWrite,   ///< SieveMiddleware::AddPolicy
};

/// SQL of the prepared statement set, indexed by Kind (kCount..kStream).
inline constexpr int kNumStatements = 3;
extern const char* const kStatementSql[kNumStatements];
/// Rows per FETCH of a kStream request.
inline constexpr uint32_t kStreamChunkRows = 16;

struct Request {
  Kind kind = Kind::kCount;
  int querier = 0;            ///< index into the workload's querier list
  std::vector<Value> params;  ///< prepared kinds
  std::string sql;            ///< kAdhoc
  sieve::Policy policy;       ///< kWrite
};

/// Statement SQL for prepared kinds, the literal SQL for kAdhoc.
const std::string& StatementOf(const Request& r);
/// The request as literal SQL (parameters substituted), for the reference
/// path and the wire PREPARE of ad-hoc requests.
std::string LiteralSql(const Request& r);

/// Prepared-statement traffic of one connection: a fixed 20-slot schedule
/// (17 COUNT, 2 small-range SELECT, 1 cursor stream) with seeded
/// parameters. Connection `conn` gets its own deterministic stream.
class ServeStream {
 public:
  ServeStream(const sieve::TippersDataset& ds, uint64_t seed, int conn);
  Request Next();

 private:
  const sieve::TippersDataset* ds_;
  sieve::Rng rng_;
  int conn_;
  uint64_t i_ = 0;
};

/// Ad-hoc analytic traffic: TippersQueryGenerator Q1/Q2/Q3 at low and mid
/// cardinality, cycling the six cells, the queriers and the Q3 groups in a
/// fixed order; the windows, access points and devices come from the seed.
class AdhocStream {
 public:
  AdhocStream(const sieve::TippersDataset& ds, uint64_t seed,
              int num_queriers);
  Request Next();

 private:
  sieve::TippersQueryGenerator gen_;
  int num_groups_;
  int num_queriers_;
  uint64_t i_ = 0;
};

/// Policy inserts: TippersPolicyGenerator::PoliciesForUser policies. Every
/// `kTargetPeriod`-th write is granted to one of the readers' queriers
/// (purpose kPurpose), forcing a re-prepare; the rest go to bystander users.
/// Without `target_readers` every write goes to a bystander.
class WriteStream {
 public:
  /// policy_churn writes 50 policies a second, so this is one re-prepare a
  /// second. Every write takes the exclusive gate; at 50 writes a second
  /// with every tenth targeted, the gate sat near saturation, where a 2x
  /// slower host cut read throughput 10x and the run-to-run spread swamped
  /// any change. At one re-prepare a second, 50 writes a second rather than
  /// 25 put twice as many writes under policy_add_p99_ms for the same gate
  /// load from re-prepares, which narrowed its run-to-run spread 3x.
  static constexpr int kTargetPeriod = 50;
  WriteStream(const sieve::TippersDataset& ds, uint64_t seed,
              std::vector<std::string> readers, bool target_readers = true);
  Request Next();

 private:
  const sieve::TippersDataset* ds_;
  sieve::TippersPolicyGenerator policy_gen_;
  sieve::Rng rng_;
  std::vector<std::string> readers_;
  bool target_readers_;
  std::vector<int> residents_;
  std::vector<int> bystanders_;
  uint64_t i_ = 0;
};

// ---------------------------------------------------------------------------
// Results as row multisets
// ---------------------------------------------------------------------------

/// Rows rendered and sorted, so two results compare as multisets.
std::vector<std::string> RowMultiset(const std::vector<sieve::Row>& rows);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

int RunServePrepared(const Args& args, Report* report);
int RunAdhocAnalytic(const Args& args, Report* report);
int RunPolicyChurn(const Args& args, Report* report);

}  // namespace perfbench

#endif  // SIEVE_PERFBENCH_PERFBENCH_H_
