// Statistics, the result report, the fixed world and the seeded request
// streams shared by every workload.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/string_util.h"
#include "perfbench/src/perfbench.h"

namespace perfbench {

using sieve::QuerySelectivity;

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v->size())));
  if (rank < 1) rank = 1;
  return (*v)[std::min(rank, v->size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::Fail(const std::string& why) {
  ++failed_;
  if (failures_.size() < 10) failures_.push_back(why);
}

void Report::PrintHuman() const {
  for (const std::string& f : failures_) std::printf("FAILED: %s\n", f.c_str());
  for (const Metric& m : metrics_) {
    std::printf("metric %-32s %16.6f %-6s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::printf("attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              correct() ? "true" : "false");
}

std::string Report::ResultLine() const {
  std::string out = sieve::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // %.17g keeps every digit of the measurement.
    out += sieve::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                            i > 0 ? ", " : "", m.name.c_str(),
                            std::isfinite(m.value) ? m.value : 0.0,
                            m.unit.c_str());
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

std::unique_ptr<World> BuildWorld(double scale, int advanced_policies,
                                  int num_threads) {
  auto world = std::make_unique<World>();
  world->db = std::make_unique<sieve::Database>(sieve::EngineProfile::MySqlLike());
  sieve::TippersConfig config;
  config.num_devices = static_cast<int>(3000 * scale);
  config.num_aps = 64;
  config.num_days = 90;
  config.target_events = static_cast<int>(250000 * scale);
  config.num_groups = 28;
  auto ds = sieve::TippersGenerator(config).Populate(world->db.get());
  if (!ds.ok()) {
    std::fprintf(stderr, "TIPPERS populate failed: %s\n",
                 ds.status().ToString().c_str());
    return nullptr;
  }
  world->dataset = std::move(ds).value();

  sieve::SieveOptions options;
  options.num_threads = num_threads;
  world->mw = std::make_unique<sieve::SieveMiddleware>(
      world->db.get(), &world->dataset.groups, options);
  if (!world->mw->Init().ok()) return nullptr;

  sieve::PolicyGenConfig pg;
  pg.advanced_policies_per_user = advanced_policies;
  auto count = sieve::TippersPolicyGenerator(pg).Generate(
      world->dataset, &world->mw->policies());
  if (!count.ok()) {
    std::fprintf(stderr, "policy generation failed: %s\n",
                 count.status().ToString().c_str());
    return nullptr;
  }
  return world;
}

std::vector<std::pair<std::string, size_t>> World::TopQueriers(
    const std::string& profile, size_t k) const {
  std::map<std::string, size_t> per_querier;
  for (const sieve::Policy& p : mw->policies().policies()) {
    ++per_querier[sieve::ToLower(p.querier)];
  }
  std::vector<std::pair<std::string, size_t>> counted;
  for (const auto& [name, n] : per_querier) {
    if (name.size() < 2 || name[0] != 'u' ||
        !std::all_of(name.begin() + 1, name.end(), ::isdigit)) {
      continue;  // a group grant, not a user
    }
    const size_t device = std::stoul(name.substr(1));
    if (device >= dataset.profiles.size()) continue;
    if (!profile.empty() && dataset.profiles[device] != profile) continue;
    counted.emplace_back(name, n);
  }
  // Ties broken by name so the choice never depends on map iteration.
  std::sort(counted.begin(), counted.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (counted.size() > k) counted.resize(k);
  return counted;
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

const char* const kStatementSql[kNumStatements] = {
    // kCount: indexed COUNT(*) over one access point and a time window.
    "SELECT COUNT(*) FROM WiFi_Dataset AS W WHERE W.wifiAP = ? AND "
    "W.ts_time >= ? AND W.ts_time <= ?",
    // kRange: one access point, one day, one hour.
    "SELECT * FROM WiFi_Dataset AS W WHERE W.wifiAP = ? AND W.ts_date = ? "
    "AND W.ts_time BETWEEN ? AND ?",
    // kStream: one access point over a week, read through a cursor.
    "SELECT * FROM WiFi_Dataset AS W WHERE W.wifiAP = ? AND "
    "W.ts_date BETWEEN ? AND ?",
};

const std::string& StatementOf(const Request& r) {
  static const std::vector<std::string> statements(kStatementSql,
                                                   kStatementSql + kNumStatements);
  if (r.kind == Kind::kAdhoc) return r.sql;
  return statements[static_cast<size_t>(r.kind)];
}

std::string LiteralSql(const Request& r) {
  const std::string& sql = StatementOf(r);
  std::string out;
  size_t next = 0;
  for (char c : sql) {
    if (c == '?' && next < r.params.size()) {
      out += r.params[next++].ToSqlLiteral();
    } else {
      out += c;
    }
  }
  return out;
}

ServeStream::ServeStream(const sieve::TippersDataset& ds, uint64_t seed,
                         int conn)
    : ds_(&ds), rng_(seed * 1000003 + static_cast<uint64_t>(conn) * 7919 + 1),
      conn_(conn) {}

Request ServeStream::Next() {
  const uint64_t slot = i_++ % 20;
  Request r;
  r.querier = conn_;
  r.kind = slot < 17 ? Kind::kCount : slot < 19 ? Kind::kRange : Kind::kStream;
  const int64_t ap = rng_.Uniform(0, ds_->config.num_aps - 1);
  switch (r.kind) {
    case Kind::kCount: {
      const int64_t h = rng_.Uniform(7, 16);
      r.params = {Value::Int(ap), Value::Time(h * 3600),
                  Value::Time((h + rng_.Uniform(1, 4)) * 3600)};
      break;
    }
    case Kind::kRange: {
      const int64_t day = rng_.Uniform(0, ds_->config.num_days - 1);
      const int64_t h = rng_.Uniform(8, 18);
      r.params = {Value::Int(ap), Value::Date(ds_->first_day + day),
                  Value::Time(h * 3600), Value::Time((h + 1) * 3600)};
      break;
    }
    default: {
      const int64_t day = rng_.Uniform(0, ds_->config.num_days - 8);
      r.params = {Value::Int(ap), Value::Date(ds_->first_day + day),
                  Value::Date(ds_->first_day + day + 6)};
      break;
    }
  }
  return r;
}

AdhocStream::AdhocStream(const sieve::TippersDataset& ds, uint64_t seed,
                         int num_queriers)
    : gen_(ds, seed * 1000003 + 11),
      num_groups_(ds.config.num_groups),
      num_queriers_(num_queriers) {}

Request AdhocStream::Next() {
  const uint64_t i = i_++;
  const int cell = static_cast<int>(i % 6);
  const QuerySelectivity sel =
      cell % 2 == 0 ? QuerySelectivity::kLow : QuerySelectivity::kMid;
  Request r;
  r.kind = Kind::kAdhoc;
  r.querier = static_cast<int>((i / 6) % static_cast<uint64_t>(num_queriers_));
  switch (cell / 2) {
    case 0:
      r.sql = gen_.Q1(sel);
      break;
    case 1:
      r.sql = gen_.Q2(sel);
      break;
    default:
      // The group advances once per querier cycle, so every querier
      // meets every group and no seed draws only the large ones.
      r.sql = gen_.Q3(sel, static_cast<int>((i / (6 * static_cast<uint64_t>(num_queriers_))) %
                                            static_cast<uint64_t>(num_groups_)));
      break;
  }
  return r;
}

WriteStream::WriteStream(const sieve::TippersDataset& ds, uint64_t seed,
                         std::vector<std::string> readers, bool target_readers)
    : ds_(&ds),
      rng_(seed * 1000003 + 17),
      readers_(std::move(readers)),
      target_readers_(target_readers),
      residents_(ds.ResidentDevices()) {
  for (int device : residents_) {
    const std::string name = sieve::TippersDataset::UserName(device);
    if (std::find(readers_.begin(), readers_.end(), name) == readers_.end()) {
      bystanders_.push_back(device);
    }
  }
}

Request WriteStream::Next() {
  const uint64_t i = i_++;
  Request r;
  r.kind = Kind::kWrite;
  std::vector<sieve::Policy> generated;
  while (generated.empty()) {
    const int device = residents_[static_cast<size_t>(
        rng_.Uniform(0, static_cast<int64_t>(residents_.size()) - 1))];
    generated = policy_gen_.PoliciesForUser(*ds_, device, /*advanced=*/true, &rng_);
  }
  r.policy = std::move(generated.front());
  if (target_readers_ && !readers_.empty() && i % kTargetPeriod == 0) {
    const size_t reader = (i / kTargetPeriod) % readers_.size();
    r.querier = static_cast<int>(reader);
    r.policy.querier = readers_[reader];
    r.policy.purpose = kPurpose;
  } else {
    r.policy.querier = sieve::TippersDataset::UserName(bystanders_[static_cast<size_t>(
        rng_.Uniform(0, static_cast<int64_t>(bystanders_.size()) - 1))]);
  }
  return r;
}

std::vector<std::string> RowMultiset(const std::vector<sieve::Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const sieve::Row& row : rows) {
    std::string s;
    for (const Value& v : row) {
      s += v.ToString();
      s += '\x1f';
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
