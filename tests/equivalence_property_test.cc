// Randomized equivalence sweep: for random policy corpora and random
// queries, the Sieve rewrite must return exactly the tuple set of the
// reference semantics eval(E(P), t) — on both engine profiles. This is the
// paper's sound+secure correctness criterion as a property test.
//
// The sweep is also differential across execution modes: every query's
// reference is the serial capacity-1-batch run (num_threads = 1,
// batch_size = 1), and every (batch_size ∈ {0 (adaptive), 1, 3, 64,
// 1024}) ×
// (num_threads ∈ {1, 2, 4, 8}) combination — vectorized batches, morsel-
// parallel drains, and both together — must reproduce the reference rows
// *in the reference order* and the reference ExecStats totals exactly
// (per-worker counters merged at the barrier; batched predicate walks
// counting comparison for comparison with the short-circuit interpreter).
// The query mix covers every parallel interior: plain guarded scans,
// UNION / UNION ALL over guard branches, the hash join of the policy-
// filtered CTE against an unprotected table, grouped + global aggregates
// (COUNT/SUM/MIN/MAX/AVG partial-state merge), and EXCEPT (parallel
// minuend probe + ordered distinct merge), plus mixed UNION / UNION ALL /
// EXCEPT chains (the n-ary UNION folding).
//
// On top of that, the sweep is differential across *API surfaces*: every
// query also runs through SieveSession::Prepare + repeated
// PreparedQuery::Execute (second run hits the rewrite cache) and through a
// small-batch ResultCursor, and both must reproduce the one-shot rows,
// row order and ExecStats byte-identically in serial and parallel mode.

#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "sieve/session.h"
#include "tests/test_fixtures.h"
#include "workload/query_gen.h"

namespace sieve {
namespace {

std::multiset<std::string> Fingerprints(const ResultSet& rs) {
  std::multiset<std::string> out;
  for (const auto& row : rs.rows) {
    std::string fp;
    for (const auto& v : row) fp += v.ToString() + "|";
    out.insert(fp);
  }
  return out;
}

// Ordered fingerprints: serial-vs-parallel equivalence is exact, including
// row order (sieve-vs-reference only compares multisets, since the rewrite
// legitimately reorders).
std::vector<std::string> OrderedFingerprints(const ResultSet& rs) {
  std::vector<std::string> out;
  out.reserve(rs.rows.size());
  for (const auto& row : rs.rows) out.push_back(RowFingerprint(row));
  return out;
}

// Random WHERE clause over the wifi columns; `alias` optionally qualifies
// every predicate (used to keep join predicates unambiguous).
std::vector<std::string> RandomPreds(Rng& rng, const std::string& alias) {
  std::string p = alias.empty() ? "" : alias + ".";
  std::vector<std::string> preds;
  if (rng.Chance(0.5)) {
    preds.push_back(p + "wifiAP = " + std::to_string(rng.Uniform(0, 5)));
  }
  if (rng.Chance(0.5)) {
    int h = static_cast<int>(rng.Uniform(6, 14));
    preds.push_back(StrFormat("%sts_time BETWEEN '%02d:00' AND '%02d:00'",
                              p.c_str(), h,
                              h + static_cast<int>(rng.Uniform(1, 6))));
  }
  if (rng.Chance(0.3)) {
    preds.push_back(StrFormat("%sowner IN (%lld, %lld, %lld)", p.c_str(),
                              (long long)rng.Uniform(0, 9),
                              (long long)rng.Uniform(0, 9),
                              (long long)rng.Uniform(0, 9)));
  }
  return preds;
}

// The query mix: plain guarded scans plus the interior-operator and
// set-operation shapes the parallel executor must reproduce exactly.
std::vector<std::string> MakeQueries(Rng& rng) {
  std::vector<std::string> queries;

  // Plain scans (the PR-2 shapes).
  for (int q = 0; q < 4; ++q) {
    std::string sql = "SELECT * FROM wifi";
    std::vector<std::string> preds = RandomPreds(rng, "");
    if (!preds.empty()) sql += " WHERE " + Join(preds, " AND ");
    queries.push_back(std::move(sql));
  }

  // UNION / UNION ALL of two guarded arms (duplicate-prone: the arms
  // overlap whenever the same row satisfies both predicates).
  {
    const char* op = rng.Chance(0.5) ? "UNION" : "UNION ALL";
    queries.push_back(StrFormat(
        "SELECT * FROM wifi WHERE wifiAP = %lld %s "
        "SELECT * FROM wifi WHERE owner IN (%lld, %lld)",
        (long long)rng.Uniform(0, 5), op, (long long)rng.Uniform(0, 9),
        (long long)rng.Uniform(0, 9)));
  }

  // EXCEPT: the non-monotonic Section-3.1 operator — parallel minuend
  // probe against the once-built subtrahend set, distinct first-occurrence
  // merge.
  {
    queries.push_back(StrFormat(
        "SELECT * FROM wifi WHERE wifiAP < %lld EXCEPT "
        "SELECT * FROM wifi WHERE owner = %lld",
        (long long)rng.Uniform(1, 5), (long long)rng.Uniform(0, 9)));
  }

  // Hash join: probe side is the policy-filtered wifi CTE, build side the
  // unprotected aps lookup table — the Δ-join shape of rewritten
  // multi-table queries.
  {
    std::string sql =
        "SELECT w.id, w.owner, w.wifiAP, a.building FROM wifi w, aps a "
        "WHERE w.wifiAP = a.ap";
    std::vector<std::string> preds = RandomPreds(rng, "w");
    if (!preds.empty()) sql += " AND " + Join(preds, " AND ");
    queries.push_back(std::move(sql));
  }

  // Grouped aggregate over every merge rule (COUNT/SUM/MIN/MAX/AVG).
  {
    std::string sql =
        "SELECT owner, COUNT(*) AS n, SUM(wifiAP) AS s, MIN(ts_time) AS mn, "
        "MAX(ts_time) AS mx, AVG(wifiAP) AS av FROM wifi";
    std::vector<std::string> preds = RandomPreds(rng, "");
    if (!preds.empty()) sql += " WHERE " + Join(preds, " AND ");
    sql += " GROUP BY owner";
    queries.push_back(std::move(sql));
  }

  // Global aggregate (no GROUP BY): exercises the one-row-on-empty-input
  // rule under partial-state merge.
  {
    std::string sql = "SELECT COUNT(*) AS n, AVG(owner) AS av FROM wifi";
    std::vector<std::string> preds = RandomPreds(rng, "");
    if (!preds.empty()) sql += " WHERE " + Join(preds, " AND ");
    queries.push_back(std::move(sql));
  }

  // Mixed set-operation chains: the planner folds consecutive UNION links
  // into one n-ary operator (a UNION over a UNION ALL run included), while
  // UNION ALL after a distinct run and EXCEPT close the run. Each shape
  // must still give the left-fold rows, row order and stats.
  {
    const std::string a = StrFormat("SELECT * FROM wifi WHERE wifiAP = %lld",
                                    (long long)rng.Uniform(0, 5));
    const std::string b =
        StrFormat("SELECT * FROM wifi WHERE owner IN (%lld, %lld)",
                  (long long)rng.Uniform(0, 9), (long long)rng.Uniform(0, 9));
    const std::string c = StrFormat("SELECT * FROM wifi WHERE owner = %lld",
                                    (long long)rng.Uniform(0, 9));
    const std::string d = StrFormat("SELECT * FROM wifi WHERE wifiAP < %lld",
                                    (long long)rng.Uniform(1, 5));
    queries.push_back(a + " UNION ALL " + b + " UNION " + c);
    queries.push_back(a + " UNION " + b + " UNION ALL " + c);
    queries.push_back(a + " UNION " + b + " EXCEPT " + c + " UNION " + d);
  }

  return queries;
}

// Unprotected side table stressing the columnar kernels' NULL handling:
// `reading` is NULL-heavy (~half the rows), `status` is a sometimes-NULL
// string column, and `flag` stays in [0, 10) so `flag > 100` filters
// every row (an all-rows-filtered batch at every batch size).
void AddSensorsTable(Database* db, Rng& rng) {
  Schema schema({{"id", DataType::kInt},
                 {"reading", DataType::kDouble},
                 {"status", DataType::kString},
                 {"flag", DataType::kInt}});
  ASSERT_TRUE(db->CreateTable("sensors", std::move(schema)).ok());
  const char* statuses[] = {"ok", "bad", "warn"};
  for (int i = 0; i < 700; ++i) {
    Value reading = rng.Chance(0.5)
                        ? Value::Null()
                        : Value::Double(rng.Uniform(0, 100) / 100.0);
    Value status = rng.Chance(0.2)
                       ? Value::Null()
                       : Value::String(statuses[rng.Uniform(0, 2)]);
    ASSERT_TRUE(db->Insert("sensors",
                           Row{Value::Int(i), std::move(reading),
                               std::move(status),
                               Value::Int(static_cast<int64_t>(
                                   rng.Uniform(0, 9)))})
                    .ok());
  }
  ASSERT_TRUE(db->Analyze().ok());
}

// Queries over the sensors table: NULL-heavy comparisons (a NULL operand
// makes the predicate false, never an error), an all-rows-filtered
// column, OR/NOT over tri-state inputs, and every comparison operator.
std::vector<std::string> SensorQueries() {
  return {
      "SELECT * FROM sensors WHERE reading > 0.5",
      "SELECT * FROM sensors WHERE reading <= 0.25",
      "SELECT * FROM sensors WHERE flag > 100",          // filters all rows
      "SELECT id FROM sensors WHERE flag > 100",         // and projected
      "SELECT * FROM sensors WHERE status = 'ok'",
      "SELECT * FROM sensors WHERE status <> 'bad'",     // NULLs drop out
      "SELECT * FROM sensors WHERE NOT (reading < 0.9)"
      " UNION ALL SELECT * FROM sensors WHERE reading >= 0.9",
      "SELECT id, flag FROM sensors WHERE reading BETWEEN 0.2 AND 0.8 AND "
      "flag IN (1, 2, 3)",
      "SELECT flag, COUNT(*) AS n FROM sensors WHERE reading > 0.1 OR "
      "status = 'warn' GROUP BY flag",
  };
}

struct SweepConfig {
  uint64_t seed;
  bool postgres;
};

class EquivalenceSweep : public ::testing::TestWithParam<SweepConfig> {};

TEST_P(EquivalenceSweep, SieveMatchesReference) {
  const SweepConfig& cfg = GetParam();
  MiniCampus campus(cfg.postgres ? EngineProfile::PostgresLike()
                                 : EngineProfile::MySqlLike());
  SieveMiddleware sieve(&campus.db(), &campus.groups());
  ASSERT_TRUE(sieve.Init().ok());

  Rng rng(cfg.seed);
  AddSensorsTable(&campus.db(), rng);
  // Random corpus: 5-40 policies across queriers alice/bob/students.
  const char* queriers[] = {"alice", "bob", "students"};
  const char* purposes[] = {"any", "Analytics", "Social"};
  int n_policies = static_cast<int>(rng.Uniform(5, 40));
  for (int i = 0; i < n_policies; ++i) {
    int owner = static_cast<int>(rng.Uniform(0, 9));
    int t1 = -1, t2 = -1, ap = -1;
    if (rng.Chance(0.6)) {
      t1 = static_cast<int>(rng.Uniform(6, 15));
      t2 = t1 + static_cast<int>(rng.Uniform(1, 5));
    }
    if (rng.Chance(0.4)) ap = static_cast<int>(rng.Uniform(0, 5));
    Policy p = campus.MakePolicy(
        owner, queriers[rng.Uniform(0, 2)], purposes[rng.Uniform(0, 2)], t1,
        t2, ap);
    ASSERT_TRUE(sieve.AddPolicy(std::move(p)).ok());
  }

  auto set_exec = [&sieve](int threads, int batch) {
    SieveOptions options = sieve.options();
    options.num_threads = threads;
    options.batch_size = batch;
    ASSERT_TRUE(sieve.set_options(options).ok());
  };

  std::vector<std::string> queries = MakeQueries(rng);
  for (const std::string& q : SensorQueries()) queries.push_back(q);
  for (const std::string& sql : queries) {
    QueryMetadata md{queriers[rng.Uniform(0, 2)], purposes[rng.Uniform(0, 2)]};
    // Group queriers are not people; querier "students" never queries.
    if (md.querier == std::string("students")) md.querier = "carol";

    // Reference: serial execution with capacity-1 batches.
    set_exec(1, 1);
    auto fast = sieve.Execute(sql, md);
    auto oracle = sieve.ExecuteReference(sql, md);
    ASSERT_TRUE(fast.ok()) << sql << " -> " << fast.status().ToString();
    ASSERT_TRUE(oracle.ok()) << sql;
    EXPECT_EQ(Fingerprints(*fast), Fingerprints(*oracle))
        << "querier=" << md.querier << " purpose=" << md.purpose
        << " sql=" << sql;

    // Differential across execution modes: every batch-size × thread
    // combination must reproduce the capacity-1 reference rows, row
    // order and ExecStats totals exactly.
    std::vector<std::string> serial_rows = OrderedFingerprints(*fast);
    for (int batch : {0, 1, 3, 64, 1024}) {  // 0 = adaptive per-operator size
      for (int threads : {1, 2, 4, 8}) {
        if (batch == 1 && threads == 1) continue;  // the reference itself
        set_exec(threads, batch);
        auto swept = sieve.Execute(sql, md);
        ASSERT_TRUE(swept.ok())
            << "batch=" << batch << " threads=" << threads << " sql=" << sql
            << " -> " << swept.status().ToString();
        EXPECT_EQ(serial_rows, OrderedFingerprints(*swept))
            << "batch=" << batch << " threads=" << threads
            << " querier=" << md.querier << " purpose=" << md.purpose
            << " sql=" << sql;
        EXPECT_EQ(fast->stats, swept->stats)
            << "batch=" << batch << " threads=" << threads << " sql=" << sql
            << " reference=" << fast->stats.ToString()
            << " swept=" << swept->stats.ToString();
      }
    }
    set_exec(1, 1024);

    // Differential across API surfaces: prepare once, execute twice (the
    // second run is served by the rewrite cache) and drain a small-batch
    // cursor — all must be byte-identical to the one-shot path (which the
    // sweep above proved identical to the capacity-1 reference).
    {
      SieveSession session(&sieve, md);
      auto prepared = session.Prepare(sql);
      ASSERT_TRUE(prepared.ok()) << sql << " -> "
                                 << prepared.status().ToString();
      for (int run = 0; run < 2; ++run) {
        auto repeated = prepared->Execute();
        ASSERT_TRUE(repeated.ok())
            << "run=" << run << " sql=" << sql << " -> "
            << repeated.status().ToString();
        EXPECT_EQ(serial_rows, OrderedFingerprints(*repeated))
            << "prepared run=" << run << " sql=" << sql;
        EXPECT_EQ(fast->stats, repeated->stats)
            << "prepared run=" << run << " sql=" << sql;
      }
      auto cursor = prepared->OpenCursor();
      ASSERT_TRUE(cursor.ok()) << sql;
      ResultSet chunked;
      chunked.schema = cursor->schema();
      while (true) {
        auto more = cursor->Next(&chunked.rows, /*max_rows=*/3);
        ASSERT_TRUE(more.ok()) << sql << " -> " << more.status().ToString();
        if (!*more) break;
      }
      EXPECT_EQ(serial_rows, OrderedFingerprints(chunked))
          << "cursor sql=" << sql;
      EXPECT_EQ(fast->stats, cursor->stats()) << "cursor sql=" << sql;
    }

    // Differential across thread counts for the reference semantics and
    // the prepared path too (both at the default batch size — the grid
    // above already covered the one-shot Sieve path).
    for (int threads : {2, 4, 8}) {
      set_exec(threads, 1024);
      auto parallel_oracle = sieve.ExecuteReference(sql, md);
      ASSERT_TRUE(parallel_oracle.ok()) << "threads=" << threads;
      EXPECT_EQ(Fingerprints(*oracle), Fingerprints(*parallel_oracle))
          << "threads=" << threads << " sql=" << sql;

      SieveSession session(&sieve, md);
      auto prepared = session.Prepare(sql);
      ASSERT_TRUE(prepared.ok()) << "threads=" << threads << " sql=" << sql;
      auto repeated = prepared->Execute();
      ASSERT_TRUE(repeated.ok()) << "threads=" << threads << " sql=" << sql;
      EXPECT_EQ(serial_rows, OrderedFingerprints(*repeated))
          << "prepared threads=" << threads << " sql=" << sql;
      EXPECT_EQ(fast->stats, repeated->stats)
          << "prepared threads=" << threads << " sql=" << sql;
    }
    set_exec(1, 1024);
  }
}

// Churn sweep: the policy corpus mutates mid-stream (direct-querier
// inserts, group grants, removals) while every querier holds prepared
// queries. After each mutation, exactly the affected queriers' snapshots
// may go stale — a grant to "students" touches bob and carol but never
// alice — and every execution, refreshed or cached, must match the
// reference answer for the corpus in force at that moment.
TEST_P(EquivalenceSweep, MidStreamChurnKeepsResultsEquivalent) {
  const SweepConfig& cfg = GetParam();
  MiniCampus campus(cfg.postgres ? EngineProfile::PostgresLike()
                                 : EngineProfile::MySqlLike());
  SieveMiddleware sieve(&campus.db(), &campus.groups());
  ASSERT_TRUE(sieve.Init().ok());
  Rng rng(cfg.seed * 7 + 13);

  const std::vector<std::string> queriers = {"alice", "bob", "carol"};
  // bob and carol are students; a grant to the group affects both.
  auto affected_by = [](const std::string& grantee,
                        const std::string& querier) {
    return grantee == querier ||
           (grantee == "students" && (querier == "bob" || querier == "carol"));
  };

  std::vector<std::vector<int64_t>> removable(queriers.size());
  for (size_t q = 0; q < queriers.size(); ++q) {
    auto id = sieve.AddPolicy(
        campus.MakePolicy(static_cast<int>(q), queriers[q], "Analytics"));
    ASSERT_TRUE(id.ok());
    removable[q].push_back(*id);
  }

  // Two prepared shapes per querier: a guarded scan and an aggregate.
  const std::vector<std::string> shapes = {
      "SELECT * FROM wifi WHERE wifiAP <= 3",
      "SELECT owner, COUNT(*) AS n FROM wifi GROUP BY owner",
  };
  std::vector<SieveSession> sessions;
  std::vector<std::vector<PreparedQuery>> prepared(queriers.size());
  for (size_t q = 0; q < queriers.size(); ++q) {
    sessions.emplace_back(&sieve, QueryMetadata{queriers[q], "Analytics"});
  }
  for (size_t q = 0; q < queriers.size(); ++q) {
    for (const auto& sql : shapes) {
      auto p = sessions[q].Prepare(sql);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      prepared[q].push_back(std::move(*p));
    }
  }

  for (int round = 0; round < 10; ++round) {
    std::vector<std::vector<std::shared_ptr<const PreparedRewrite>>> snaps(
        queriers.size());
    for (size_t q = 0; q < queriers.size(); ++q) {
      for (auto& p : prepared[q]) snaps[q].push_back(p.rewrite());
    }

    std::string grantee;
    size_t target = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(queriers.size()) - 1));
    bool remove = round >= 4 && rng.Chance(0.4) && !removable[target].empty();
    if (remove) {
      // Removal bypasses the middleware on purpose: the store listeners
      // alone must invalidate the affected cache entries.
      grantee = queriers[target];
      int64_t id = removable[target].back();
      removable[target].pop_back();
      ASSERT_TRUE(sieve.policies().RemovePolicy(id).ok());
      sieve.guards().MarkOutdated(grantee, "Analytics", "wifi");
    } else if (rng.Chance(0.25)) {
      grantee = "students";
      ASSERT_TRUE(
          sieve
              .AddPolicy(campus.MakePolicy(
                  static_cast<int>(rng.Uniform(0, 9)), "students", "Analytics"))
              .ok());
    } else {
      grantee = queriers[target];
      auto id = sieve.AddPolicy(campus.MakePolicy(
          static_cast<int>(rng.Uniform(0, 9)), grantee, "Analytics"));
      ASSERT_TRUE(id.ok());
      removable[target].push_back(*id);
    }

    for (size_t q = 0; q < queriers.size(); ++q) {
      for (const auto& snap : snaps[q]) {
        if (affected_by(grantee, queriers[q])) {
          EXPECT_TRUE(snap->stale())
              << "round " << round << " grantee " << grantee << " querier "
              << queriers[q];
        } else {
          EXPECT_FALSE(snap->stale())
              << "round " << round << " grantee " << grantee << " querier "
              << queriers[q];
        }
      }
    }

    for (size_t q = 0; q < queriers.size(); ++q) {
      for (size_t s = 0; s < shapes.size(); ++s) {
        auto result = prepared[q][s].Execute();
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        auto oracle = sieve.ExecuteReference(
            shapes[s], QueryMetadata{queriers[q], "Analytics"});
        ASSERT_TRUE(oracle.ok());
        EXPECT_EQ(Fingerprints(*result), Fingerprints(*oracle))
            << "round " << round << " querier " << queriers[q] << " sql "
            << shapes[s];
        if (!affected_by(grantee, queriers[q])) {
          EXPECT_EQ(prepared[q][s].rewrite().get(), snaps[q][s].get())
              << "round " << round << " bystander " << queriers[q]
              << " must keep its cached rewrite";
        }
      }
    }
  }
}

// Hospital scenario sweep: the GDPR-style corpus (purpose-limited role/
// ward/attending grants over Encounters and Diagnoses) runs the same
// serial-vs-parallel/batch differential as the campus sweep — every
// (num_threads ∈ {1, 2, 4, 8}) × (batch_size ∈ {0, 1, 64, 1024}) combo
// must reproduce the serial (1, 1) reference rows in order, with exactly
// the reference ExecStats.
class HospitalSweep : public ::testing::TestWithParam<SweepConfig> {};

TEST_P(HospitalSweep, SerialParallelBatchEquivalence) {
  const SweepConfig& cfg = GetParam();
  HospitalWorld* world = HospitalWorld::Get(
      cfg.postgres ? EngineProfile::PostgresLike()
                   : EngineProfile::MySqlLike());
  ASSERT_NE(world, nullptr);
  SieveMiddleware& sieve = *world->sieve;
  const SieveOptions saved = sieve.options();

  auto set_exec = [&sieve](int threads, int batch) {
    SieveOptions options = sieve.options();
    options.num_threads = threads;
    options.batch_size = batch;
    ASSERT_TRUE(sieve.set_options(options).ok());
  };

  // Staff queriers covering every purpose-limited role plus an attending
  // physician queried by name.
  std::vector<QueryMetadata> staff;
  const HospitalDataset& ds = world->dataset;
  auto add_staff = [&staff, &ds](const char* role, const char* purpose) {
    auto ids = ds.StaffWithRole(role);
    ASSERT_FALSE(ids.empty()) << role;
    staff.push_back({HospitalDataset::StaffName(ids[0]), purpose});
  };
  add_staff("doctor", "Treatment");
  add_staff("nurse", "Treatment");
  add_staff("researcher", "Research");
  add_staff("billing", "Billing");
  staff.push_back({HospitalDataset::StaffName(ds.attending_of[0]),
                   "Treatment"});

  HospitalQueryGenerator gen(ds, cfg.seed);
  std::vector<std::string> queries;
  for (QuerySelectivity sel : {QuerySelectivity::kLow, QuerySelectivity::kMid,
                               QuerySelectivity::kHigh}) {
    queries.push_back(gen.HQ1(sel));
    queries.push_back(gen.HQ2(sel));
    queries.push_back(gen.HQ3(sel));
  }
  queries.push_back(HospitalQueryGenerator::SelectAllEncounters());
  queries.push_back(HospitalQueryGenerator::SelectAllDiagnoses());

  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string& sql = queries[i];
    const QueryMetadata& md = staff[i % staff.size()];

    set_exec(1, 1);
    auto serial = sieve.Execute(sql, md);
    ASSERT_TRUE(serial.ok()) << sql << " -> " << serial.status().ToString();
    auto oracle = sieve.ExecuteReference(sql, md);
    ASSERT_TRUE(oracle.ok()) << sql;
    EXPECT_EQ(Fingerprints(*serial), Fingerprints(*oracle))
        << "querier=" << md.querier << " purpose=" << md.purpose
        << " sql=" << sql;

    std::vector<std::string> serial_rows = OrderedFingerprints(*serial);
    for (int batch : {0, 1, 64, 1024}) {
      for (int threads : {1, 2, 4, 8}) {
        if (batch == 1 && threads == 1) continue;  // the reference itself
        set_exec(threads, batch);
        auto swept = sieve.Execute(sql, md);
        ASSERT_TRUE(swept.ok())
            << "batch=" << batch << " threads=" << threads << " sql=" << sql
            << " -> " << swept.status().ToString();
        EXPECT_EQ(serial_rows, OrderedFingerprints(*swept))
            << "batch=" << batch << " threads=" << threads
            << " querier=" << md.querier << " sql=" << sql;
        EXPECT_EQ(serial->stats, swept->stats)
            << "batch=" << batch << " threads=" << threads << " sql=" << sql
            << " reference=" << serial->stats.ToString()
            << " swept=" << swept->stats.ToString();
      }
    }
  }
  ASSERT_TRUE(sieve.set_options(saved).ok());
}

INSTANTIATE_TEST_SUITE_P(
    HospitalCorpora, HospitalSweep,
    ::testing::Values(SweepConfig{301, false}, SweepConfig{302, true}),
    [](const ::testing::TestParamInfo<SweepConfig>& info) {
      return (info.param.postgres ? std::string("pg_") : std::string("my_")) +
             std::to_string(info.param.seed);
    });

INSTANTIATE_TEST_SUITE_P(
    RandomCorpora, EquivalenceSweep,
    ::testing::Values(SweepConfig{101, false}, SweepConfig{102, false},
                      SweepConfig{103, false}, SweepConfig{104, false},
                      SweepConfig{105, false}, SweepConfig{201, true},
                      SweepConfig{202, true}, SweepConfig{203, true},
                      SweepConfig{204, true}, SweepConfig{205, true}),
    [](const ::testing::TestParamInfo<SweepConfig>& info) {
      return (info.param.postgres ? std::string("pg_") : std::string("my_")) +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace sieve
