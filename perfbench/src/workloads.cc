// The three workloads. Each runs in its own process, on one CPU: set-up
// (timed several times), the timed window with tracing off, the correctness
// gate; or, with --trace 1, the traced in-process replay of the same seeded
// stream that gives the per-layer metrics.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <latch>
#include <thread>

#include "common/string_util.h"
#include "perfbench/src/fixture.h"
#include "perfbench/src/trace.h"
#include "sieve/guard_selection.h"

namespace perfbench {

namespace {

using sieve::Status;

/// policy_churn's open-loop writer.
constexpr double kChurnWritesPerSecond = 50.0;
/// Length of the slices the timed window is cut into (see FinishEndToEnd).
/// serve_prepared completes thousands of requests a second, so one second
/// holds enough for a p99; adhoc_analytic about 16, so its slices are
/// longer. policy_churn's slice is one cycle of its targeted writes (see
/// ChurnSliceSeconds).
constexpr double kServeSliceSeconds = 1.0;
constexpr double kAdhocSliceSeconds = 4.0;

/// policy_churn re-prepares one reader a second, the readers in turn, and
/// the readers' re-prepares cost different amounts. A slice of one full
/// turn holds one re-prepare of each reader, so every slice sees the same
/// mix of stalls.
double ChurnSliceSeconds(int readers) {
  return readers * WriteStream::kTargetPeriod / kChurnWritesPerSecond;
}

/// Whole slices of about `slice_s` in a window of `seconds`, at least one.
int SlicesFor(double seconds, double slice_s) {
  return static_cast<int>(std::clamp<long>(std::lround(seconds / slice_s), 1, 65535));
}

struct Options {
  const Args* args;
  const char* name;
  FixtureSpec spec;
};

/// Restricts this process, and every thread it starts from now on, to the
/// first CPU it may run on. The wire workloads hand each request from the
/// client thread to the server's IO thread, a worker and back; across CPUs
/// each hand-off can wake an idle CPU, which a busy host serves late, so
/// 10% host steal halved their throughput. On one CPU the hand-offs are
/// context switches, and host steal slows a run about in proportion.
/// adhoc_analytic's executor threads share the one CPU as well, so it
/// measures the parallel plan's total work, not its speed-up.
void PinProcessToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      std::printf("pinned to cpu %d\n", cpu);
    }
    return;
  }
}

void SleepUntilNs(int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

/// Latencies and outcomes of one client thread, each latency with the slice
/// of the timed window it ended in (see SliceStats). Samples are floats in
/// storage reserved up front (untouched pages are not resident), so the
/// tally adds about 6 bytes of resident memory per request and
/// peak_rss_mb moves little with throughput.
struct Tally {
  Tally() {
    latency_ms.reserve(1 << 22);
    slice.reserve(1 << 22);
  }
  std::vector<float> latency_ms;
  std::vector<uint16_t> slice;
  uint64_t failed = 0;
  std::string first_error;

  void Record(const Status& s, int64_t start_ns, int64_t end_ns, int slice_of_end) {
    if (s.ok()) {
      latency_ms.push_back(static_cast<float>(static_cast<double>(end_ns - start_ns) * 1e-6));
      slice.push_back(static_cast<uint16_t>(slice_of_end));
    } else if (failed++ == 0) {
      first_error = s.ToString();
    }
  }
};

/// Window shared by the client threads: they get ready, wait for `go`,
/// then issue requests until `end_ns`.
struct Window {
  Window(int threads, int slices) : ready(threads), slices(slices) {}
  std::latch ready;
  const int slices;
  std::atomic<bool> go{false};
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  void WaitForStart() {
    ready.count_down();
    while (!go.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  void Start(double seconds) {
    ready.wait();
    start_ns = NowNs();
    end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
    go.store(true, std::memory_order_release);
  }
  /// The slice of the window that time `t` falls in, 0..slices-1.
  int SliceOf(int64_t t) const {
    const int64_t i = (t - start_ns) * slices / std::max<int64_t>(1, end_ns - start_ns);
    return static_cast<int>(std::clamp<int64_t>(i, 0, slices - 1));
  }
};

/// Closed-loop wire client on an open connection: next request on reply.
void WireClient(WireConn* conn, ServeStream stream, Window* window, Tally* tally) {
  window->WaitForStart();
  std::vector<sieve::Row> rows;
  while (NowNs() < window->end_ns) {
    const Request r = stream.Next();
    const int64_t t0 = NowNs();
    const Status s = conn->Run(r, &rows);
    const int64_t t1 = NowNs();
    tally->Record(s, t0, t1, window->SliceOf(t1));
  }
}

/// One open wire connection per querier of the fixture; they outlive the
/// window, so the gate can check the connections the window used.
bool OpenWireConns(Fixture* f, std::vector<std::unique_ptr<WireConn>>* conns,
                   Report* report) {
  for (const std::string& token : f->tokens) {
    conns->push_back(std::make_unique<WireConn>());
    const Status s = conns->back()->Open(f->server->port(), token);
    if (!s.ok()) {
      report->Attempted();
      report->Fail("wire connection failed: " + s.ToString());
      return false;
    }
  }
  return true;
}

/// Open-loop writer: write k is due at start + k / rate, and its latency is
/// timed from when it was due.
struct WriterTally {
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;
  uint64_t failed = 0;
};

void OpenLoopWriter(sieve::SieveMiddleware* mw, const std::vector<Request>* writes,
                    double rate, Window* window, WriterTally* tally) {
  window->WaitForStart();
  for (size_t k = 0; k < writes->size(); ++k) {
    const int64_t due =
        window->start_ns + static_cast<int64_t>(static_cast<double>(k) * 1e9 / rate);
    if (due >= window->end_ns) break;
    SleepUntilNs(due);
    const int64_t begin = NowNs();
    const bool ok = mw->AddPolicy((*writes)[k].policy).ok();
    const int64_t end = NowNs();
    tally->lateness_ms.push_back(static_cast<double>(begin - due) * 1e-6);
    if (ok) {
      tally->latency_ms.push_back(static_cast<double>(end - due) * 1e-6);
    } else {
      ++tally->failed;
    }
  }
}

std::vector<std::string> QuerierNames(const Fixture& f) {
  std::vector<std::string> names;
  for (const auto& md : f.queriers) names.push_back(md.querier);
  return names;
}

/// Times `n` uncontended AddPolicy calls of bystander policies, ms each.
/// The rewrite cache is emptied first: keyed invalidation scans the cached
/// entries of the table, so otherwise the cost would depend on how many
/// queries ran before.
std::vector<double> TimeAdds(World* world, const std::vector<std::string>& queriers,
                             uint64_t seed, int n, Report* report) {
  world->mw->rewrite_cache().Clear();
  WriteStream writes(world->dataset, seed, queriers, /*target_readers=*/false);
  std::vector<double> ms;
  for (int i = 0; i < n; ++i) {
    const Request w = writes.Next();
    const int64_t t0 = NowNs();
    const bool ok = world->mw->AddPolicy(w.policy).ok();
    const int64_t t1 = NowNs();
    report->Attempted();
    if (ok) {
      ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    } else {
      report->Fail("AddPolicy failed");
    }
  }
  return ms;
}

void PrintSetup(const std::vector<double>& seconds) {
  std::printf("setup runs (s):");
  for (double s : seconds) std::printf(" %.4f", s);
  std::printf("\n");
}

/// The end-to-end metrics of a window. Called right after the window;
/// peak_rss_mb is read first, before anything else runs. query_qps,
/// query_p50_ms and query_p99_ms are means over the window's slices of each
/// slice's throughput and percentiles. Host noise comes in phases of seconds
/// that often last the whole run, not in bursts a trimmed mean would drop:
/// over two 10-seed sets, plain means spread no more from run to run than
/// interquartile means or medians on 15 of the 18 workload-metric pairs.
void FinishEndToEnd(const std::vector<double>& setup_seconds,
                    std::vector<Tally>* readers, const Window& window,
                    Report* report) {
  report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  std::vector<std::vector<double>> by_slice(static_cast<size_t>(window.slices));
  uint64_t completed = 0;
  uint64_t failed = 0;
  for (Tally& t : *readers) {
    for (size_t i = 0; i < t.latency_ms.size(); ++i) {
      by_slice[t.slice[i]].push_back(t.latency_ms[i]);
    }
    completed += t.latency_ms.size();
    failed += t.failed;
    if (t.failed > 0) report->Fail("query failed: " + t.first_error);
    for (uint64_t i = 1; i < t.failed; ++i) report->Fail("query failed");
  }
  report->Attempted(completed + failed);
  const double slice_s =
      static_cast<double>(window.end_ns - window.start_ns) * 1e-9 / window.slices;
  std::vector<double> qps, p50, p99;
  for (std::vector<double>& ms : by_slice) {
    qps.push_back(static_cast<double>(ms.size()) / slice_s);
    p50.push_back(Percentile(&ms, 0.50));
    p99.push_back(Percentile(&ms, 0.99));
  }
  std::printf("slices of %.3f s: qps", slice_s);
  for (double v : qps) std::printf(" %.0f", v);
  std::printf("\nslices p50_ms");
  for (double v : p50) std::printf(" %.3f", v);
  std::printf("\nslices p99_ms");
  for (double v : p99) std::printf(" %.3f", v);
  std::printf("\n");
  report->Add("setup_s", Median(setup_seconds), "s", setup_seconds.size());
  report->Add("query_qps", Mean(qps), "1/s", completed);
  report->Add("query_p50_ms", Mean(p50), "ms", completed);
  report->Add("query_p99_ms", Mean(p99), "ms", completed);
}

void PrintErrorRatio(const Report& report) {
  std::printf("error_ratio %.6f (failed %llu of %llu attempted operations)\n",
              report.attempted() == 0
                  ? 0.0
                  : static_cast<double>(report.failed()) /
                        static_cast<double>(report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// Readers for the contended-add measurement: in-process sessions cycling
/// through the reads of the replay list.
void ContendedReader(Fixture* f, std::vector<Request> reads,
                     std::atomic<bool>* stop, std::atomic<uint64_t>* errors) {
  if (reads.empty()) return;
  LocalConn conn(f->world->mw.get(), f->queriers[static_cast<size_t>(reads[0].querier)]);
  std::vector<sieve::Row> rows;
  for (size_t i = 0; !stop->load(std::memory_order_relaxed); ++i) {
    if (!conn.Run(reads[i % reads.size()], &rows).ok()) ++*errors;
  }
}

void ReportCounts(const ReplayPass& p, Report* report) {
  const double n = static_cast<double>(std::max<uint64_t>(1, p.executions));
  const uint64_t e = p.executions;
  const sieve::ExecStats& s = p.exec;
  report->Add("plan.tuples_scanned", static_cast<double>(s.tuples_scanned) / n, "count", e);
  report->Add("plan.index_probe_rows", static_cast<double>(s.index_probe_rows) / n, "count", e);
  report->Add("plan.rows_out", static_cast<double>(s.rows_output) / n, "count", e);
  report->Add("plan.examined_per_row_out",
              static_cast<double>(s.tuples_scanned + s.index_probe_rows) /
                  static_cast<double>(std::max<uint64_t>(1, s.rows_output)),
              "ratio", e);
  report->Add("expr.comparisons", static_cast<double>(s.comparisons) / n, "count", e);
  report->Add("sieve.policy_evals", static_cast<double>(s.policy_evals) / n, "count", e);
  report->Add("sieve.delta_udf_calls", static_cast<double>(s.udf_invocations) / n, "count", e);
  report->Add("sieve.delta_policy_checks", static_cast<double>(s.udf_policy_checks) / n,
              "count", e);
  const double tables = static_cast<double>(std::max<uint64_t>(1, p.rewritten_tables));
  report->Add("sieve.guard_count", p.guards / tables, "count", p.rewritten_tables);
  report->Add("sieve.guard_rho", p.guard_rho / tables, "ratio", p.rewritten_tables);
  report->Add("sieve.cache_hit_ratio",
              static_cast<double>(p.hits) /
                  static_cast<double>(std::max<uint64_t>(1, p.lookups)),
              "ratio", p.lookups);
  std::printf("exec_stats_total %s executions=%llu digest=%016llx\n",
              s.ToString().c_str(), static_cast<unsigned long long>(e),
              static_cast<unsigned long long>(p.digest));
}

int RunTraced(const Options& o, Fixture* f, const std::vector<Request>& list,
              bool shared_cache, Report* report) {
  const Args& args = *o.args;
  sieve::SieveMiddleware& mw = *f->world->mw;
  const sieve::RewriteCacheStats cache_before = mw.rewrite_cache_stats();
  const bool has_writes = std::any_of(list.begin(), list.end(), [](const Request& r) {
    return r.kind == Kind::kWrite;
  });
  // The request stream at this seed, as one digest two runs can compare.
  uint64_t stream_digest = 1469598103934665603ull;
  for (const Request& r : list) {
    const std::string text = r.kind == Kind::kWrite
                                 ? r.policy.ToString()
                                 : LiteralSql(r) + "#" + std::to_string(r.querier);
    for (char c : text) {
      stream_digest = (stream_digest ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  std::printf("stream_digest %016llx (%zu requests)\n",
              static_cast<unsigned long long>(stream_digest), list.size());

  // 1. Untraced and traced replays of the same list, alternating, until
  //    half the run is used (at least one pair).
  const int64_t replay_end = NowNs() + static_cast<int64_t>(args.seconds * 0.5e9);
  std::vector<double> untraced_s, traced_s;
  TraceSummary summary;
  ReplayPass first_traced, first_untraced;
  std::vector<SpanRecord> first_spans;
  while (untraced_s.empty() || NowNs() < replay_end) {
    ReplayPass u = Replay(f, list, shared_cache, nullptr);
    Tracer tracer;
    ReplayPass t = Replay(f, list, shared_cache, &tracer);
    report->Attempted(2 * list.size());
    for (uint64_t i = 0; i < u.errors + t.errors; ++i) report->Fail("replayed request failed");
    summary.Add(tracer.spans());
    if (untraced_s.empty()) {
      first_untraced = u;
      first_traced = t;
      first_spans = tracer.spans();
    } else if (!has_writes &&
               (u.exec != first_untraced.exec || t.exec != first_untraced.exec ||
                u.digest != first_untraced.digest || t.digest != first_untraced.digest)) {
      // Without writes every pass must repeat the first exactly.
      report->Fail("replay pass differs from the first (rows or ExecStats)");
    }
    if (!has_writes && t.exec != u.exec) {
      report->Fail("traced replay differs from untraced replay");
    }
    untraced_s.push_back(u.seconds);
    traced_s.push_back(t.seconds);
  }
  std::printf("replay passes: %zu untraced + %zu traced of %zu requests\n",
              untraced_s.size(), traced_s.size(), list.size());

  // 2. Wire replay of the reads against an in-process replay of the same
  //    reads: server overhead, wire rows == in-process rows.
  std::vector<Request> reads;
  for (const Request& r : list) {
    if (r.kind != Kind::kWrite) reads.push_back(r);
  }
  // A first pass absorbs the re-prepares the replayed writes left behind.
  if (has_writes) Replay(f, reads, shared_cache, nullptr);
  const ReplayPass local = Replay(f, reads, shared_cache, nullptr);
  std::vector<std::unique_ptr<WireConn>> conns;
  for (const std::string& token : f->tokens) {
    conns.push_back(std::make_unique<WireConn>());
    if (!conns.back()->Open(f->server->port(), token).ok()) {
      report->Fail("wire connection failed");
      return 1;
    }
  }
  // Per request: wire round trip minus the in-process replay of it.
  std::vector<double> overhead_us;
  std::vector<sieve::Row> rows;
  for (size_t i = 0; i < reads.size(); ++i) {
    const int64_t t0 = NowNs();
    const Status s = conns[static_cast<size_t>(reads[i].querier)]->Run(reads[i], &rows);
    overhead_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3 - local.request_us[i]);
    report->Attempted();
    if (!s.ok()) {
      report->Fail("wire replay failed: " + s.ToString());
    } else if (RowsDigest(rows) != local.row_digests[i]) {
      report->Fail("wire rows != in-process rows for " + LiteralSql(reads[i]));
    }
  }
  conns.clear();
  const double plan_us = summary.MeanUs("plan.plan");
  // The in-process replay plans once more than the server does.
  const double server_overhead_us = Median(overhead_us) + plan_us;

  // 3. Writes: uncontended adds, guard generation, contended adds.
  std::vector<double> add_ms =
      TimeAdds(f->world.get(), QuerierNames(*f), args.seed + 7777, 200, report);
  WriteStream writes(f->world->dataset, args.seed + 7777, QuerierNames(*f));
  const double add_us = Median(add_ms) * 1e3;
  std::vector<double> guardgen_ms;
  sieve::GuardedExpressionBuilder builder(&mw.db(), &mw.policies(), &mw.cost_model(),
                                          &f->world->dataset.groups);
  for (const sieve::QueryMetadata& md : f->queriers) {
    const int64_t t0 = NowNs();
    const bool ok = builder.Build(md, kTable).ok();
    guardgen_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    report->Attempted();
    if (!ok) report->Fail("guard generation failed");
  }
  std::vector<double> contended_ms;
  {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reader_errors{0};
    std::vector<std::jthread> readers;
    const size_t n_readers = std::min<size_t>(3, f->queriers.size());
    for (size_t q = 0; q < n_readers; ++q) {
      std::vector<Request> mine;
      for (const Request& r : reads) {
        if (static_cast<size_t>(r.querier) == q) mine.push_back(r);
      }
      readers.emplace_back(ContendedReader, f, std::move(mine), &stop, &reader_errors);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    for (int i = 0; i < 100; ++i) {
      const Request w = writes.Next();
      const int64_t t0 = NowNs();
      const bool ok = mw.AddPolicy(w.policy).ok();
      contended_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      report->Attempted();
      if (!ok) report->Fail("contended AddPolicy failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true);
    readers.clear();  // joins
    for (uint64_t i = 0; i < reader_errors.load(); ++i) report->Fail("reader failed");
  }

  // 4. Per-layer metrics.
  const sieve::RewriteCacheStats cache_after = mw.rewrite_cache_stats();
  const sieve::MiddlewareHealth health = mw.Health();
  const sieve::server::SieveServer::Stats ss = f->server->stats();
  const uint64_t rejected = ss.rate_limited + ss.in_flight_rejected +
                            ss.connections_rejected + ss.drain_rejected;
  const uint64_t e = first_traced.executions;
  const uint64_t n_exec = std::max<uint64_t>(1, e);
  report->Add("server.overhead_us", server_overhead_us, "us", overhead_us.size());
  report->Add("server.encode_us",
              summary.TotalUs("server.encode") /
                  static_cast<double>(std::max<uint64_t>(1, e * untraced_s.size())),
              "us", e);
  report->Add("server.rejected_ratio",
              static_cast<double>(rejected) /
                  static_cast<double>(std::max<uint64_t>(1, ss.queries_executed + rejected)),
              "ratio", ss.queries_executed + rejected);
  report->Add("sieve.bind_us", summary.MeanUs("sieve.bind"), "us", e);
  report->Add("plan.plan_us", plan_us, "us", e);
  report->Add("sieve.audit_append_us", summary.MeanUs("sieve.audit_append"), "us", e);
  report->Add("parser.parse_us", summary.MeanUs("parser.parse"), "us",
              summary.by_name["parser.parse"].calls);
  report->Add("sieve.cache_lookup_us", summary.MeanUs("sieve.cache_lookup"), "us",
              summary.by_name["sieve.cache_lookup"].calls);
  report->Add("sieve.rewrite_us", summary.MeanUs("sieve.rewrite"), "us",
              summary.by_name["sieve.rewrite"].calls);
  report->Add("engine.execute_us", summary.MeanUs("engine.execute"), "us", e);
  report->Add("plan.open_us", summary.MeanUs("engine.open_cursor") - plan_us, "us", e);
  report->Add("plan.drain_us",
              (summary.TotalUs("plan.drain") + summary.TotalUs("plan.next")) /
                  static_cast<double>(n_exec * untraced_s.size()),
              "us", e);
  ReportCounts(first_traced, report);
  report->Add("sieve.guardgen_ms", Median(guardgen_ms), "ms", guardgen_ms.size());
  report->Add("policy.add_us", add_us, "us", add_ms.size());
  report->Add("common.gate_wait_us", std::max(0.0, Median(contended_ms) * 1e3 - add_us),
              "us", contended_ms.size());
  report->Add("sieve.cache_invalidations",
              static_cast<double>(cache_after.invalidations - cache_before.invalidations),
              "count", 1);
  report->Add("sieve.cache_evictions",
              static_cast<double>(cache_after.evictions - cache_before.evictions),
              "count", 1);
  report->Add("sieve.audit_drop_ratio",
              static_cast<double>(health.audit_dropped) /
                  static_cast<double>(std::max<int64_t>(1, health.audit_total)),
              "ratio", static_cast<uint64_t>(health.audit_total));
  report->Add("trace.coverage", summary.Coverage(), "ratio", traced_s.size());
  report->Add("trace.overhead", Median(traced_s) / Median(untraced_s), "ratio",
              traced_s.size());

  // 5. Span file (first traced pass) and per-layer self-time summary.
  const std::string prefix = sieve::StrFormat(
      "%s/%s_seed%llu", args.out_dir.c_str(), o.name,
      static_cast<unsigned long long>(args.seed));
  if (!WriteSpans(prefix + "_spans.jsonl", first_spans) ||
      !WriteSummary(prefix + "_layers.json", summary)) {
    std::fprintf(stderr, "could not write the trace files under %s\n",
                 args.out_dir.c_str());
    return 1;
  }
  std::printf("trace files: %s_spans.jsonl %s_layers.json\n", prefix.c_str(),
              prefix.c_str());
  return 0;
}

std::unique_ptr<Fixture> SetUpReported(const Options& o,
                                       std::vector<double>* setup_seconds) {
  FixtureSpec spec = o.spec;
  if (o.args->trace) spec.serve = true;  // the traced run replays over the wire too
  auto f = SetUp(spec, o.args->trace ? 1 : spec.setup_reps, setup_seconds);
  if (f == nullptr) {
    std::fprintf(stderr, "set-up failed\n");
    return nullptr;
  }
  PrintSetup(*setup_seconds);
  std::printf("queriers:");
  for (const auto& md : f->queriers) std::printf(" %s", md.querier.c_str());
  std::printf("  policies=%zu events=%zu\n", f->world->mw->policies().size(),
              f->world->dataset.num_events);
  return f;
}

}  // namespace

// ---------------------------------------------------------------------------
// serve_prepared
// ---------------------------------------------------------------------------

int RunServePrepared(const Args& args, Report* report) {
  Options o{&args, "serve_prepared", {}};
  o.spec.scale = 0.1;
  o.spec.advanced_policies = 20;
  o.spec.num_threads = 1;
  o.spec.profiles = {"faculty", "grad"};
  o.spec.serve = true;
  o.spec.setup_reps = 9;  // a set-up takes ~0.1 s
  PinProcessToOneCpu();
  std::vector<double> setup_seconds;
  auto f = SetUpReported(o, &setup_seconds);
  if (f == nullptr) return 1;
  const int conns = static_cast<int>(f->queriers.size());

  if (args.trace) {
    std::vector<Request> list;
    std::vector<ServeStream> streams;
    for (int c = 0; c < conns; ++c) streams.emplace_back(f->world->dataset, args.seed, c);
    for (int i = 0; i < 500; ++i) {
      for (ServeStream& s : streams) list.push_back(s.Next());
    }
    return RunTraced(o, f.get(), list, /*shared_cache=*/true, report);
  }

  std::vector<std::unique_ptr<WireConn>> wire;
  if (!OpenWireConns(f.get(), &wire, report)) return 0;
  Window window(conns, SlicesFor(args.seconds, kServeSliceSeconds));
  std::vector<Tally> tallies(static_cast<size_t>(conns));
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back(WireClient, wire[static_cast<size_t>(c)].get(),
                           ServeStream(f->world->dataset, args.seed, c), &window,
                           &tallies[static_cast<size_t>(c)]);
    }
    window.Start(args.seconds);
  }
  FinishEndToEnd(setup_seconds, &tallies, window, report);

  std::vector<Request> sample;
  ConnsByQuerier held(static_cast<size_t>(conns));
  for (int c = 0; c < conns; ++c) {
    ServeStream s(f->world->dataset, args.seed, c);
    for (int i = 0; i < 20; ++i) sample.push_back(s.Next());
    held[static_cast<size_t>(c)].push_back(wire[static_cast<size_t>(c)].get());
  }
  Gate(f.get(), sample, /*wire=*/true, held, report);
  PrintErrorRatio(*report);
  return 0;
}

// ---------------------------------------------------------------------------
// adhoc_analytic
// ---------------------------------------------------------------------------

int RunAdhocAnalytic(const Args& args, Report* report) {
  Options o{&args, "adhoc_analytic", {}};
  o.spec.scale = 1.0;
  o.spec.advanced_policies = 40;
  o.spec.num_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  o.spec.top_overall = 4;
  o.spec.prepared_statements = false;
  PinProcessToOneCpu();
  std::vector<double> setup_seconds;
  auto f = SetUpReported(o, &setup_seconds);
  if (f == nullptr) return 1;
  const int queriers = static_cast<int>(f->queriers.size());

  if (args.trace) {
    AdhocStream stream(f->world->dataset, args.seed, queriers);
    std::vector<Request> list;
    for (int i = 0; i < 48; ++i) list.push_back(stream.Next());
    return RunTraced(o, f.get(), list, /*shared_cache=*/false, report);
  }

  std::vector<LocalConn> sessions;
  for (const auto& md : f->queriers) sessions.emplace_back(f->world->mw.get(), md);
  AdhocStream stream(f->world->dataset, args.seed, queriers);
  std::vector<Tally> tally(1);
  std::vector<sieve::Row> rows;
  Window window(0, SlicesFor(args.seconds, kAdhocSliceSeconds));
  window.Start(args.seconds);
  while (NowNs() < window.end_ns) {
    const Request r = stream.Next();
    const int64_t t0 = NowNs();
    const Status s = sessions[static_cast<size_t>(r.querier)].Run(r, &rows);
    const int64_t t1 = NowNs();
    tally[0].Record(s, t0, t1, window.SliceOf(t1));
  }
  FinishEndToEnd(setup_seconds, &tally, window, report);

  AdhocStream again(f->world->dataset, args.seed, queriers);
  std::vector<Request> sample;
  for (int i = 0; i < 8; ++i) sample.push_back(again.Next());
  ConnsByQuerier held(sessions.size());
  for (size_t q = 0; q < sessions.size(); ++q) held[q].push_back(&sessions[q]);
  Gate(f.get(), sample, /*wire=*/false, held, report);
  PrintErrorRatio(*report);
  return 0;
}

// ---------------------------------------------------------------------------
// policy_churn
// ---------------------------------------------------------------------------

int RunPolicyChurn(const Args& args, Report* report) {
  Options o{&args, "policy_churn", {}};
  o.spec.scale = 1.0;
  o.spec.advanced_policies = 40;
  o.spec.num_threads = 1;
  o.spec.profiles = {"faculty", "grad"};
  o.spec.serve = true;
  PinProcessToOneCpu();
  std::vector<double> setup_seconds;
  auto f = SetUpReported(o, &setup_seconds);
  if (f == nullptr) return 1;
  const int readers = static_cast<int>(f->queriers.size());
  WriteStream write_stream(f->world->dataset, args.seed, QuerierNames(*f));

  if (args.trace) {
    std::vector<Request> list;
    std::vector<ServeStream> streams;
    for (int c = 0; c < readers; ++c) streams.emplace_back(f->world->dataset, args.seed, c);
    for (int i = 0; i < 100; ++i) {
      for (ServeStream& s : streams) list.push_back(s.Next());
      if (i % 4 == 3) list.push_back(write_stream.Next());
    }
    return RunTraced(o, f.get(), list, /*shared_cache=*/true, report);
  }

  std::vector<Request> writes;
  const size_t max_writes =
      static_cast<size_t>(args.seconds * kChurnWritesPerSecond) + 1;
  for (size_t i = 0; i < max_writes; ++i) writes.push_back(write_stream.Next());

  std::vector<std::unique_ptr<WireConn>> wire;
  if (!OpenWireConns(f.get(), &wire, report)) return 0;
  // In-process sessions with every statement prepared before the window and
  // held through it: the targeted writes leave their handles stale, and the
  // gate checks that the next execution sees the final corpus.
  std::vector<std::unique_ptr<LocalConn>> local;
  for (int c = 0; c < readers; ++c) {
    local.push_back(std::make_unique<LocalConn>(f->world->mw.get(),
                                                f->queriers[static_cast<size_t>(c)]));
    ServeStream warm(f->world->dataset, /*seed=*/0, c);
    std::vector<sieve::Row> rows;
    for (int i = 0; i < 20; ++i) {  // one full schedule: every statement
      report->Attempted();
      const Status s = local.back()->Run(warm.Next(), &rows);
      if (!s.ok()) report->Fail("in-process prepare failed: " + s.ToString());
    }
  }
  Window window(readers + 1, SlicesFor(args.seconds, ChurnSliceSeconds(readers)));
  std::vector<Tally> tallies(static_cast<size_t>(readers));
  WriterTally writer;
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < readers; ++c) {
      threads.emplace_back(WireClient, wire[static_cast<size_t>(c)].get(),
                           ServeStream(f->world->dataset, args.seed, c), &window,
                           &tallies[static_cast<size_t>(c)]);
    }
    threads.emplace_back(OpenLoopWriter, f->world->mw.get(), &writes,
                         kChurnWritesPerSecond, &window, &writer);
    window.Start(args.seconds);
  }
  FinishEndToEnd(setup_seconds, &tallies, window, report);
  report->Attempted(writer.latency_ms.size() + writer.failed);
  for (uint64_t i = 0; i < writer.failed; ++i) report->Fail("AddPolicy failed");
  std::vector<double> lateness = writer.lateness_ms;
  const double lateness_p50 = Percentile(&lateness, 0.5);
  const double lateness_p99 = Percentile(&lateness, 0.99);
  std::printf("writer: %zu writes at %.0f/s, lateness p50 %.4f ms p99 %.4f ms max %.4f ms\n",
              lateness.size(), kChurnWritesPerSecond, lateness_p50, lateness_p99,
              lateness.empty() ? 0.0 : lateness.back());
  // Printed, not reported: the read-only workloads have no writes, and
  // every metric of the result is a metric of every workload.
  std::vector<double> add_ms = writer.latency_ms;
  const double add_p50 = Percentile(&add_ms, 0.50);
  std::printf("policy_add_p50_ms %.6f policy_add_p99_ms %.6f (n=%zu)\n", add_p50,
              Percentile(&add_ms, 0.99), add_ms.size());

  // The gate runs against the final corpus, after every write, through the
  // window's wire connections, the held in-process sessions and fresh ones.
  std::vector<Request> sample;
  ConnsByQuerier held(static_cast<size_t>(readers));
  for (int c = 0; c < readers; ++c) {
    ServeStream s(f->world->dataset, args.seed, c);
    for (int i = 0; i < 20; ++i) {
      Request r = s.Next();
      if (i == 0 || i == 5 || i == 17 || i == 19) sample.push_back(std::move(r));
    }
    held[static_cast<size_t>(c)] = {wire[static_cast<size_t>(c)].get(),
                                    local[static_cast<size_t>(c)].get()};
  }
  Gate(f.get(), sample, /*wire=*/true, held, report);
  PrintErrorRatio(*report);
  return 0;
}

}  // namespace perfbench
