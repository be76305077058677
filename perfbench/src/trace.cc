#include "perfbench/src/trace.h"

#include <cstdio>
#include <map>
#include <memory>

#include "common/string_util.h"
#include "parser/parser.h"
#include "plan/optimizer.h"
#include "server/wire.h"
#include "sieve/audit_log.h"
#include "sieve/rewrite_cache.h"

namespace perfbench {

using sieve::Status;

// ---------------------------------------------------------------------------
// Summary and output
// ---------------------------------------------------------------------------

void TraceSummary::Add(const std::vector<SpanRecord>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double total_us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    const double self_us = total_us - static_cast<double>(child_ns[i]) * 1e-3;
    SpanTotals& t = by_name[s.name];
    ++t.calls;
    t.total_us += total_us;
    t.self_us += self_us;
    if (s.parent < 0) {
      root_us += total_us;
    } else {
      layer_self_us += self_us;
    }
  }
}

double TraceSummary::MeanUs(const std::string& name) const {
  auto it = by_name.find(name);
  if (it == by_name.end() || it->second.calls == 0) return 0;
  return it->second.total_us / static_cast<double>(it->second.calls);
}

double TraceSummary::TotalUs(const std::string& name) const {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0 : it->second.total_us;
}

bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) {
    std::fprintf(out,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"request\": %lld}\n",
                 s.name, static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0), s.parent,
                 static_cast<long long>(s.request));
  }
  return std::fclose(out) == 0;
}

bool WriteSummary(const std::string& path, const TraceSummary& summary) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::map<std::string, double> layer_self;
  std::fprintf(out, "{\"root_us\": %.3f, \"layer_self_us\": %.3f, "
                    "\"coverage\": %.6f,\n \"spans\": {",
               summary.root_us, summary.layer_self_us, summary.Coverage());
  bool first = true;
  for (const auto& [name, t] : summary.by_name) {
    std::fprintf(out, "%s\n  \"%s\": {\"calls\": %llu, \"total_us\": %.3f, "
                      "\"self_us\": %.3f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(t.calls), t.total_us, t.self_us);
    first = false;
    const size_t dot = name.find('.');
    if (dot != std::string::npos) layer_self[name.substr(0, dot)] += t.self_us;
  }
  std::fprintf(out, "},\n \"layer_self_us\": {");
  first = true;
  for (const auto& [layer, us] : layer_self) {
    std::fprintf(out, "%s\"%s\": %.3f", first ? "" : ", ", layer.c_str(), us);
    first = false;
  }
  std::fprintf(out, "}}\n");
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

uint64_t RowsDigest(const std::vector<sieve::Row>& rows) {
  uint64_t sum = 0;
  for (const sieve::Row& row : rows) {
    uint64_t h = 1469598103934665603ull;  // FNV-1a over the rendered row
    for (const Value& v : row) {
      for (char c : v.ToString()) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      }
      h = (h ^ 0x1f) * 1099511628211ull;
    }
    sum += h;  // a sum is independent of row order
  }
  return sum;
}

namespace {

/// The server's kRows payload (cursor id, done flag, schema, row block),
/// built with the wire layer's public encoder.
std::string EncodeRows(uint32_t cursor_id, bool done, const sieve::Schema& schema,
                       const std::vector<sieve::Row>& rows) {
  sieve::server::WireWriter w;
  w.PutU32(cursor_id);
  w.PutU8(done ? 1 : 0);
  w.PutU16(static_cast<uint16_t>(schema.num_columns()));
  for (const sieve::ColumnDef& c : schema.columns()) {
    w.PutString(c.name);
    w.PutU8(static_cast<uint8_t>(c.type));
  }
  w.PutU32(static_cast<uint32_t>(rows.size()));
  for (const sieve::Row& row : rows) {
    for (const Value& v : row) w.PutValue(v);
  }
  return sieve::server::EncodeFrame(sieve::server::MsgType::kRows, w.payload());
}

class Replayer {
 public:
  Replayer(Fixture* f, sieve::RewriteCache* cache, Tracer* tracer,
           ReplayPass* pass)
      : f_(f), mw_(*f->world->mw), cache_(cache), tracer_(tracer), pass_(pass) {}

  /// SieveSession::PrepareRewrite's cache-through path, call by call.
  sieve::Result<std::shared_ptr<const sieve::PreparedRewrite>> Prepare(
      const sieve::QueryMetadata& md, const std::string& sql, bool* hit) {
    std::string normalized;
    std::string key;
    std::shared_ptr<const sieve::PreparedRewrite> cached;
    {
      Span s(tracer_, "sieve.cache_lookup");
      normalized = sieve::NormalizeSql(sql);
      key = sieve::RewriteCache::MakeKey(md.querier, md.purpose,
                                         mw_.db().profile().name(), normalized);
      cached = cache_->Lookup(key);
    }
    ++pass_->lookups;
    *hit = cached != nullptr;
    if (cached != nullptr) {
      ++pass_->hits;
      return cached;
    }
    sieve::SelectStmtPtr stmt;
    {
      Span s(tracer_, "parser.parse");
      SIEVE_ASSIGN_OR_RETURN(stmt, sieve::Parser::Parse(normalized));
    }
    auto entry = std::make_shared<sieve::PreparedRewrite>();
    {
      Span s(tracer_, "parser.params");
      SIEVE_ASSIGN_OR_RETURN(entry->params, sieve::CollectParameterSlots(*stmt));
    }
    entry->querier = sieve::ToLower(md.querier);
    entry->purpose = sieve::ToLower(md.purpose);
    {
      Span s(tracer_, "sieve.tables");
      for (const std::string& t : sieve::CollectReferencedTables(*stmt)) {
        entry->dep_tables.push_back(sieve::ToLower(t));
      }
    }
    sieve::RewriteResult rewrite;
    {
      Span s(tracer_, "sieve.rewrite");
      SIEVE_ASSIGN_OR_RETURN(rewrite, mw_.rewriter().Rewrite(*stmt, md));
    }
    for (const sieve::TableRewriteInfo& info : rewrite.tables) {
      ++pass_->rewritten_tables;
      pass_->guards += static_cast<double>(info.num_guards);
      if (const sieve::GuardedExpression* ge =
              mw_.guards().Get(md.querier, md.purpose, info.table)) {
        pass_->guard_rho += ge->TotalSelectivity();
      }
    }
    entry->normalized_sql = normalized;
    entry->stmt = std::move(rewrite.stmt);
    entry->rewritten_sql = std::move(rewrite.sql);
    entry->tables = std::move(rewrite.tables);
    entry->default_denied = rewrite.default_denied;
    entry->epoch = mw_.policy_epoch();
    {
      Span s(tracer_, "sieve.cache_insert");
      cache_->Insert(key, entry);
    }
    return std::shared_ptr<const sieve::PreparedRewrite>(std::move(entry));
  }

  /// PreparedQuery::Execute / OpenCursor + the server's row encoding.
  Status Execute(const sieve::QueryMetadata& md,
                 const sieve::PreparedRewrite& rewrite,
                 sieve::AuditCacheState cache_state,
                 const std::vector<Value>& params, bool stream,
                 std::vector<sieve::Row>* rows) {
    const sieve::SieveOptions& opts = mw_.options();
    sieve::Database& db = mw_.db();
    sieve::SelectStmtPtr bound;
    {
      Span s(tracer_, "sieve.bind");
      bound = rewrite.stmt->Clone();
      SIEVE_RETURN_IF_ERROR(sieve::BindParameters(bound.get(), params));
    }
    {
      Span s(tracer_, "sieve.observe");
      mw_.dynamics().ObserveQuery();
    }
    {
      Span s(tracer_, "plan.plan");
      sieve::Optimizer optimizer(&db.catalog(), &db.profile());
      SIEVE_RETURN_IF_ERROR(StatusOf(optimizer.Plan(*bound)));
    }
    sieve::ExecStats stats;
    {
      Span e(tracer_, "engine.execute");
      std::unique_ptr<sieve::QueryCursor> cursor;
      {
        Span s(tracer_, "engine.open_cursor");
        SIEVE_ASSIGN_OR_RETURN(
            cursor, db.OpenCursor(*bound, &md, opts.timeout_seconds,
                                  opts.num_threads, opts.batch_size));
      }
      if (!stream) {
        sieve::ResultSet rs;
        {
          Span s(tracer_, "plan.drain");
          SIEVE_ASSIGN_OR_RETURN(rs, cursor->Drain());
        }
        *rows = std::move(rs.rows);
        stats = rs.stats;
        Span s(tracer_, "server.encode");
        encoded_bytes_ += EncodeRows(0, true, rs.schema, *rows).size();
      } else {
        std::vector<sieve::Row> chunk;
        bool more = true;
        while (more) {
          chunk.clear();
          {
            Span s(tracer_, "plan.next");
            SIEVE_ASSIGN_OR_RETURN(more, cursor->Next(&chunk, kStreamChunkRows));
          }
          Span s(tracer_, "server.encode");
          encoded_bytes_ +=
              EncodeRows(1, !more, cursor->schema(), chunk).size();
          rows->insert(rows->end(), chunk.begin(), chunk.end());
        }
        stats = cursor->stats();
      }
    }
    if (opts.audit_log) {
      Span s(tracer_, "sieve.audit_append");
      mw_.audit_log().Append(
          sieve::AuditLog::MakeRecord(md, rewrite, cache_state, stats));
    }
    ++pass_->executions;
    pass_->exec.Add(stats);
    return Status::OK();
  }

  /// One request of the list.
  Status Run(const Request& r, std::vector<sieve::Row>* rows) {
    rows->clear();
    const sieve::QueryMetadata& md = f_->queriers[static_cast<size_t>(r.querier)];
    if (r.kind == Kind::kWrite) {
      Span s(tracer_, "policy.add");
      return StatusOf(mw_.AddPolicy(r.policy));
    }
    bool hit = false;
    if (r.kind == Kind::kAdhoc) {
      SIEVE_ASSIGN_OR_RETURN(auto rewrite, Prepare(md, r.sql, &hit));
      return Execute(md, *rewrite,
                     hit ? sieve::AuditCacheState::kHit
                         : sieve::AuditCacheState::kMiss,
                     {}, false, rows);
    }
    auto& handle = Handle(r);
    sieve::AuditCacheState state = sieve::AuditCacheState::kHit;
    if (handle == nullptr || handle->stale()) {
      // Keyed invalidation marked the snapshot stale: re-prepare, as
      // PreparedQuery::Execute does.
      SIEVE_ASSIGN_OR_RETURN(handle, Prepare(md, StatementOf(r), &hit));
      state = sieve::AuditCacheState::kRefresh;
    }
    return Execute(md, *handle, state, r.params, r.kind == Kind::kStream, rows);
  }

  /// Prepares a statement outside any request, as PREPARE does on the wire.
  Status PrepareStatement(const Request& r) {
    bool hit = false;
    SIEVE_ASSIGN_OR_RETURN(
        Handle(r), Prepare(f_->queriers[static_cast<size_t>(r.querier)],
                           StatementOf(r), &hit));
    return Status::OK();
  }

  std::shared_ptr<const sieve::PreparedRewrite>& Handle(const Request& r) {
    return handles_[{r.querier, static_cast<int>(r.kind)}];
  }

 private:
  Fixture* f_;
  sieve::SieveMiddleware& mw_;
  sieve::RewriteCache* cache_;
  Tracer* tracer_;
  ReplayPass* pass_;
  std::map<std::pair<int, int>, std::shared_ptr<const sieve::PreparedRewrite>>
      handles_;
  /// Bytes the encoder produced: the frames are built, then dropped.
  size_t encoded_bytes_ = 0;
};

}  // namespace

ReplayPass Replay(Fixture* f, const std::vector<Request>& requests,
                  bool shared_cache, Tracer* tracer) {
  ReplayPass pass;
  sieve::RewriteCache private_cache;
  Replayer replayer(f, shared_cache ? &f->world->mw->rewrite_cache()
                                    : &private_cache,
                    tracer, &pass);
  const int64_t start = NowNs();
  // PREPARE of every statement the list executes, before its requests.
  for (const Request& r : requests) {
    if (r.kind > Kind::kStream || replayer.Handle(r) != nullptr) continue;
    if (tracer != nullptr) tracer->set_request(-1);
    Span root(tracer, "prepare");
    if (!replayer.PrepareStatement(r).ok()) ++pass.errors;
  }
  std::vector<sieve::Row> rows;
  pass.request_us.reserve(requests.size());
  pass.row_digests.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const int64_t t0 = NowNs();
    Status s;
    {
      if (tracer != nullptr) tracer->set_request(static_cast<int64_t>(i));
      Span root(tracer, "request");
      s = replayer.Run(requests[i], &rows);
    }
    pass.request_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    if (!s.ok()) ++pass.errors;
    const uint64_t d = requests[i].kind == Kind::kWrite ? 0 : RowsDigest(rows);
    pass.row_digests.push_back(d);
    pass.digest = pass.digest * 1099511628211ull + d;
  }
  pass.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  return pass;
}

}  // namespace perfbench
