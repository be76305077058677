#include "perfbench/src/fixture.h"

#include "common/string_util.h"

namespace perfbench {

using sieve::Status;

Fixture::~Fixture() {
  if (server != nullptr) server->Stop();
}

Status Fixture::StartServer() {
  for (size_t i = 0; i < queriers.size(); ++i) {
    tokens.push_back(sieve::StrFormat("perfbench-%zu", i));
    auth.RegisterToken(tokens.back(), queriers[i]);
  }
  sieve::server::ServerOptions opts;
  opts.num_workers = kServerWorkers;
  server = std::make_unique<sieve::server::SieveServer>(world->mw.get(), &auth,
                                                        opts);
  return server->Start();
}

namespace {

std::unique_ptr<Fixture> SetUpOnce(const FixtureSpec& spec) {
  auto f = std::make_unique<Fixture>();
  f->world = BuildWorld(spec.scale, spec.advanced_policies, spec.num_threads);
  if (f->world == nullptr) return nullptr;
  if (!spec.profiles.empty()) {
    for (const std::string& profile : spec.profiles) {
      auto top = f->world->TopQueriers(profile, 1);
      if (top.empty()) return nullptr;
      f->queriers.push_back({top.front().first, kPurpose});
    }
  } else {
    for (const auto& [name, n] : f->world->TopQueriers("", spec.top_overall)) {
      f->queriers.push_back({name, kPurpose});
    }
    if (f->queriers.size() < spec.top_overall) return nullptr;
  }
  if (spec.serve && !f->StartServer().ok()) return nullptr;

  // Warm-up: first prepares and guard generation, so the timed window
  // starts with warm guards and (for prepared traffic) a warm cache.
  for (size_t q = 0; q < f->queriers.size(); ++q) {
    LocalConn conn(f->world->mw.get(), f->queriers[q]);
    std::vector<sieve::Row> rows;
    if (spec.prepared_statements) {
      ServeStream stream(f->world->dataset, /*seed=*/0, static_cast<int>(q));
      for (int i = 0; i < 20; ++i) {  // one full schedule: every statement
        if (!conn.Run(stream.Next(), &rows).ok()) return nullptr;
      }
    } else {
      Request warm;
      warm.kind = Kind::kAdhoc;
      warm.sql = "SELECT COUNT(*) FROM WiFi_Dataset AS W WHERE W.wifiAP = 0";
      if (!conn.Run(warm, &rows).ok()) return nullptr;
    }
  }
  return f;
}

}  // namespace

std::unique_ptr<Fixture> SetUp(const FixtureSpec& spec, int reps,
                               std::vector<double>* seconds) {
  std::unique_ptr<Fixture> f;
  for (int i = 0; i < reps; ++i) {
    f.reset();  // the previous fixture is torn down outside the timing
    const int64_t start = NowNs();
    f = SetUpOnce(spec);
    if (f == nullptr) return nullptr;
    seconds->push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  return f;
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

Status LocalConn::Run(const Request& r, std::vector<sieve::Row>* rows) {
  rows->clear();
  if (r.kind == Kind::kAdhoc) {
    SIEVE_ASSIGN_OR_RETURN(sieve::ResultSet rs, session_.Execute(r.sql));
    *rows = std::move(rs.rows);
    return Status::OK();
  }
  auto& slot = prepared_[static_cast<size_t>(r.kind)];
  if (!slot.has_value()) {
    SIEVE_ASSIGN_OR_RETURN(sieve::PreparedQuery pq,
                           session_.Prepare(StatementOf(r)));
    slot.emplace(std::move(pq));
  }
  if (r.kind != Kind::kStream) {
    SIEVE_ASSIGN_OR_RETURN(sieve::ResultSet rs, slot->Execute(r.params));
    *rows = std::move(rs.rows);
    return Status::OK();
  }
  SIEVE_ASSIGN_OR_RETURN(sieve::ResultCursor cursor, slot->OpenCursor(r.params));
  while (true) {
    SIEVE_ASSIGN_OR_RETURN(bool more, cursor.Next(rows, kStreamChunkRows));
    if (!more) break;
  }
  return Status::OK();
}

Status WireConn::Open(uint16_t port, const std::string& token) {
  SIEVE_RETURN_IF_ERROR(client_.Connect("127.0.0.1", port));
  SIEVE_RETURN_IF_ERROR(StatusOf(client_.Hello(token)));
  for (int s = 0; s < kNumStatements; ++s) {
    SIEVE_ASSIGN_OR_RETURN(sieve::server::WireStatement stmt,
                           client_.Prepare(kStatementSql[s]));
    stmt_ids_[s] = stmt.id;
  }
  return Status::OK();
}

Status WireConn::Run(const Request& r, std::vector<sieve::Row>* rows) {
  rows->clear();
  if (r.kind == Kind::kAdhoc) {
    SIEVE_ASSIGN_OR_RETURN(sieve::server::WireStatement stmt,
                           client_.Prepare(r.sql));
    SIEVE_ASSIGN_OR_RETURN(sieve::server::WireResult res,
                           client_.Execute(stmt.id));
    *rows = std::move(res.rows);
    return client_.CloseStmt(stmt.id);
  }
  const uint32_t id = stmt_ids_[static_cast<size_t>(r.kind)];
  if (r.kind != Kind::kStream) {
    SIEVE_ASSIGN_OR_RETURN(sieve::server::WireResult res,
                           client_.Execute(id, r.params));
    *rows = std::move(res.rows);
    return Status::OK();
  }
  SIEVE_ASSIGN_OR_RETURN(sieve::server::WireResult res,
                         client_.Execute(id, r.params, kStreamChunkRows));
  *rows = std::move(res.rows);
  while (!res.done) {
    SIEVE_ASSIGN_OR_RETURN(res, client_.Fetch(res.cursor_id, kStreamChunkRows));
    rows->insert(rows->end(), res.rows.begin(), res.rows.end());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

void Gate(Fixture* f, const std::vector<Request>& sample, bool wire,
          const ConnsByQuerier& held, Report* report) {
  sieve::SieveMiddleware& mw = *f->world->mw;
  std::vector<std::unique_ptr<Conn>> fresh;
  ConnsByQuerier conns(f->queriers.size());
  for (size_t q = 0; q < f->queriers.size(); ++q) {
    if (q < held.size()) conns[q] = held[q];
    fresh.push_back(std::make_unique<LocalConn>(&mw, f->queriers[q]));
    conns[q].push_back(fresh.back().get());
    if (!wire) continue;
    auto remote = std::make_unique<WireConn>();
    if (!remote->Open(f->server->port(), f->tokens[q]).ok()) {
      report->Attempted();
      report->Fail("gate: wire connection failed");
      return;
    }
    conns[q].push_back(remote.get());
    fresh.push_back(std::move(remote));
  }
  std::vector<sieve::Row> rows;
  for (const Request& r : sample) {
    const size_t q = static_cast<size_t>(r.querier);
    const std::string sql = LiteralSql(r);
    auto reference = mw.ExecuteReference(sql, f->queriers[q]);
    if (!reference.ok()) {
      report->Attempted();
      report->Fail("gate: reference execution failed for " + sql + ": " +
                   reference.status().ToString());
      continue;
    }
    const std::vector<std::string> expected = RowMultiset(reference->rows);
    for (Conn* conn : conns[q]) {
      report->Attempted();
      const Status s = conn->Run(r, &rows);
      if (!s.ok()) {
        report->Fail(sieve::StrFormat("gate: %s execution failed for %s: %s",
                                      conn->path(), sql.c_str(),
                                      s.ToString().c_str()));
      } else if (RowMultiset(rows) != expected) {
        report->Fail(sieve::StrFormat(
            "gate: %s (%zu rows) != reference (%zu rows) for %s as %s",
            conn->path(), rows.size(), expected.size(), sql.c_str(),
            f->queriers[q].querier.c_str()));
      }
    }
  }
}

}  // namespace perfbench
