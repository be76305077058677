#ifndef SIEVE_PERFBENCH_FIXTURE_H_
#define SIEVE_PERFBENCH_FIXTURE_H_

// The set-up every workload shares (world, queriers, optional TCP server,
// warm-up), the two ways a request reaches the middleware (an in-process
// session and a wire connection), and the correctness gate.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/perfbench.h"
#include "server/auth.h"
#include "server/client.h"
#include "server/server.h"
#include "sieve/session.h"

namespace perfbench {

struct FixtureSpec {
  double scale = 1.0;
  int advanced_policies = 40;
  int num_threads = 1;
  /// One querier per profile: the profile's user with the most policies.
  std::vector<std::string> profiles;
  /// Used when `profiles` is empty: the users with the most policies.
  size_t top_overall = 0;
  /// Start the TCP server (kServerWorkers workers) with one token per querier.
  bool serve = false;
  /// Warm-up prepares and executes the statement set once per querier;
  /// otherwise one literal query per querier generates its guards.
  bool prepared_statements = true;
  /// Complete set-ups per untraced run; setup_s is their median.
  int setup_reps = 3;
};

struct Fixture {
  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture();

  /// Starts the server with one unlimited token per querier.
  sieve::Status StartServer();

  std::unique_ptr<World> world;
  std::vector<sieve::QueryMetadata> queriers;
  std::vector<std::string> tokens;
  sieve::server::AuthRegistry auth;
  std::unique_ptr<sieve::server::SieveServer> server;
};

/// Two workers for the two wire connections of serve_prepared and
/// policy_churn: with the server's IO thread and the client threads, four
/// workers put more threads to work than the host has CPUs, and a run then
/// measures the scheduler more than the server.
inline constexpr int kServerWorkers = 2;

/// Sets the fixture up `reps` times, each one complete (world build, policy
/// generation, server start, warm-up), appending each time in seconds to
/// *seconds. Returns the last fixture, or null on failure.
std::unique_ptr<Fixture> SetUp(const FixtureSpec& spec, int reps,
                               std::vector<double>* seconds);

/// One querier's path to the middleware: in-process or over the wire.
class Conn {
 public:
  virtual ~Conn() = default;
  virtual sieve::Status Run(const Request& r, std::vector<sieve::Row>* rows) = 0;
  /// "in-process" or "wire", for failure messages.
  virtual const char* path() const = 0;
};

/// One querier's in-process session; statements are prepared on first use
/// and the handles are kept, so a later policy insert finds them stale.
class LocalConn : public Conn {
 public:
  LocalConn(sieve::SieveMiddleware* mw, sieve::QueryMetadata md)
      : session_(mw, std::move(md)), prepared_(kNumStatements) {}

  sieve::Status Run(const Request& r, std::vector<sieve::Row>* rows) override;
  const char* path() const override { return "in-process"; }

 private:
  sieve::SieveSession session_;
  std::vector<std::optional<sieve::PreparedQuery>> prepared_;
};

/// One wire connection: HELLO, then PREPARE of the statement set.
class WireConn : public Conn {
 public:
  sieve::Status Open(uint16_t port, const std::string& token);
  sieve::Status Run(const Request& r, std::vector<sieve::Row>* rows) override;
  const char* path() const override { return "wire"; }

 private:
  sieve::server::SieveClient client_;
  uint32_t stmt_ids_[kNumStatements] = {};
};

/// Connections for the gate, indexed by querier.
using ConnsByQuerier = std::vector<std::vector<Conn*>>;

/// Correctness gate: each request of `sample` runs through
/// SieveMiddleware::ExecuteReference and through every connection of its
/// querier: those in `held` (opened before the timed window and kept
/// through it) and a fresh in-process session (plus, with `wire`, a fresh
/// wire connection). Every result must equal the reference as a row
/// multiset. Every comparison is one attempted operation, every mismatch or
/// error one failure.
void Gate(Fixture* f, const std::vector<Request>& sample, bool wire,
          const ConnsByQuerier& held, Report* report);

}  // namespace perfbench

#endif  // SIEVE_PERFBENCH_FIXTURE_H_
