#ifndef SIEVE_POLICY_POLICY_STORE_H_
#define SIEVE_POLICY_POLICY_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/database.h"
#include "policy/policy.h"

namespace sieve {

/// One corpus mutation, reported to the registered listener so the
/// middleware can bump the rewrite-cache version counters of the keys the
/// mutation touches. All strings are lower-cased at the source.
struct PolicyMutationEvent {
  std::string querier;  ///< grant querier of the policy (user or group)
  std::string purpose;  ///< grant purpose of the policy
  std::string table;    ///< protected relation
  /// True when the mutation flipped the table between unprotected and
  /// protected (first policy added / last removed): that changes the rewrite
  /// of *every* querier touching the table, not just the grant's.
  bool protection_changed = false;
  /// True for corpus-wide changes (reload) where per-key attribution is
  /// meaningless; listeners should treat every key as changed.
  bool wholesale = false;
};

/// Persistent policy corpus. Policies live both in memory (the working set
/// used by guard generation and the Δ operator) and in two catalog tables,
/// exactly as Section 5.1 describes:
///   rP  (id, owner, querier, associated_table, purpose, action, inserted_at)
///   rOC (id, policy_id, attr, op, val)
/// Range conditions persist as two rOC rows (>= lo, <= hi); derived values
/// persist their SQL text in `val`.
class PolicyStore {
 public:
  static constexpr const char* kPolicyTable = "rP";
  static constexpr const char* kConditionTable = "rOC";

  explicit PolicyStore(Database* db) : db_(db) {}

  /// Creates rP / rOC (idempotent).
  Status Init();

  /// Assigns an id, persists the policy and keeps it in memory.
  Result<int64_t> AddPolicy(Policy policy);

  /// Drops a policy by id from memory and marks its rows deleted.
  Status RemovePolicy(int64_t id);

  /// Reloads the in-memory corpus from rP / rOC (round-trip check and
  /// recovery path).
  Status LoadFromTables();

  size_t size() const { return policies_.size(); }
  /// Stable container: references remain valid across AddPolicy calls
  /// (the Δ cache and guard partitions rely on this).
  const std::deque<Policy>& policies() const { return policies_; }

  const Policy* FindPolicy(int64_t id) const;

  /// P_QM: policies relevant to query metadata `md` on `table`
  /// (Section 3.2, "Reducing Number of Policies").
  std::vector<const Policy*> FilterByMetadata(const QueryMetadata& md,
                                              const std::string& table,
                                              const GroupResolver* resolver) const;

  /// All policies for an exact (querier, purpose, table) key, without group
  /// expansion (used by guard persistence bookkeeping).
  std::vector<const Policy*> PoliciesForQuerier(const std::string& querier,
                                                const std::string& purpose,
                                                const std::string& table) const;

  /// Distinct (querier, purpose) pairs appearing on `table`.
  std::vector<QueryMetadata> DistinctQueriers(const std::string& table) const;

  /// Monotonic mutation counter, bumped by every corpus change (add,
  /// remove, reload). Together with GuardStore::version it forms the
  /// middleware's policy epoch — a diagnostic; cache validity is the
  /// per-key version stamp the mutation listener drives.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Registers the callback fired synchronously inside every corpus
  /// mutation (AddPolicy, RemovePolicy, LoadFromTables), after the change is
  /// applied and versions are bumped. At most one listener; the middleware
  /// owns it. The callback runs under whatever lock the mutator holds and
  /// must not call back into the store.
  void set_mutation_listener(std::function<void(const PolicyMutationEvent&)> l) {
    listener_ = std::move(l);
  }

 private:
  void BumpVersion() { version_.fetch_add(1, std::memory_order_release); }
  Status PersistPolicy(const Policy& policy);
  void NotifyMutation(const Policy& policy, bool protection_changed);

  Database* db_;
  std::deque<Policy> policies_;
  std::unordered_map<int64_t, size_t> by_id_;
  int64_t next_id_ = 1;
  int64_t next_oc_id_ = 1;
  int64_t logical_clock_ = 1;
  std::atomic<uint64_t> version_{0};
  /// Lower-cased table -> live policy count (protection transitions).
  std::unordered_map<std::string, size_t> table_policy_counts_;
  std::function<void(const PolicyMutationEvent&)> listener_;
};

}  // namespace sieve

#endif  // SIEVE_POLICY_POLICY_STORE_H_
