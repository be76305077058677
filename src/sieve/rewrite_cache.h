#ifndef SIEVE_SIEVE_REWRITE_CACHE_H_
#define SIEVE_SIEVE_REWRITE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "parser/ast.h"
#include "policy/policy.h"
#include "sieve/rewriter.h"

namespace sieve {

/// Whitespace-normalizes SQL for cache keying: runs of whitespace outside
/// quoted strings collapse to one space, leading/trailing whitespace is
/// trimmed, `--` line comments are dropped. Case is deliberately preserved
/// — folding it would conflate queries that differ only in string-literal
/// case; a differently-cased keyword merely misses the cache.
std::string NormalizeSql(const std::string& sql);

/// Version counters a RewriteCache stamps its entries against (defined in
/// rewrite_cache.cc). Shared by the cache and every entry it stamped, so a
/// holder can check its stamp even after the cache is gone.
struct RewriteVersionCounters;

/// One cached, immutable rewrite: everything a session needs to execute a
/// prepared query without touching the rewriter again. `stmt` is a shared
/// template (it may contain ParameterExpr placeholders) — executions must
/// Clone() it and bind the clone; nothing may mutate it in place.
///
/// Beyond the rewrite itself, an entry carries its **dependency set**: the
/// normalized (lower-cased) querier/purpose it was prepared for and the
/// base tables its statement references. RewriteCache::Insert stamps the
/// entry with the current value of every version counter that set depends
/// on; the entry is stale once one of them has moved. A PreparedQuery
/// holding a stale entry re-prepares on its next Execute, while entries
/// whose dependencies did not change keep executing untouched — whether
/// or not the cache still holds them.
struct PreparedRewrite {
  std::string normalized_sql;            ///< cache-key form of the input
  SelectStmtPtr stmt;                    ///< rewritten statement template
  std::string rewritten_sql;             ///< rendered SQL of `stmt`
  std::vector<TableRewriteInfo> tables;  ///< per-table rewrite diagnostics
  bool default_denied = false;
  /// Parameter signature of the *original* query, in slot order: the
  /// lower-cased name for `:name` slots, "" for positional `?`.
  std::vector<std::string> params;
  /// Policy epoch the rewrite was produced under (Σ store versions at
  /// prepare time). A diagnostic only: validity is the version stamp.
  uint64_t epoch = 0;

  // -- dependency set (normalized, lower-case) --
  std::string querier;                 ///< metadata querier at prepare time
  std::string purpose;                 ///< metadata purpose at prepare time
  std::vector<std::string> dep_tables; ///< base tables the statement reads

  /// True once a version counter stamped at Insert has moved, i.e. a
  /// policy or guard mutation touched one of this entry's dependency keys
  /// (or the cache was cleared). Lock-free; never reverts to false. An
  /// entry that was never inserted has no stamp and is never stale.
  bool stale() const {
    for (const StampedCounter& s : stamp_) {
      if (s.counter->load(std::memory_order_acquire) != s.value) return true;
    }
    return false;
  }

 private:
  friend class RewriteCache;
  struct StampedCounter {
    const std::atomic<uint64_t>* counter;
    uint64_t value;  ///< the counter's value when the entry was admitted
  };
  /// Written once by RewriteCache::Insert, before the entry is shared.
  std::vector<StampedCounter> stamp_;
  /// Keeps the counters stamp_ points into alive.
  std::shared_ptr<const RewriteVersionCounters> counters_;
};

/// Cumulative counters of one RewriteCache (snapshot semantics).
struct RewriteCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;  ///< resident entries dropped: stamp moved
  uint64_t evictions = 0;      ///< entries dropped by LRU capacity pressure

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Shared, lock-protected cache of prepared rewrites keyed by
/// (querier, purpose, engine profile, normalized SQL), validated **per
/// dependency key** by version stamps. The cache owns one version counter
/// per key a rewrite can depend on, all lower-cased:
///   * grant (x, y, t): policies granted to querier-or-group x for purpose
///     y on table t changed;
///   * guard (q, p, t): the guarded expression of (q, p, t) was replaced
///     or marked outdated;
///   * protection t: t flipped between unprotected and protected;
///   * one cache-wide generation, bumped by Clear().
/// Insert stamps an entry for querier q, purpose p and tables T with the
/// grant counters of GrantKeysOf({q, p}) on each t in T, the guard counter
/// (q, p, t), the protection counter of t and the generation. A mutation
/// bumps O(1) counters (Bump*) and never walks the cache; readers find out
/// through PreparedRewrite::stale(). Unaffected queriers' rewrites keep
/// hitting through sustained policy churn. Capacity is bounded with true
/// LRU eviction (a lookup refreshes recency; the least recently used entry
/// is evicted at capacity). Eviction only forgets an entry: a holder keeps
/// executing it, and its stamp still reports later mutations.
///
/// Counters are never erased, so their addresses are stable; there is one
/// per key some admitted entry depended on. A bump of a key no entry ever
/// stamped is a no-op — a later stamp reads the counter as it is then.
///
/// Threading: all methods are safe to call concurrently; returned entries
/// are immutable shared_ptrs that stay valid after invalidation or
/// eviction. Stamps are only meaningful when Insert does not race the
/// mutation it should observe: the middleware rewrites, stamps and mutates
/// under its exclusive state lock.
class RewriteCache {
 public:
  /// `resolver` expands a querier into its groups for the grant stamp
  /// (null: no group grants reach any entry).
  explicit RewriteCache(size_t capacity = kMaxEntries,
                        const GroupResolver* resolver = nullptr);

  static std::string MakeKey(const std::string& querier,
                             const std::string& purpose,
                             const std::string& profile,
                             const std::string& normalized_sql);

  /// Returns the entry for `key` if present and not stale, refreshing its
  /// LRU recency. A stale resident entry is erased and counted in
  /// stats().invalidations. `authoritative` only controls miss accounting:
  /// the optimistic pre-lock probe passes false so its miss is not counted
  /// (the authoritative retry right after counts it). A probe hit is only
  /// a hint — Execute re-checks the entry's stamp under the middleware's
  /// shared state lock before running it.
  std::shared_ptr<const PreparedRewrite> Lookup(const std::string& key,
                                                bool authoritative = true);

  /// Stamps `entry` (which must carry its dependency set, and must not yet
  /// be shared with another thread) with the current version counters of
  /// its dependency keys, then caches it under `key`. Call it after the
  /// rewrite, so guard regeneration done by the rewrite itself is already
  /// counted. At capacity the least recently used entry is evicted first;
  /// re-inserting a key replaces its entry.
  void Insert(const std::string& key, std::shared_ptr<PreparedRewrite> entry);

  /// Mutation side of validity: each bumps one counter (keys are
  /// lower-cased here), which makes every entry stamped with it stale.
  void BumpGrant(const std::string& querier, const std::string& purpose,
                 const std::string& table);
  void BumpGuard(const std::string& querier, const std::string& purpose,
                 const std::string& table);
  void BumpProtection(const std::string& table);

  /// Upper bound on cached rewrites. A one-shot Execute path with
  /// inlined literals creates one entry per distinct SQL text; without a
  /// bound a long-lived server under a stable policy corpus would grow
  /// without limit.
  static constexpr size_t kMaxEntries = 1024;

  RewriteCacheStats stats() const;
  size_t size() const;
  /// Drops every entry and bumps the generation, so every entry admitted
  /// before — resident or held elsewhere — is stale from now on. Leaves
  /// stats().invalidations untouched (a cache reset, not a mutation).
  void Clear();

 private:
  struct Entry {
    std::shared_ptr<const PreparedRewrite> rewrite;
    std::list<std::string>::iterator lru_it;  // position in lru_
  };

  // Both require mu_ held.
  void EraseLocked(std::unordered_map<std::string, Entry>::iterator it);
  void BumpLocked(const std::string& key);

  const size_t capacity_;
  const GroupResolver* const resolver_;
  mutable std::mutex mu_;
  /// Written under mu_; read lock-free through the stamps.
  const std::shared_ptr<RewriteVersionCounters> counters_;
  std::unordered_map<std::string, Entry> entries_;
  /// LRU order, most recent first; holds cache keys.
  std::list<std::string> lru_;
  RewriteCacheStats stats_;
};

}  // namespace sieve

#endif  // SIEVE_SIEVE_REWRITE_CACHE_H_
