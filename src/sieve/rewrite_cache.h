#ifndef SIEVE_SIEVE_REWRITE_CACHE_H_
#define SIEVE_SIEVE_REWRITE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "parser/ast.h"
#include "sieve/rewriter.h"

namespace sieve {

/// Whitespace-normalizes SQL for cache keying: runs of whitespace outside
/// quoted strings collapse to one space, leading/trailing whitespace is
/// trimmed, `--` line comments are dropped. Case is deliberately preserved
/// — folding it would conflate queries that differ only in string-literal
/// case; a differently-cased keyword merely misses the cache.
std::string NormalizeSql(const std::string& sql);

/// One cached, immutable rewrite: everything a session needs to execute a
/// prepared query without touching the rewriter again. `stmt` is a shared
/// template (it may contain ParameterExpr placeholders) — executions must
/// Clone() it and bind the clone; nothing may mutate it in place.
///
/// Beyond the rewrite itself, an entry carries its **dependency set**: the
/// normalized (lower-cased) querier/purpose it was prepared for and the
/// base tables its statement references. Policy or guard mutations that
/// touch one of those dependency keys mark the entry stale (an atomic flag
/// — the only mutable member); a PreparedQuery holding the entry re-prepares
/// on its next Execute, while entries whose dependencies did not change keep
/// executing untouched.
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
  /// prepare time). Monotonicity watermark: the cache refuses to adopt an
  /// entry older than one it already absorbed. Validity, however, is the
  /// stale flag below, not an epoch comparison.
  uint64_t epoch = 0;

  // -- dependency set (normalized, lower-case) --
  std::string querier;                 ///< metadata querier at prepare time
  std::string purpose;                 ///< metadata purpose at prepare time
  std::vector<std::string> dep_tables; ///< base tables the statement reads

  /// True once a policy/guard mutation invalidated one of this entry's
  /// dependency keys. Set exactly once, never cleared.
  bool stale() const { return stale_.load(std::memory_order_acquire); }
  void mark_stale() const { stale_.store(true, std::memory_order_release); }

 private:
  mutable std::atomic<bool> stale_{false};
};

/// Cumulative counters of one RewriteCache (snapshot semantics).
struct RewriteCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;  ///< entries marked stale by keyed invalidation
  uint64_t evictions = 0;      ///< entries dropped by LRU capacity pressure
  uint64_t stale_drops = 0;    ///< out-of-order inserts refused (epoch < max)

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Shared, lock-protected cache of prepared rewrites keyed by
/// (querier, purpose, engine profile, normalized SQL), invalidated
/// **per dependency key**: every entry is indexed by the base tables it
/// references, and a policy/guard mutation removes only the entries whose
/// (querier, purpose, table) dependencies it affects — unaffected queriers'
/// rewrites keep hitting through sustained policy churn. Capacity is
/// bounded with true LRU eviction (a lookup refreshes recency; the least
/// recently used entry is evicted at capacity).
///
/// Threading: all methods are safe to call concurrently; returned entries
/// are immutable shared_ptrs that stay valid after invalidation or
/// eviction (holders observe invalidation through PreparedRewrite::stale).
/// Eviction does not end an entry's invalidation reach: entries evicted
/// while still held by a PreparedQuery stay registered in a weak
/// per-table index, so a later policy/guard mutation on one of their
/// dependency keys still marks them stale — a holder never keeps
/// executing a pre-mutation rewrite just because cache churn evicted its
/// entry.
class RewriteCache {
 public:
  explicit RewriteCache(size_t capacity = kMaxEntries)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  static std::string MakeKey(const std::string& querier,
                             const std::string& purpose,
                             const std::string& profile,
                             const std::string& normalized_sql);

  /// Returns the entry for `key` if present (and not stale), refreshing its
  /// LRU recency. `authoritative` only controls miss accounting: the
  /// optimistic pre-lock probe passes false so its miss is not counted (the
  /// authoritative retry right after counts it). A probe hit is only a hint
  /// — Execute re-validates the entry's stale flag under the middleware's
  /// shared state lock before running it.
  std::shared_ptr<const PreparedRewrite> Lookup(const std::string& key,
                                                bool authoritative = true);

  /// Inserts `entry` (which must carry its dependency set). An entry whose
  /// epoch is older than the newest epoch the cache has absorbed is an
  /// out-of-order insert from a rewrite that raced a policy mutation: it is
  /// dropped (counted in stats().stale_drops) and marked stale — adopting
  /// it would serve a pre-mutation rewrite as current, and the preparing
  /// session holding it must re-prepare rather than keep executing it
  /// outside invalidation's reach. At capacity the least recently used
  /// entry is evicted first; if a key is re-inserted, the displaced
  /// rewrite is marked stale so old holders converge on the new one.
  void Insert(const std::string& key,
              std::shared_ptr<const PreparedRewrite> entry);

  /// Keyed invalidation: marks stale and removes every entry that depends
  /// on `table_lower` (a lower-cased base-table name) and whose
  /// querier/purpose satisfies `affects`. A null `affects` matches every
  /// entry on the table (used when the table's protection status itself
  /// changed, which alters rewrites for all queriers). Returns the number
  /// of entries invalidated.
  size_t InvalidateTable(
      const std::string& table_lower,
      const std::function<bool(const PreparedRewrite&)>& affects = nullptr);

  /// Wholesale invalidation (corpus reload): marks every entry stale.
  size_t InvalidateAll();

  /// Upper bound on cached rewrites. A one-shot Execute path with
  /// inlined literals creates one entry per distinct SQL text; without a
  /// bound a long-lived server under a stable policy corpus would grow
  /// without limit.
  static constexpr size_t kMaxEntries = 1024;

  RewriteCacheStats stats() const;
  size_t size() const;
  /// Drops every entry like InvalidateAll — resident and evicted-but-held
  /// entries are marked stale, so their holders re-prepare — but leaves
  /// stats().invalidations untouched (a cache reset, not a mutation).
  void Clear();

 private:
  struct Entry {
    std::shared_ptr<const PreparedRewrite> rewrite;
    std::list<std::string>::iterator lru_it;  // position in lru_
  };

  // All require mu_ held.
  void IndexEntry(const std::string& key, const PreparedRewrite& rewrite);
  void UnindexEntry(const std::string& key, const PreparedRewrite& rewrite);
  void EraseLocked(
      std::unordered_map<std::string, Entry>::iterator it);
  /// Registers an eviction victim in evicted_by_table_ if external holders
  /// still reference it (no-op otherwise).
  void TrackEvictedLocked(
      const std::shared_ptr<const PreparedRewrite>& rewrite);
  /// Marks every resident and evicted-but-held entry stale, empties the
  /// cache and returns how many entries were marked (each counted once).
  size_t DropAllStaleLocked();

  const size_t capacity_;
  mutable std::mutex mu_;
  uint64_t max_epoch_ = 0;  ///< newest entry epoch absorbed (watermark)
  std::unordered_map<std::string, Entry> entries_;
  /// LRU order, most recent first; holds cache keys.
  std::list<std::string> lru_;
  /// Secondary index: lower-cased dependency table -> cache keys of the
  /// entries referencing it. Drives keyed invalidation without a full scan.
  std::unordered_map<std::string, std::unordered_set<std::string>> by_table_;
  /// Evicted-but-still-held entries, indexed like by_table_. Eviction is
  /// capacity management and must not force holders to re-prepare, but a
  /// *later* mutation on an evicted entry's dependency keys must still
  /// reach it — without this index a long-lived PreparedQuery whose entry
  /// was evicted by churn would execute a pre-mutation rewrite forever.
  /// weak_ptrs expire when the last holder drops the entry; expired slots
  /// are purged during eviction and invalidation walks, so the index is
  /// bounded by the number of live external holders, not by eviction
  /// history.
  std::unordered_map<std::string,
                     std::vector<std::weak_ptr<const PreparedRewrite>>>
      evicted_by_table_;
  RewriteCacheStats stats_;
};

}  // namespace sieve

#endif  // SIEVE_SIEVE_REWRITE_CACHE_H_
