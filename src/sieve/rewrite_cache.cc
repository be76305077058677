#include "sieve/rewrite_cache.h"

#include <algorithm>
#include <cctype>

namespace sieve {

std::string NormalizeSql(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  size_t i = 0;
  const size_t n = sql.size();
  bool pending_space = false;
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      pending_space = !out.empty();
      continue;
    }
    if (c == '/' && i + 1 < n && sql[i + 1] == '*') {
      // Block comment: stripped like the lexer strips it. If unterminated,
      // copy the tail verbatim so the lexer still reports the error on the
      // normalized text (normalization must not make invalid SQL valid).
      size_t start = i;
      i += 2;
      while (i + 1 < n && !(sql[i] == '*' && sql[i + 1] == '/')) ++i;
      if (i + 1 >= n) {
        if (pending_space) out += ' ';
        out.append(sql, start, std::string::npos);
        break;
      }
      i += 2;
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out += ' ';
      pending_space = false;
    }
    if (c == '\'' || c == '"') {
      // Copy quoted strings verbatim, honoring doubled-quote escapes; the
      // lexer rejects unterminated literals later, so a lone quote just
      // passes through untouched.
      char quote = c;
      out += sql[i++];
      while (i < n) {
        out += sql[i];
        if (sql[i] == quote) {
          if (i + 1 < n && sql[i + 1] == quote) {
            out += sql[i + 1];
            i += 2;
            continue;
          }
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

std::string RewriteCache::MakeKey(const std::string& querier,
                                  const std::string& purpose,
                                  const std::string& profile,
                                  const std::string& normalized_sql) {
  // '\x1f' (unit separator) cannot appear in identifiers or survive
  // normalization, so the concatenation is unambiguous.
  std::string key;
  key.reserve(querier.size() + purpose.size() + profile.size() +
              normalized_sql.size() + 3);
  key += querier;
  key += '\x1f';
  key += purpose;
  key += '\x1f';
  key += profile;
  key += '\x1f';
  key += normalized_sql;
  return key;
}

std::shared_ptr<const PreparedRewrite> RewriteCache::Lookup(
    const std::string& key, bool authoritative) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (authoritative) ++stats_.misses;
    return nullptr;
  }
  if (it->second.rewrite->stale()) {
    // Invalidation marks entries stale before erasing them, so a stale
    // resident entry should not normally exist — but a concurrent holder
    // could re-Insert one (watermark permitting). Treat it as a miss and
    // drop it so the slot is re-prepared.
    EraseLocked(it);
    if (authoritative) ++stats_.misses;
    return nullptr;
  }
  // Refresh recency: move to MRU position.
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++stats_.hits;
  return it->second.rewrite;
}

void RewriteCache::Insert(const std::string& key,
                          std::shared_ptr<const PreparedRewrite> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entry->epoch < max_epoch_) {
    // Out-of-order insert: this rewrite was produced before a policy
    // mutation the cache has already seen. Caching it would serve a
    // pre-mutation rewrite as current; refuse it — and mark it stale, so
    // the preparing session that still holds it re-prepares on its next
    // Execute. A refused entry is non-resident and therefore invisible to
    // keyed invalidation; left unmarked it could execute its pre-mutation
    // rewrite indefinitely.
    entry->mark_stale();
    ++stats_.stale_drops;
    return;
  }
  max_epoch_ = entry->epoch;
  if (entry->stale()) {
    ++stats_.stale_drops;
    return;
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Replace in place; recency refreshes to MRU. The displaced rewrite is
    // marked stale (mirroring InvalidateTable) so any holder of the old
    // shared_ptr re-prepares instead of diverging from what the cache now
    // serves for this key.
    it->second.rewrite->mark_stale();
    UnindexEntry(key, *it->second.rewrite);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    it->second.rewrite = std::move(entry);
    IndexEntry(key, *it->second.rewrite);
    return;
  }
  while (entries_.size() >= capacity_ && !lru_.empty()) {
    auto victim = entries_.find(lru_.back());
    if (victim != entries_.end()) {
      // Eviction is capacity management, not invalidation: the entry is
      // NOT marked stale — a PreparedQuery still holding it keeps
      // executing it validly. It does stay reachable by *future* keyed
      // invalidation through the weak evicted index, so a policy mutation
      // after eviction still marks it stale for its holders.
      TrackEvictedLocked(victim->second.rewrite);
      EraseLocked(victim);
      ++stats_.evictions;
    } else {
      lru_.pop_back();
    }
  }
  lru_.push_front(key);
  Entry e;
  e.rewrite = std::move(entry);
  e.lru_it = lru_.begin();
  IndexEntry(key, *e.rewrite);
  entries_.emplace(key, std::move(e));
}

size_t RewriteCache::InvalidateTable(
    const std::string& table_lower,
    const std::function<bool(const PreparedRewrite&)>& affects) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  auto idx = by_table_.find(table_lower);
  if (idx != by_table_.end()) {
    // Collect first: EraseLocked mutates by_table_ buckets.
    std::vector<std::string> keys(idx->second.begin(), idx->second.end());
    for (const auto& key : keys) {
      auto it = entries_.find(key);
      if (it == entries_.end()) continue;
      const PreparedRewrite& rw = *it->second.rewrite;
      if (affects && !affects(rw)) continue;
      rw.mark_stale();
      EraseLocked(it);
      ++count;
    }
  }
  // Evicted-but-held entries depend on this table too: their holders keep
  // executing them past eviction, so the mutation must reach them as well.
  auto ev = evicted_by_table_.find(table_lower);
  if (ev != evicted_by_table_.end()) {
    auto& bucket = ev->second;
    for (auto wit = bucket.begin(); wit != bucket.end();) {
      std::shared_ptr<const PreparedRewrite> held = wit->lock();
      if (!held) {
        wit = bucket.erase(wit);  // last holder dropped it; purge the slot
        continue;
      }
      if (held->stale()) {
        // Already invalidated through another dependency table; don't
        // double-count.
        wit = bucket.erase(wit);
        continue;
      }
      if (affects && !affects(*held)) {
        ++wit;
        continue;
      }
      held->mark_stale();
      ++count;
      wit = bucket.erase(wit);
    }
    if (bucket.empty()) evicted_by_table_.erase(ev);
  }
  stats_.invalidations += count;
  return count;
}

size_t RewriteCache::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = DropAllStaleLocked();
  stats_.invalidations += count;
  return count;
}

RewriteCacheStats RewriteCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t RewriteCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void RewriteCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // A holder must never outlive a dropped entry's validity: without the
  // stale mark a PreparedQuery prepared before Clear() would keep its
  // pre-mutation rewrite forever, since nothing can reach it afterwards.
  (void)DropAllStaleLocked();
}

size_t RewriteCache::DropAllStaleLocked() {
  size_t count = entries_.size();
  for (auto& kv : entries_) kv.second.rewrite->mark_stale();
  for (auto& [table, bucket] : evicted_by_table_) {
    for (auto& weak : bucket) {
      std::shared_ptr<const PreparedRewrite> held = weak.lock();
      if (held && !held->stale()) {  // skip expired and multi-table repeats
        held->mark_stale();
        ++count;
      }
    }
  }
  entries_.clear();
  lru_.clear();
  by_table_.clear();
  evicted_by_table_.clear();
  return count;
}

void RewriteCache::TrackEvictedLocked(
    const std::shared_ptr<const PreparedRewrite>& rewrite) {
  // use_count() == 1 under mu_ means the cache's reference is the only
  // one left, and no new external holder can be minted concurrently
  // (holders only obtain copies through Lookup/Insert, which require mu_):
  // nothing to keep invalidatable. This keeps the common one-shot-SQL
  // eviction path free of weak-index growth.
  if (rewrite.use_count() == 1) return;
  for (const auto& table : rewrite->dep_tables) {
    auto& bucket = evicted_by_table_[table];
    // Purge expired slots so the bucket tracks live holders, not eviction
    // history.
    bucket.erase(
        std::remove_if(bucket.begin(), bucket.end(),
                       [](const std::weak_ptr<const PreparedRewrite>& w) {
                         return w.expired();
                       }),
        bucket.end());
    bucket.push_back(rewrite);
  }
}

void RewriteCache::IndexEntry(const std::string& key,
                              const PreparedRewrite& rewrite) {
  for (const auto& table : rewrite.dep_tables) {
    by_table_[table].insert(key);
  }
}

void RewriteCache::UnindexEntry(const std::string& key,
                                const PreparedRewrite& rewrite) {
  for (const auto& table : rewrite.dep_tables) {
    auto it = by_table_.find(table);
    if (it == by_table_.end()) continue;
    it->second.erase(key);
    if (it->second.empty()) by_table_.erase(it);
  }
}

void RewriteCache::EraseLocked(
    std::unordered_map<std::string, Entry>::iterator it) {
  UnindexEntry(it->first, *it->second.rewrite);
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

}  // namespace sieve
