#include "sieve/rewrite_cache.h"

#include <cctype>
#include <initializer_list>

#include "common/string_util.h"

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

struct RewriteVersionCounters {
  /// Key (see CounterKey) -> version. Node-based and never erased, so the
  /// address of a counter is stable for the lifetime of this object.
  std::unordered_map<std::string, std::atomic<uint64_t>> by_key;
};

namespace {

// Counter key: a kind tag, then the lower-cased fields, each behind a
// '\x1f' (unit separator, which cannot appear in identifiers).
std::string CounterKey(char kind,
                       std::initializer_list<const std::string*> fields) {
  std::string key(1, kind);
  for (const std::string* field : fields) {
    key += '\x1f';
    key += ToLower(*field);
  }
  return key;
}

constexpr char kGrant = 'g';
constexpr char kGuard = 'r';
constexpr char kProtection = 'p';
constexpr char kGeneration = 'G';

}  // namespace

RewriteCache::RewriteCache(size_t capacity, const GroupResolver* resolver)
    : capacity_(capacity == 0 ? 1 : capacity),
      resolver_(resolver),
      counters_(std::make_shared<RewriteVersionCounters>()) {}

std::shared_ptr<const PreparedRewrite> RewriteCache::Lookup(
    const std::string& key, bool authoritative) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (authoritative) ++stats_.misses;
    return nullptr;
  }
  if (it->second.rewrite->stale()) {
    // A mutation moved one of the entry's stamped counters since it was
    // admitted: drop it so the slot is re-prepared.
    EraseLocked(it);
    ++stats_.invalidations;
    if (authoritative) ++stats_.misses;
    return nullptr;
  }
  // Refresh recency: move to MRU position.
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++stats_.hits;
  return it->second.rewrite;
}

void RewriteCache::Insert(const std::string& key,
                          std::shared_ptr<PreparedRewrite> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entry->stamp_.clear();
  auto stamp = [&](const std::string& counter_key) {
    const std::atomic<uint64_t>& counter = counters_->by_key[counter_key];
    entry->stamp_.push_back(
        {&counter, counter.load(std::memory_order_acquire)});
  };
  stamp(CounterKey(kGeneration, {}));
  const std::vector<std::pair<std::string, std::string>> grants =
      GrantKeysOf(QueryMetadata{entry->querier, entry->purpose}, resolver_);
  for (const std::string& table : entry->dep_tables) {
    for (const auto& [querier, purpose] : grants) {
      stamp(CounterKey(kGrant, {&querier, &purpose, &table}));
    }
    stamp(CounterKey(kGuard, {&entry->querier, &entry->purpose, &table}));
    stamp(CounterKey(kProtection, {&table}));
  }
  entry->counters_ = counters_;

  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    it->second.rewrite = std::move(entry);
    return;
  }
  while (entries_.size() >= capacity_ && !lru_.empty()) {
    // Eviction only forgets the entry: a holder keeps executing it, and
    // its stamp still reports later mutations.
    EraseLocked(entries_.find(lru_.back()));
    ++stats_.evictions;
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{std::move(entry), lru_.begin()});
}

void RewriteCache::BumpGrant(const std::string& querier,
                             const std::string& purpose,
                             const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  BumpLocked(CounterKey(kGrant, {&querier, &purpose, &table}));
}

void RewriteCache::BumpGuard(const std::string& querier,
                             const std::string& purpose,
                             const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  BumpLocked(CounterKey(kGuard, {&querier, &purpose, &table}));
}

void RewriteCache::BumpProtection(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  BumpLocked(CounterKey(kProtection, {&table}));
}

void RewriteCache::BumpLocked(const std::string& key) {
  // A key without a counter was never stamped: nothing to make stale.
  auto it = counters_->by_key.find(key);
  if (it != counters_->by_key.end()) {
    it->second.fetch_add(1, std::memory_order_release);
  }
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
  BumpLocked(CounterKey(kGeneration, {}));
  entries_.clear();
  lru_.clear();
}

void RewriteCache::EraseLocked(
    std::unordered_map<std::string, Entry>::iterator it) {
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

}  // namespace sieve
