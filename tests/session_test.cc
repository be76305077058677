// Unit tests for the session-oriented middleware API: SieveSession /
// PreparedQuery / ResultCursor, parameter binding edge cases, the
// rewrite cache's per-key version stamps (with a validity property test),
// LRU eviction and the validated SieveOptions update path.

#include "sieve/session.h"

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "parser/parser.h"
#include "sieve/middleware.h"
#include "sieve/rewrite_cache.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "tests/test_fixtures.h"

namespace sieve {
namespace {

std::vector<std::string> OrderedFingerprints(const ResultSet& rs) {
  std::vector<std::string> out;
  out.reserve(rs.rows.size());
  for (const auto& row : rs.rows) {
    std::string fp;
    for (const auto& v : row) fp += v.ToString() + "|";
    out.push_back(std::move(fp));
  }
  return out;
}

// Order-insensitive view, for comparing across *different* SQL texts
// (e.g. `?` vs inlined literal): the strategy selector may pick different
// access paths for them, which legitimately reorders rows.
std::multiset<std::string> Fingerprints(const ResultSet& rs) {
  std::vector<std::string> ordered = OrderedFingerprints(rs);
  return {ordered.begin(), ordered.end()};
}

TEST(NormalizeSqlTest, StripsLineAndBlockComments) {
  EXPECT_EQ(NormalizeSql("SELECT 1 -- trailing\n+ 2"), "SELECT 1 + 2");
  EXPECT_EQ(NormalizeSql("SELECT /* inline */ 1"), "SELECT 1");
  EXPECT_EQ(NormalizeSql("SELECT /* spans\nlines */ 1"), "SELECT 1");
  // A block comment separates tokens like whitespace does.
  EXPECT_EQ(NormalizeSql("SELECT a/*x*/FROM t"), "SELECT a FROM t");
  // Leading comment leaves no leading space.
  EXPECT_EQ(NormalizeSql("/* header */ SELECT 1"), "SELECT 1");
  // Comment markers inside string literals survive verbatim.
  EXPECT_EQ(NormalizeSql("SELECT '/* kept */' FROM t"),
            "SELECT '/* kept */' FROM t");
  EXPECT_EQ(NormalizeSql("SELECT '-- kept' FROM t"), "SELECT '-- kept' FROM t");
}

TEST(NormalizeSqlTest, UnterminatedBlockCommentStaysInvalid) {
  // The lexer rejects an unterminated block comment; normalization must
  // not silently swallow it and make the text parseable.
  std::string normalized = NormalizeSql("SELECT 1 /* oops");
  EXPECT_NE(normalized.find("/*"), std::string::npos);
  EXPECT_FALSE(Parser::Parse(normalized).ok());
}

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : sieve_(&campus_.db(), &campus_.groups()) {
    EXPECT_TRUE(sieve_.Init().ok());
    // alice sees owners 0 and 1; owner 1 only 9:00-14:00.
    EXPECT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(0, "alice", "any")).ok());
    EXPECT_TRUE(
        sieve_.AddPolicy(campus_.MakePolicy(1, "alice", "any", 9, 14)).ok());
  }

  MiniCampus campus_;
  SieveMiddleware sieve_;
  QueryMetadata md_{"alice", "any"};
};

TEST_F(SessionTest, PrepareOnceExecuteManyMatchesOneShot) {
  const std::string sql = "SELECT * FROM wifi WHERE wifiAP = 2";
  auto one_shot = sieve_.Execute(sql, md_);
  ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();

  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare(sql);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->parameter_count(), 0u);
  for (int run = 0; run < 3; ++run) {
    auto repeated = prepared->Execute();
    ASSERT_TRUE(repeated.ok()) << repeated.status().ToString();
    EXPECT_EQ(OrderedFingerprints(*one_shot), OrderedFingerprints(*repeated))
        << "run " << run;
    EXPECT_EQ(one_shot->stats, repeated->stats) << "run " << run;
  }
}

TEST_F(SessionTest, PositionalParametersMatchInlinedLiterals) {
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare("SELECT * FROM wifi WHERE wifiAP = ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_EQ(prepared->parameter_count(), 1u);
  EXPECT_EQ(prepared->parameter_names()[0], "");

  for (int ap = 0; ap < 4; ++ap) {
    auto bound = prepared->Execute({Value::Int(ap)});
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    // Same rows and order as inlined literals. Stats may legitimately
    // differ: at rewrite time a `?` is not sargable, so the strategy
    // selector can pick a different (equally correct) access path than it
    // would for the literal query.
    auto literal = sieve_.Execute(
        "SELECT * FROM wifi WHERE wifiAP = " + std::to_string(ap), md_);
    ASSERT_TRUE(literal.ok());
    EXPECT_EQ(Fingerprints(*literal), Fingerprints(*bound)) << "ap=" << ap;
    // Re-binding the same value must be fully deterministic, stats included.
    auto again = prepared->Execute({Value::Int(ap)});
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(OrderedFingerprints(*bound), OrderedFingerprints(*again));
    EXPECT_EQ(bound->stats, again->stats) << "ap=" << ap;
  }
}

TEST_F(SessionTest, NamedParametersShareSlotsAndIgnoreCase) {
  SieveSession session(&sieve_, md_);
  // :lo appears twice and must share one slot; names are case-insensitive.
  auto prepared = session.Prepare(
      "SELECT * FROM wifi WHERE ts_time BETWEEN :lo AND :hi AND "
      "ts_time >= :LO");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_EQ(prepared->parameter_count(), 2u);
  EXPECT_EQ(prepared->parameter_names()[0], "lo");
  EXPECT_EQ(prepared->parameter_names()[1], "hi");

  auto named = prepared->ExecuteNamed(
      {{"HI", Value::String("12:00")}, {"lo", Value::String("09:00")}});
  ASSERT_TRUE(named.ok()) << named.status().ToString();
  auto literal = sieve_.Execute(
      "SELECT * FROM wifi WHERE ts_time BETWEEN '09:00' AND '12:00' AND "
      "ts_time >= '09:00'",
      md_);
  ASSERT_TRUE(literal.ok());
  EXPECT_EQ(Fingerprints(*literal), Fingerprints(*named));
}

TEST_F(SessionTest, StringParameterCoercesToTimeColumn) {
  // Binding a string against a time column goes through the same literal
  // coercion as an inlined quoted literal.
  SieveSession session(&sieve_, md_);
  auto prepared =
      session.Prepare("SELECT * FROM wifi WHERE ts_time BETWEEN ? AND ?");
  ASSERT_TRUE(prepared.ok());
  auto bound =
      prepared->Execute({Value::String("09:00"), Value::String("11:00")});
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto literal = sieve_.Execute(
      "SELECT * FROM wifi WHERE ts_time BETWEEN '09:00' AND '11:00'", md_);
  ASSERT_TRUE(literal.ok());
  EXPECT_EQ(Fingerprints(*literal), Fingerprints(*bound));
  EXPECT_GT(bound->size(), 0u);
}

TEST_F(SessionTest, MissingBindIsAnError) {
  SieveSession session(&sieve_, md_);
  auto prepared =
      session.Prepare("SELECT * FROM wifi WHERE wifiAP = ? AND owner = ?");
  ASSERT_TRUE(prepared.ok());
  ASSERT_EQ(prepared->parameter_count(), 2u);

  auto too_few = prepared->Execute({Value::Int(1)});
  ASSERT_FALSE(too_few.ok());
  EXPECT_EQ(too_few.status().code(), StatusCode::kInvalidArgument);

  auto too_many =
      prepared->Execute({Value::Int(1), Value::Int(2), Value::Int(3)});
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument);

  auto none = prepared->Execute();
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SessionTest, NamedBindingErrors) {
  SieveSession session(&sieve_, md_);
  auto prepared =
      session.Prepare("SELECT * FROM wifi WHERE wifiAP = :ap AND owner = ?");
  ASSERT_TRUE(prepared.ok());

  // The positional slot cannot be addressed by name.
  auto positional_by_name = prepared->ExecuteNamed({{"ap", Value::Int(1)}});
  ASSERT_FALSE(positional_by_name.ok());
  EXPECT_EQ(positional_by_name.status().code(), StatusCode::kInvalidArgument);

  auto all_named = session.Prepare(
      "SELECT * FROM wifi WHERE wifiAP = :ap AND owner = :who");
  ASSERT_TRUE(all_named.ok());
  auto unknown = all_named->ExecuteNamed(
      {{"ap", Value::Int(1)}, {"nobody", Value::Int(0)}});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);

  auto missing = all_named->ExecuteNamed({{"ap", Value::Int(1)}});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);

  auto twice = all_named->ExecuteNamed({{"ap", Value::Int(1)},
                                        {"AP", Value::Int(2)},
                                        {"who", Value::Int(0)}});
  ASSERT_FALSE(twice.ok());
  EXPECT_EQ(twice.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SessionTest, NullBindMatchesNothing) {
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare("SELECT * FROM wifi WHERE owner = ?");
  ASSERT_TRUE(prepared.ok());
  auto result = prepared->Execute({Value::Null()});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 0u);  // SQL NULL comparison is never true
}

TEST_F(SessionTest, TypeMismatchedBindComparesFalseNotCrash) {
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare("SELECT * FROM wifi WHERE owner = ?");
  ASSERT_TRUE(prepared.ok());
  // Values order across type families; an int column never equals a string.
  auto result = prepared->Execute({Value::String("bob")});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 0u);
}

TEST_F(SessionTest, RewriteCacheHitsOnRepeatAndInvalidatesOnAddPolicy) {
  const std::string sql = "SELECT * FROM wifi WHERE wifiAP = ?";
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  RewriteCacheStats before = sieve_.rewrite_cache_stats();

  // Same SQL, different whitespace, same querier: cache hits.
  for (int i = 0; i < 5; ++i) {
    auto again = session.Prepare("SELECT *   FROM wifi\n WHERE wifiAP = ?");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->rewrite().get(), prepared->rewrite().get())
        << "expected the shared cached rewrite";
  }
  RewriteCacheStats after = sieve_.rewrite_cache_stats();
  EXPECT_GE(after.hits, before.hits + 5);

  // Comments — line and block — normalize away too (regression: block
  // comments used to produce a distinct cache key).
  auto commented = session.Prepare(
      "SELECT * /* projection */ FROM wifi -- table\n WHERE wifiAP = ?");
  ASSERT_TRUE(commented.ok());
  EXPECT_EQ(commented->rewrite().get(), prepared->rewrite().get())
      << "comment-only variants must share the cached rewrite";

  // AddPolicy for alice touches this rewrite's dependency key: the next
  // Execute transparently re-prepares and reflects the new corpus.
  uint64_t epoch_before = sieve_.policy_epoch();
  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(5, "alice", "any")).ok());
  EXPECT_GT(sieve_.policy_epoch(), epoch_before);

  auto result = prepared->Execute({Value::Int(3)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto oracle =
      sieve_.ExecuteReference("SELECT * FROM wifi WHERE wifiAP = 3", md_);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(result->size(), oracle->size());
  bool saw_owner5 = false;
  for (const auto& row : result->rows) saw_owner5 |= row[2].AsInt() == 5;
  EXPECT_TRUE(saw_owner5) << "post-epoch execute must see the new policy";
  EXPECT_GT(prepared->rewrite()->epoch, epoch_before)
      << "prepared query must have refreshed its snapshot";
  EXPECT_GE(sieve_.rewrite_cache_stats().invalidations, 1u);
}

TEST_F(SessionTest, CursorStreamsIdenticalRowsAndStats) {
  const std::string sql = "SELECT * FROM wifi WHERE ts_time >= '08:00'";
  auto one_shot = sieve_.Execute(sql, md_);
  ASSERT_TRUE(one_shot.ok());
  ASSERT_GT(one_shot->size(), 10u);

  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_EQ(cursor->schema().ToString(), one_shot->schema.ToString());

  ResultSet chunked;
  chunked.schema = cursor->schema();
  size_t batches = 0;
  while (true) {
    auto more = cursor->Next(&chunked.rows, /*max_rows=*/7);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ++batches;
  }
  EXPECT_TRUE(cursor->exhausted());
  EXPECT_GT(batches, 1u) << "batch size 7 must take several pulls";
  EXPECT_EQ(OrderedFingerprints(*one_shot), OrderedFingerprints(chunked));
  EXPECT_EQ(one_shot->stats, cursor->stats());
}

TEST_F(SessionTest, CursorDrainMatchesExecute) {
  const std::string sql = "SELECT * FROM wifi WHERE wifiAP = 1";
  auto one_shot = sieve_.Execute(sql, md_);
  ASSERT_TRUE(one_shot.ok());

  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok());
  auto drained = cursor->Drain();
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(OrderedFingerprints(*one_shot), OrderedFingerprints(*drained));
  EXPECT_EQ(one_shot->stats, drained->stats);
}

TEST_F(SessionTest, ExhaustedCursorReleasesEpochPinForWriters) {
  // A drained-but-still-alive cursor must not hold the shared state lock:
  // AddPolicy on the same thread would otherwise deadlock.
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare("SELECT * FROM wifi WHERE wifiAP = 0");
  ASSERT_TRUE(prepared.ok());
  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok());
  std::vector<Row> batch;
  while (true) {
    auto more = cursor->Next(&batch);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
  }
  ASSERT_TRUE(cursor->exhausted());
  // Cursor still in scope; this must complete without blocking.
  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(7, "alice", "any")).ok());
}

TEST_F(SessionTest, ClosedCursorReleasesEpochPinEarly) {
  // The LIMIT-style exit: read a few rows, Close(), then resume normal
  // session work (AddPolicy would deadlock if the pin were still held).
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare("SELECT * FROM wifi");
  ASSERT_TRUE(prepared.ok());
  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok());
  std::vector<Row> batch;
  auto more = cursor->Next(&batch, /*max_rows=*/5);
  ASSERT_TRUE(more.ok());
  EXPECT_TRUE(*more);
  EXPECT_EQ(batch.size(), 5u);
  cursor->Close();
  EXPECT_TRUE(cursor->exhausted());
  EXPECT_EQ(cursor->stats().rows_output, 5u);  // frozen at emitted rows
  // Abandoned stream stays ended, and the writer path is unblocked.
  auto after_close = cursor->Next(&batch);
  ASSERT_TRUE(after_close.ok());
  EXPECT_FALSE(*after_close);
  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(8, "alice", "any")).ok());
}

TEST_F(SessionTest, CursorRejectsZeroBatchWithoutEndingStream) {
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare("SELECT * FROM wifi WHERE wifiAP = 0");
  ASSERT_TRUE(prepared.ok());
  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok());
  std::vector<Row> batch;
  auto zero = cursor->Next(&batch, /*max_rows=*/0);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(cursor->exhausted());  // caller bug, not end of stream
  auto rest = cursor->Drain();
  ASSERT_TRUE(rest.ok());
  EXPECT_GT(rest->size(), 0u);
}

TEST_F(SessionTest, NonAuthoritativeProbeMissIsNotCounted) {
  // The optimistic pre-lock probe must not double-count misses: only the
  // authoritative retry records one.
  RewriteCache cache;
  EXPECT_EQ(cache.Lookup("absent", /*authoritative=*/false), nullptr);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.Lookup("absent"), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(SessionTest, LruEvictionSparesJustHitEntry) {
  // Regression: capacity eviction used to erase(begin()) on an
  // unordered_map — an arbitrary, possibly hottest, entry. True LRU must
  // evict the least recently used entry, never one that just hit.
  RewriteCache cache(/*capacity=*/2);
  auto mk = [] {
    auto e = std::make_shared<PreparedRewrite>();
    e->epoch = 1;
    return e;
  };
  cache.Insert("a", mk());
  cache.Insert("b", mk());
  ASSERT_NE(cache.Lookup("a"), nullptr);  // refreshes a's recency
  cache.Insert("c", mk());                // evicts b (LRU), not a
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Lookup("a"), nullptr) << "just-hit entry must survive";
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Eviction is capacity management, not invalidation.
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

TEST_F(SessionTest, EvictedHeldEntryStillReachableByKeyedInvalidation) {
  // Regression: a policy mutation *after* eviction must still reach an
  // entry a PreparedQuery holds, or the holder silently executes a
  // pre-mutation rewrite forever. The entry's stamp goes with it.
  RewriteCache cache(/*capacity=*/1);
  auto mk = [](std::string querier, std::vector<std::string> tables) {
    auto e = std::make_shared<PreparedRewrite>();
    e->epoch = 1;
    e->querier = std::move(querier);
    e->purpose = "any";
    e->dep_tables = std::move(tables);
    return e;
  };
  auto held = mk("alice", {"wifi"});
  cache.Insert("a", held);
  cache.Insert("b", mk("bob", {"wifi"}));  // evicts a; `held` lives on
  ASSERT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(held->stale()) << "eviction alone must not invalidate";

  // A mutation on alice's grant key reaches the evicted-but-held entry and
  // spares the resident non-matching one.
  cache.BumpGrant("alice", "any", "wifi");
  EXPECT_TRUE(held->stale());
  EXPECT_NE(cache.Lookup("b"), nullptr);
  // Only resident entries a Lookup drops count as invalidations.
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

TEST_F(SessionTest, EvictedHeldEntryReachedByWholesaleInvalidation) {
  RewriteCache cache(/*capacity=*/1);
  auto mk = [](std::vector<std::string> tables) {
    auto e = std::make_shared<PreparedRewrite>();
    e->epoch = 1;
    e->dep_tables = std::move(tables);
    return e;
  };
  auto held = mk({"wifi", "sensors"});
  cache.Insert("a", held);
  auto resident = mk({"wifi"});
  cache.Insert("b", resident);  // evicts a
  cache.Clear();
  EXPECT_TRUE(held->stale()) << "evicted-but-held entry";
  EXPECT_TRUE(resident->stale()) << "resident entry";
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 0u) << "a reset, not a mutation";
}

TEST_F(SessionTest, HeldEntryOutlivesItsCache) {
  // The stamp shares ownership of the counters it reads, so a holder can
  // still check it after the cache is gone.
  auto held = std::make_shared<PreparedRewrite>();
  held->dep_tables = {"wifi"};
  {
    RewriteCache cache;
    cache.Insert("a", held);
    cache.BumpProtection("wifi");
  }
  EXPECT_TRUE(held->stale());
}

TEST_F(SessionTest, KeyedInvalidationOnlyTouchesMatchingEntries) {
  RewriteCache cache;
  auto mk = [](std::string querier, std::vector<std::string> tables) {
    auto e = std::make_shared<PreparedRewrite>();
    e->epoch = 1;
    e->querier = std::move(querier);
    e->purpose = "any";
    e->dep_tables = std::move(tables);
    return e;
  };
  auto alice = mk("alice", {"wifi"});
  auto bob = mk("bob", {"wifi"});
  auto carol = mk("carol", {"sensors"});
  cache.Insert("a", alice);
  cache.Insert("b", bob);
  cache.Insert("c", carol);

  cache.BumpGrant("alice", "any", "wifi");
  EXPECT_TRUE(alice->stale());
  EXPECT_FALSE(bob->stale());
  EXPECT_FALSE(carol->stale());
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);

  // A protection transition reaches every entry on the table.
  cache.BumpProtection("wifi");
  EXPECT_TRUE(bob->stale());
  EXPECT_FALSE(carol->stale()) << "other table's entries stay untouched";
}

TEST_F(SessionTest, UnrelatedAddPolicyKeepsOtherQueriersRewrites) {
  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(2, "bob", "any")).ok());
  SieveSession alice_session(&sieve_, md_);
  SieveSession bob_session(&sieve_, QueryMetadata{"bob", "any"});
  auto pa = alice_session.Prepare("SELECT * FROM wifi WHERE wifiAP = 1");
  auto pb = bob_session.Prepare("SELECT * FROM wifi WHERE wifiAP = 1");
  ASSERT_TRUE(pa.ok() && pb.ok());
  auto a_before = pa->rewrite();
  auto b_before = pb->rewrite();

  // A policy granted to bob invalidates bob's snapshot, not alice's.
  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(3, "bob", "any")).ok());
  EXPECT_FALSE(a_before->stale());
  EXPECT_TRUE(b_before->stale());

  RewriteCacheStats before = sieve_.rewrite_cache_stats();
  ASSERT_TRUE(pa->Execute().ok());
  EXPECT_EQ(sieve_.rewrite_cache_stats().misses, before.misses)
      << "alice must execute without re-preparing";
  EXPECT_EQ(pa->rewrite().get(), a_before.get());

  // bob transparently re-prepares and sees the new corpus.
  auto rb = pb->Execute();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_NE(pb->rewrite().get(), b_before.get());
  auto oracle =
      sieve_.ExecuteReference("SELECT * FROM wifi WHERE wifiAP = 1",
                              QueryMetadata{"bob", "any"});
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(rb->size(), oracle->size());
}

TEST_F(SessionTest, AddPolicyAfterEvictionStillInvalidatesHeldRewrite) {
  // End-to-end shape of the eviction-reach regression: alice prepares, cache
  // churn (here synthetic one-shot entries) evicts her resident entry, and
  // only THEN a policy for alice lands. Her PreparedQuery must re-prepare
  // and serve the post-mutation rows, not the snapshot it prepared under.
  SieveSession session(&sieve_, md_);
  auto pa = session.Prepare("SELECT * FROM wifi WHERE wifiAP = 1");
  ASSERT_TRUE(pa.ok());
  auto before = pa->rewrite();

  RewriteCache& cache = sieve_.rewrite_cache();
  const uint64_t epoch = sieve_.policy_epoch();
  for (size_t i = 0; cache.stats().evictions == 0; ++i) {
    ASSERT_LT(i, 2 * RewriteCache::kMaxEntries) << "churn never evicted";
    auto filler = std::make_shared<PreparedRewrite>();
    filler->epoch = epoch;
    cache.Insert("churn-" + std::to_string(i), filler);
  }
  EXPECT_FALSE(before->stale()) << "eviction alone must not invalidate";

  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(5, "alice", "any")).ok());
  EXPECT_TRUE(before->stale())
      << "post-eviction AddPolicy must reach the held rewrite";

  auto rows = pa->Execute();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_NE(pa->rewrite().get(), before.get()) << "must have re-prepared";
  auto oracle = sieve_.ExecuteReference("SELECT * FROM wifi WHERE wifiAP = 1",
                                        md_);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(rows->size(), oracle->size());
}

TEST_F(SessionTest, ClearedCacheStillInvalidatesHeldRewrite) {
  // Regression: Clear() dropped resident entries without marking them
  // stale, so a PreparedQuery prepared before the Clear() was out of reach
  // of every later keyed invalidation and served its pre-mutation rewrite
  // forever.
  const std::string sql = "SELECT * FROM wifi WHERE wifiAP = 1";
  SieveSession session(&sieve_, md_);
  auto pa = session.Prepare(sql);
  ASSERT_TRUE(pa.ok()) << pa.status().ToString();
  ASSERT_TRUE(pa->Execute().ok());

  const uint64_t invalidations = sieve_.rewrite_cache_stats().invalidations;
  sieve_.rewrite_cache().Clear();
  EXPECT_EQ(sieve_.rewrite_cache_stats().invalidations, invalidations)
      << "Clear() is a reset, not a counted invalidation";
  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(5, "alice", "any")).ok());

  auto rows = pa->Execute();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  auto oracle = sieve_.ExecuteReference(sql, md_);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(Fingerprints(*rows), Fingerprints(*oracle));
}

TEST_F(SessionTest, GroupGrantInvalidatesMemberQueriersRewrites) {
  // bob ∈ students: a policy granted to the group must invalidate bob's
  // cached rewrite (the grant reaches him through membership) while
  // leaving alice's (faculty) untouched.
  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(2, "bob", "any")).ok());
  SieveSession alice_session(&sieve_, md_);
  SieveSession bob_session(&sieve_, QueryMetadata{"bob", "any"});
  auto pa = alice_session.Prepare("SELECT * FROM wifi WHERE wifiAP = 2");
  auto pb = bob_session.Prepare("SELECT * FROM wifi WHERE wifiAP = 2");
  ASSERT_TRUE(pa.ok() && pb.ok());

  ASSERT_TRUE(sieve_.AddPolicy(campus_.MakePolicy(4, "students", "any")).ok());
  EXPECT_FALSE(pa->rewrite()->stale());
  EXPECT_TRUE(pb->rewrite()->stale());

  auto rb = pb->Execute();
  ASSERT_TRUE(rb.ok());
  auto oracle =
      sieve_.ExecuteReference("SELECT * FROM wifi WHERE wifiAP = 2",
                              QueryMetadata{"bob", "any"});
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(rb->size(), oracle->size());
}

TEST_F(SessionTest, DefaultDenyVisibleInRewriteDiagnostics) {
  SieveSession session(&sieve_, QueryMetadata{"eve", "any"});
  auto prepared = session.Prepare("SELECT * FROM wifi");
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared->rewrite()->default_denied);
  auto result = prepared->Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 0u);
}

TEST_F(SessionTest, SetOptionsValidates) {
  SieveOptions bad = sieve_.options();
  bad.num_threads = 0;
  auto st = sieve_.set_options(bad);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  bad = sieve_.options();
  bad.timeout_seconds = -1.0;
  st = sieve_.set_options(bad);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  SieveOptions good = sieve_.options();
  good.num_threads = 4;
  good.timeout_seconds = 12.5;
  ASSERT_TRUE(sieve_.set_options(good).ok());
  EXPECT_EQ(sieve_.options().num_threads, 4);
  EXPECT_EQ(sieve_.options().timeout_seconds, 12.5);
}

TEST_F(SessionTest, SetOptionsTimeoutAppliesToPreparedExecution) {
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare("SELECT * FROM wifi");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Execute().ok());

  SieveOptions options = sieve_.options();
  options.timeout_seconds = 1e-7;  // effectively instant
  ASSERT_TRUE(sieve_.set_options(options).ok());
  auto timed_out = prepared->Execute();
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kTimeout);
}

TEST_F(SessionTest, UnboundParameterInsideScalarSubqueryFailsCleanly) {
  // Placeholders inside scalar subqueries are documented as unsupported:
  // the subquery text is re-parsed per outer row after binding happened.
  SieveSession session(&sieve_, md_);
  auto prepared = session.Prepare(
      "SELECT * FROM wifi WHERE owner = "
      "(SELECT MAX(w2.owner) FROM wifi AS w2 WHERE w2.wifiAP = ?)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  // The outer statement has no visible slot; the stray inner placeholder
  // surfaces as a clean execution error, not a crash.
  EXPECT_EQ(prepared->parameter_count(), 0u);
  auto result = prepared->Execute();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
}

TEST(GrantKeysTest, EnumeratesExactlyTheMatchingGrants) {
  // GrantKeysOf(md) is GrantMatchesMetadata(., ., md) enumerated: a grant
  // (x, y) reaches md exactly when (lower(x), lower(y)) is among the keys.
  MapGroupResolver groups;
  groups.AddMembership("Bob", "Students");
  groups.AddMembership("bob", "TAs");
  groups.AddMembership("carol", "students");
  const std::vector<std::string> names = {"bob",  "BOB",     "Students", "tas",
                                          "Carol", "faculty", ""};
  const std::vector<std::string> purposes = {"Analytics", "analytics", "ANY",
                                             "any",       "Social",    ""};
  for (const GroupResolver* resolver :
       {static_cast<const GroupResolver*>(&groups),
        static_cast<const GroupResolver*>(nullptr)}) {
    for (const std::string& q : names) {
      for (const std::string& p : purposes) {
        const QueryMetadata md{q, p};
        const auto keys = GrantKeysOf(md, resolver);
        const std::set<std::pair<std::string, std::string>> key_set(
            keys.begin(), keys.end());
        EXPECT_EQ(key_set.size(), keys.size()) << "keys are distinct";
        for (const auto& [x, y] : keys) {
          EXPECT_TRUE(GrantMatchesMetadata(x, y, md, resolver))
              << x << "/" << y << " for " << q << "/" << p;
        }
        for (const std::string& x : names) {
          for (const std::string& y : purposes) {
            EXPECT_EQ(GrantMatchesMetadata(x, y, md, resolver),
                      key_set.count({ToLower(x), ToLower(y)}) == 1)
                << x << "/" << y << " for " << q << "/" << p;
          }
        }
      }
    }
  }
}

TEST(RewriteCacheValidityProperty, StaleMatchesPushRuleUnderRandomChurn) {
  // A seeded random stream of real mutations runs through the middleware
  // and its stores. After every step each held entry's stale() must equal
  // the push rule the cache applied before it had version stamps: a policy
  // mutation on (x, y, t) reaches the entries on t whose metadata the
  // grant matches (GrantMatchesMetadata), or every entry on t when t's
  // protection flips; a guard mutation on (q, p, t) reaches the entries of
  // exactly that key; a reload or Clear() reaches every entry. Staleness
  // is sticky. Held entries are admitted through Insert as a session
  // would, and are repeatedly evicted while held.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MiniCampus campus;
    MapGroupResolver groups;
    groups.AddMembership("Bob", "Students");
    groups.AddMembership("carol", "STUDENTS");
    groups.AddMembership("ALICE", "Faculty");
    SieveMiddleware sieve(&campus.db(), &groups);
    ASSERT_TRUE(sieve.Init().ok());
    RewriteCache& cache = sieve.rewrite_cache();
    Rng rng(seed);
    auto pick = [&rng](const std::vector<std::string>& v) {
      return v[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(v.size()) - 1))];
    };
    const std::vector<std::string> users = {"alice", "Bob", "CAROL", "dave"};
    const std::vector<std::string> grantees = {"ALICE", "bob",      "Carol",
                                               "dave",  "students", "Faculty"};
    const std::vector<std::string> purposes = {"Analytics", "ANY", "any",
                                               "social"};
    const std::vector<std::string> tables = {"wifi", "Aps"};

    struct Held {
      std::shared_ptr<PreparedRewrite> entry;
      bool stale = false;  // the push rule's verdict
    };
    std::vector<Held> held;
    std::vector<int64_t> live;
    size_t admitted = 0;
    auto protected_by = [&](const std::string& table) {
      for (const Policy& p : sieve.policies().policies()) {
        if (EqualsIgnoreCase(p.table_name, table)) return true;
      }
      return false;
    };
    auto reads = [](const Held& h, const std::string& table) {
      for (const std::string& t : h.entry->dep_tables) {
        if (t == ToLower(table)) return true;
      }
      return false;
    };
    auto policy_event = [&](const std::string& x, const std::string& y,
                            const std::string& table, bool flipped) {
      for (Held& h : held) {
        const QueryMetadata md{h.entry->querier, h.entry->purpose};
        if (reads(h, table) &&
            (flipped || GrantMatchesMetadata(x, y, md, &groups))) {
          h.stale = true;
        }
      }
    };
    auto guard_event = [&](const std::string& q, const std::string& p,
                           const std::string& table) {
      for (Held& h : held) {
        if (reads(h, table) && h.entry->querier == ToLower(q) &&
            h.entry->purpose == ToLower(p)) {
          h.stale = true;
        }
      }
    };

    for (int step = 0; step < 150; ++step) {
      if (held.size() < 12 || rng.Chance(0.3)) {
        auto entry = std::make_shared<PreparedRewrite>();
        entry->querier = ToLower(pick(users));
        entry->purpose = ToLower(pick(purposes));
        const int64_t mask = rng.Uniform(1, 3);
        if (mask & 1) entry->dep_tables.push_back("wifi");
        if (mask & 2) entry->dep_tables.push_back("aps");
        cache.Insert("held-" + std::to_string(admitted++), entry);
        held.push_back({entry, false});
      }
      if (held.size() > 12) {  // the last holder of one entry lets go
        held.erase(held.begin() + rng.Uniform(0, 12));
      }

      const std::string table = pick(tables);
      switch (rng.Uniform(0, 9)) {
        case 0:
        case 1:
        case 2: {
          const std::string x = pick(grantees);
          const std::string y = pick(purposes);
          const bool flipped = !protected_by(table);
          Policy policy =
              campus.MakePolicy(static_cast<int>(rng.Uniform(0, 9)), x, y);
          policy.table_name = table;
          auto id = sieve.AddPolicy(std::move(policy));
          ASSERT_TRUE(id.ok()) << id.status().ToString();
          live.push_back(*id);
          policy_event(x, y, table, flipped);
          break;
        }
        case 3:
        case 4: {
          if (live.empty()) break;
          const size_t k = static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
          const Policy* found = sieve.policies().FindPolicy(live[k]);
          ASSERT_NE(found, nullptr);
          const Policy removed = *found;
          ASSERT_TRUE(sieve.policies().RemovePolicy(live[k]).ok());
          live.erase(live.begin() + static_cast<int64_t>(k));
          policy_event(removed.querier, removed.purpose, removed.table_name,
                       !protected_by(removed.table_name));
          break;
        }
        case 5: {
          GuardedExpression ge;
          ge.querier = pick(users);
          ge.purpose = pick(purposes);
          ge.table_name = table;
          const std::string q = ge.querier;
          const std::string p = ge.purpose;
          ASSERT_TRUE(sieve.guards().Put(std::move(ge)).ok());
          guard_event(q, p, table);
          break;
        }
        case 6: {
          const std::string q = pick(users);
          const std::string p = pick(purposes);
          sieve.guards().MarkOutdated(q, p, table);
          guard_event(q, p, table);
          break;
        }
        case 7:
          ASSERT_TRUE(sieve.policies().LoadFromTables().ok());
          for (Held& h : held) h.stale = true;
          break;
        case 8:
          cache.Clear();
          for (Held& h : held) h.stale = true;
          break;
        default:
          break;  // no mutation: every verdict holds still
      }

      if (rng.Chance(0.5)) {
        // Evict every held entry, as a capacity-1 cache would.
        for (size_t i = 0; i < RewriteCache::kMaxEntries; ++i) {
          cache.Insert(StrFormat("filler-%d-%zu", step, i),
                       std::make_shared<PreparedRewrite>());
        }
        EXPECT_EQ(cache.Lookup("held-" + std::to_string(admitted - 1), false),
                  nullptr);
      }
      for (const Held& h : held) {
        EXPECT_EQ(h.entry->stale(), h.stale)
            << "step " << step << ": " << h.entry->querier << "/"
            << h.entry->purpose << " on " << h.entry->dep_tables.front();
      }
    }
  }
}

}  // namespace
}  // namespace sieve
