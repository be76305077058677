// EXCEPT/MINUS support and the Section 3.1 order-sensitivity argument:
// with non-monotonic operators, enforcing policies on base tables before the
// query operator is required for correct (sound + secure) results.

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "parser/parser.h"
#include "tests/test_fixtures.h"

namespace sieve {
namespace {

class SetOpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema({{"id", DataType::kInt}, {"v", DataType::kInt}});
    ASSERT_TRUE(db_.CreateTable("r1", schema).ok());
    ASSERT_TRUE(db_.CreateTable("r2", schema).ok());
    // r1 = {0..9}, r2 = {5..14} (values equal to ids).
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db_.Insert("r1", Row{Value::Int(i), Value::Int(i)}).ok());
    }
    for (int i = 5; i < 15; ++i) {
      ASSERT_TRUE(db_.Insert("r2", Row{Value::Int(i), Value::Int(i)}).ok());
    }
  }
  Database db_;
};

TEST_F(SetOpTest, ParserAcceptsExceptAndMinus) {
  auto except = Parser::Parse("SELECT * FROM r1 EXCEPT SELECT * FROM r2");
  ASSERT_TRUE(except.ok());
  EXPECT_EQ((*except)->set_op, SetOpKind::kExcept);
  auto minus = Parser::Parse("SELECT * FROM r1 MINUS SELECT * FROM r2");
  ASSERT_TRUE(minus.ok());
  EXPECT_EQ((*minus)->set_op, SetOpKind::kExcept);
  // Round trip prints EXCEPT.
  EXPECT_NE((*minus)->ToSql().find(" EXCEPT "), std::string::npos);
}

TEST_F(SetOpTest, ExceptSubtractsRows) {
  auto result =
      db_.ExecuteSql("SELECT * FROM r1 EXCEPT SELECT * FROM r2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 5u);  // ids 0..4
  for (const auto& row : result->rows) {
    EXPECT_LT(row[0].AsInt(), 5);
  }
}

TEST_F(SetOpTest, ExceptEmitsDistinctRows) {
  // Duplicate left rows collapse (SQL EXCEPT distinct semantics).
  ASSERT_TRUE(db_.Insert("r1", Row{Value::Int(0), Value::Int(0)}).ok());
  auto result = db_.ExecuteSql("SELECT * FROM r1 EXCEPT SELECT * FROM r2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 5u);
}

TEST_F(SetOpTest, ChainedSetOpsLeftAssociative) {
  // (r1 EXCEPT r2) UNION r2-slice.
  auto result = db_.ExecuteSql(
      "SELECT * FROM r1 EXCEPT SELECT * FROM r2 UNION SELECT * FROM r2 WHERE "
      "id = 14");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 6u);  // {0..4} ∪ {14}
}

TEST_F(SetOpTest, MixedUnionAllAndUnionDedupPerLink) {
  auto result = db_.ExecuteSql(
      "SELECT * FROM r1 WHERE id = 1 UNION ALL SELECT * FROM r1 WHERE id = 1");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
  auto dedup = db_.ExecuteSql(
      "SELECT * FROM r1 WHERE id = 1 UNION SELECT * FROM r1 WHERE id = 1");
  ASSERT_TRUE(dedup.ok());
  EXPECT_EQ(dedup->size(), 1u);
}

// Plans `sql` with the optimizer (no execution).
OperatorPtr PlanRoot(Database* db, const std::string& sql) {
  auto stmt = Parser::Parse(sql);
  EXPECT_TRUE(stmt.ok()) << sql;
  Optimizer optimizer(&db->catalog(), &db->profile());
  auto planned = optimizer.Plan(**stmt);
  EXPECT_TRUE(planned.ok()) << sql << " -> " << planned.status().ToString();
  return std::move(planned->root);
}

TEST_F(SetOpTest, UnionChainPlansAsOneNaryOperator) {
  for (const char* op : {" UNION ", " UNION ALL "}) {
    std::string sql = "SELECT * FROM r1 WHERE id = 0";
    for (int k = 1; k < 6; ++k) {
      sql += op + std::string("SELECT * FROM r1 WHERE id = ") +
             std::to_string(k);
    }
    OperatorPtr root = PlanRoot(&db_, sql);
    const auto* u = dynamic_cast<const UnionOperator*>(root.get());
    ASSERT_NE(u, nullptr) << sql;
    EXPECT_EQ(u->children().size(), 6u) << sql;
    EXPECT_EQ(u->all(), std::string(op) == " UNION ALL ") << sql;
  }
}

TEST_F(SetOpTest, MixedChainsFoldOnlyWhereLeftFoldAllows) {
  const std::string a = "SELECT * FROM r1";
  const std::string b = "SELECT * FROM r2";
  const std::string c = "SELECT * FROM r1 WHERE id > 3";
  // UNION over a UNION ALL run: distinct(a ++ b ++ c), one node.
  OperatorPtr p1 = PlanRoot(&db_, a + " UNION ALL " + b + " UNION " + c);
  const auto* u1 = dynamic_cast<const UnionOperator*>(p1.get());
  ASSERT_NE(u1, nullptr);
  EXPECT_FALSE(u1->all());
  EXPECT_EQ(u1->children().size(), 3u);
  // UNION ALL after a distinct run keeps the run as its left input.
  OperatorPtr p2 = PlanRoot(&db_, a + " UNION " + b + " UNION ALL " + c);
  const auto* u2 = dynamic_cast<const UnionOperator*>(p2.get());
  ASSERT_NE(u2, nullptr);
  EXPECT_TRUE(u2->all());
  ASSERT_EQ(u2->children().size(), 2u);
  const auto* inner =
      dynamic_cast<const UnionOperator*>(u2->children()[0].get());
  ASSERT_NE(inner, nullptr);
  EXPECT_FALSE(inner->all());
  EXPECT_EQ(inner->children().size(), 2u);
  // EXCEPT ends a run.
  OperatorPtr p3 = PlanRoot(
      &db_, a + " UNION " + b + " EXCEPT " + c + " UNION " + a);
  const auto* u3 = dynamic_cast<const UnionOperator*>(p3.get());
  ASSERT_NE(u3, nullptr);
  ASSERT_EQ(u3->children().size(), 2u);
  EXPECT_NE(dynamic_cast<const ExceptOperator*>(u3->children()[0].get()),
            nullptr);
}

// The flat plan must reproduce the left-folded binary chain exactly: same
// rows, same row order, same ExecStats, serial and parallel.
TEST_F(SetOpTest, FlatUnionMatchesLeftFoldedBinaryChain) {
  ASSERT_TRUE(db_.CreateIndex("r1", "id").ok());
  ASSERT_TRUE(db_.Analyze().ok());
  const std::vector<std::string> arms = {
      "SELECT * FROM r1 WHERE id < 7", "SELECT * FROM r2",
      "SELECT * FROM r1 WHERE id BETWEEN 2 AND 8", "SELECT * FROM r2 WHERE v > 9",
      "SELECT * FROM r1"};
  // Per-link kinds; each chain joins arms[0..links.size()] in order.
  const std::vector<std::vector<SetOpKind>> chains = {
      {SetOpKind::kUnion, SetOpKind::kUnion, SetOpKind::kUnion,
       SetOpKind::kUnion},
      {SetOpKind::kUnionAll, SetOpKind::kUnionAll, SetOpKind::kUnionAll},
      {SetOpKind::kUnionAll, SetOpKind::kUnion},
      {SetOpKind::kUnion, SetOpKind::kUnionAll},
      {SetOpKind::kUnion, SetOpKind::kExcept, SetOpKind::kUnion},
      {SetOpKind::kUnionAll, SetOpKind::kUnion, SetOpKind::kUnionAll,
       SetOpKind::kUnion},
  };
  ThreadPool pool(4);
  for (const auto& links : chains) {
    std::string sql = arms[0];
    for (size_t i = 0; i < links.size(); ++i) {
      sql += links[i] == SetOpKind::kUnion      ? " UNION "
             : links[i] == SetOpKind::kUnionAll ? " UNION ALL "
                                                : " EXCEPT ";
      sql += arms[i + 1];
    }
    for (int threads : {1, 4}) {
      for (int batch : {1, 1024}) {
        // Reference: the binary left fold, built by hand arm by arm.
        OperatorPtr folded = PlanRoot(&db_, arms[0]);
        for (size_t i = 0; i < links.size(); ++i) {
          OperatorPtr arm = PlanRoot(&db_, arms[i + 1]);
          if (links[i] == SetOpKind::kExcept) {
            folded = std::make_unique<ExceptOperator>(std::move(folded),
                                                      std::move(arm));
          } else {
            std::vector<OperatorPtr> pair;
            pair.push_back(std::move(folded));
            pair.push_back(std::move(arm));
            folded = std::make_unique<UnionOperator>(
                std::move(pair), links[i] == SetOpKind::kUnionAll);
          }
        }
        OperatorPtr flat = PlanRoot(&db_, sql);
        auto run = [&](Operator* root) {
          ExecStats stats;
          ExecContext ctx;
          ctx.catalog = &db_.catalog();
          ctx.stats = &stats;
          ctx.num_threads = threads;
          ctx.pool = &pool;
          ctx.batch_size = batch;
          auto result = Executor::Run(root, &ctx);
          EXPECT_TRUE(result.ok()) << sql << " -> "
                                   << result.status().ToString();
          return std::move(result).value();
        };
        ResultSet want = run(folded.get());
        ResultSet got = run(flat.get());
        std::vector<std::string> want_rows, got_rows;
        for (const Row& r : want.rows) want_rows.push_back(RowFingerprint(r));
        for (const Row& r : got.rows) got_rows.push_back(RowFingerprint(r));
        EXPECT_EQ(got_rows, want_rows)
            << sql << " threads=" << threads << " batch=" << batch;
        EXPECT_EQ(got.stats, want.stats)
            << sql << " threads=" << threads << " batch=" << batch;
      }
    }
  }
}

// The paper's Section 3.1 scenario: rj MINUS rk where a policy denies the
// querier a tuple t_k ∈ r_k that also exists in r_j. Applying policies to
// the base table first keeps t_j in the result; applying them after the set
// difference would lose it.
TEST(SetOpPolicyTest, PolicyAppliedBeforeSetDifference) {
  MiniCampus campus;
  Database& db = campus.db();
  // A second table holding a copy of owner 3's rows plus extras.
  Schema schema({{"id", DataType::kInt},
                 {"wifiAP", DataType::kInt},
                 {"owner", DataType::kInt},
                 {"ts_time", DataType::kTime},
                 {"ts_date", DataType::kDate}});
  ASSERT_TRUE(db.CreateTable("wifi_archive", schema).ok());
  const TableEntry* wifi = db.catalog().Find("wifi");
  wifi->table->ForEach([&](RowId, const Row& row) {
    if (row[2].AsInt() == 3) {
      (void)db.Insert("wifi_archive", row);
    }
  });
  ASSERT_TRUE(db.CreateIndex("wifi_archive", "owner").ok());
  ASSERT_TRUE(db.Analyze().ok());

  SieveMiddleware sieve(&db, &campus.groups());
  ASSERT_TRUE(sieve.Init().ok());
  // alice may see everything in the archive but nothing of owner 3 in the
  // live table (only owner 5).
  Policy archive_policy;
  archive_policy.table_name = "wifi_archive";
  archive_policy.owner = Value::Int(3);
  archive_policy.querier = "alice";
  archive_policy.purpose = "any";
  archive_policy.object_conditions.push_back(
      ObjectCondition::Eq("owner", Value::Int(3)));
  ASSERT_TRUE(sieve.AddPolicy(std::move(archive_policy)).ok());
  ASSERT_TRUE(sieve.AddPolicy(campus.MakePolicy(5, "alice", "any")).ok());

  // Archive rows minus live rows: because alice cannot see owner 3 in the
  // live table, the subtraction removes nothing — all 60 archive rows
  // survive. If policies were applied after the MINUS, the duplicates would
  // cancel and the result would be empty (the paper's inconsistency).
  auto result = sieve.Execute(
      "SELECT * FROM wifi_archive EXCEPT SELECT * FROM wifi",
      {"alice", "any"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 60u);

  // Sanity: without Sieve, the raw subtraction is empty.
  auto raw = db.ExecuteSql(
      "SELECT * FROM wifi_archive EXCEPT SELECT * FROM wifi");
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->size(), 0u);
}

}  // namespace
}  // namespace sieve
