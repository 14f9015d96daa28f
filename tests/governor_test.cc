/// Unit tests for the resource-governance layer: CancelToken's one-winner
/// semantics under contention, Governor budget/deadline enforcement,
/// ParallelForStatus's min-index error determinism, and the recursion
/// depth caps added to the writers and the reference evaluator.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/governor.h"
#include "common/thread_pool.h"
#include "dsl/reference_eval.h"
#include "hdt/hdt.h"
#include "json/json_parser.h"
#include "json/json_writer.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace mitra::common {
namespace {

TEST(CancelToken, FirstCauseWinsUnderContention) {
  for (int round = 0; round < 20; ++round) {
    CancelToken token;
    constexpr int kThreads = 8;
    std::atomic<int> go{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        go.fetch_add(1);
        while (go.load() < kThreads) {
        }
        token.Cancel(Status::ResourceExhausted("cause " + std::to_string(i)));
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_TRUE(token.cancelled());
    // Exactly one cause was published; every read observes the same one.
    Status first = token.cause();
    EXPECT_FALSE(first.ok());
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(token.cause().ToString(), first.ToString());
    }
    EXPECT_EQ(token.Check().ToString(), first.ToString());
  }
}

TEST(Governor, UnlimitedGovernorNeverTrips) {
  Governor gov;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(gov.Check("test/site").ok());
    EXPECT_TRUE(gov.ChargeStates(1000, "test/site").ok());
    EXPECT_TRUE(gov.ChargeRows(1000, "test/site").ok());
    EXPECT_TRUE(gov.ChargeBytes(1 << 20, "test/site").ok());
  }
  BudgetUsage u = gov.Usage();
  EXPECT_EQ(u.states, 1000u * 1000u);
  EXPECT_EQ(u.rows, 1000u * 1000u);
  EXPECT_EQ(u.bytes, 1000ull << 20);
  EXPECT_GE(u.checks, 4000u);
}

TEST(Governor, StateBudgetOverrunTripsTokenAndNamesSite) {
  ResourceLimits limits;
  limits.max_states = 100;
  Governor gov(limits);
  EXPECT_TRUE(gov.ChargeStates(100, "dfa/construct").ok());
  Status st = gov.ChargeStates(1, "dfa/construct");
  ASSERT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_NE(st.ToString().find("dfa/construct"), std::string::npos)
      << st.ToString();
  // The overrun cancelled the run: every later check fails too, with the
  // same cause, from any thread.
  EXPECT_TRUE(gov.token()->cancelled());
  EXPECT_FALSE(gov.Check("elsewhere").ok());
  EXPECT_FALSE(gov.ChargeRows(0, "elsewhere").ok());
}

TEST(Governor, RowAndByteBudgets) {
  ResourceLimits limits;
  limits.max_rows = 10;
  Governor gov(limits);
  EXPECT_TRUE(gov.ChargeRows(10, "exec/emit").ok());
  EXPECT_EQ(gov.ChargeRows(1, "exec/emit").code(),
            StatusCode::kResourceExhausted);

  ResourceLimits blimits;
  blimits.max_memory_bytes = 1 << 10;
  Governor bgov(blimits);
  EXPECT_TRUE(bgov.ChargeBytes(1 << 10, "alloc/test").ok());
  Status st = bgov.ChargeBytes(1, "alloc/test");
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.ToString().find("alloc/test"), std::string::npos);
}

TEST(Governor, ZeroTimeLimitExpiresImmediately) {
  ResourceLimits limits;
  limits.time_limit_seconds = 0.0;
  Governor gov(limits);
  EXPECT_TRUE(gov.DeadlineExpired());
  Status st = gov.Check("synth/start");
  ASSERT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_TRUE(gov.token()->cancelled());
}

TEST(Governor, SharedParentTokenStopsSiblings) {
  ResourceLimits limits;
  CancelToken parent;
  Governor a(limits, &parent);
  Governor b(limits, &parent);
  EXPECT_TRUE(b.Check("x").ok());
  a.Cancel(Status::ResourceExhausted("sibling overran"));
  EXPECT_EQ(b.Check("x").code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(parent.cancelled());
}

TEST(Governor, ExternalCancelBeatsBudgets) {
  Governor gov;
  gov.Cancel(Status::Internal("user abort"));
  Status st = gov.Check("anywhere");
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(Governor, ChargeUsageAccumulates) {
  Governor gov;
  BudgetUsage u;
  u.states = 7;
  u.rows = 11;
  u.bytes = 13;
  u.checks = 17;
  gov.ChargeUsage(u);
  gov.ChargeUsage(u);
  BudgetUsage got = gov.Usage();
  EXPECT_EQ(got.states, 14u);
  EXPECT_EQ(got.rows, 22u);
  EXPECT_EQ(got.bytes, 26u);
}

TEST(BudgetUsage, AccumulateSaturates) {
  BudgetUsage a;
  a.states = ~0ull - 1;
  BudgetUsage b;
  b.states = 10;
  a.Accumulate(b);
  EXPECT_EQ(a.states, ~0ull);  // saturated, not wrapped
}

/// Min-index error determinism: whatever the thread count, the returned
/// Status is the one the sequential loop would have hit first.
TEST(ParallelForStatus, MinIndexErrorIsDeterministic) {
  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 10; ++round) {
      std::atomic<int> executed{0};
      Status st = ParallelForStatus(&pool, 100, [&](size_t i) -> Status {
        executed.fetch_add(1);
        if (i == 7) return Status::Internal("failed at 7");
        if (i == 3) return Status::ResourceExhausted("failed at 3");
        return Status::OK();
      });
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.code(), StatusCode::kResourceExhausted)
          << "threads=" << threads << ": " << st.ToString();
      EXPECT_NE(st.ToString().find("failed at 3"), std::string::npos);
      // Unclaimed work was skipped, not executed to completion.
      EXPECT_LE(executed.load(), 100);
    }
  }
}

TEST(ParallelForStatus, ExternalTokenCancelsUnclaimedWork) {
  ThreadPool pool(2);
  CancelToken token;
  std::atomic<int> executed{0};
  Status st = ParallelForStatus(
      &pool, 1000,
      [&](size_t i) -> Status {
        if (i == 0) token.Cancel(Status::ResourceExhausted("deadline"));
        executed.fetch_add(1);
        return Status::OK();
      },
      &token);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_LT(executed.load(), 1000) << "cancellation should skip the tail";
}

TEST(ParallelForStatus, ExceptionPropagatesFromMinIndex) {
  ThreadPool pool(4);
  EXPECT_THROW(
      {
        (void)ParallelForStatus(&pool, 50, [&](size_t i) -> Status {
          if (i == 5) throw std::runtime_error("boom");
          return Status::OK();
        });
      },
      std::runtime_error);
}

/// A linear tower of depth `n`: <a><a>…<a>leaf</a>…</a></a>.
hdt::Hdt Tower(int n) {
  hdt::HdtBuilder t;
  hdt::NodeId cur = t.AddRoot("a");
  for (int i = 0; i < n; ++i) cur = t.AddChild(cur, "a");
  t.AddChild(cur, "leaf", "v");
  return t.Finish();
}

TEST(WriterDepthCap, XmlWriterRejectsTooDeepTree) {
  EXPECT_TRUE(xml::WriteXml(Tower(100)).ok());
  auto deep = xml::WriteXml(Tower(xml::kMaxWriteDepth + 10));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);
}

TEST(WriterDepthCap, JsonWriterRejectsTooDeepTree) {
  EXPECT_TRUE(json::WriteJson(Tower(100)).ok());
  auto deep = json::WriteJson(Tower(json::kMaxWriteDepth + 10));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);
}

/// The reference evaluator's descendant collection is iterative: a tree
/// far deeper than any sane C++ recursion limit must not crash it.
TEST(ReferenceEvalDepth, DescendantsOnVeryDeepTree) {
  hdt::Hdt t = Tower(100'000);
  dsl::ColumnExtractor pi;
  pi.steps.push_back({dsl::ColOp::kDescendants, "leaf", 0});
  std::vector<hdt::NodeId> nodes = dsl::ReferenceEvalColumn(t, pi);
  EXPECT_EQ(nodes.size(), 1u);
}

TEST(ReferenceEvalDepth, RejectsTooManyColumns) {
  hdt::Hdt t = Tower(3);
  dsl::Program p;
  p.columns.resize(dsl::kMaxEvalColumns + 1);
  auto r = dsl::ReferenceEvalProgramNodeTuples(t, p, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

/// The parsers charge hdt::kBytesPerNode once per tree node they create:
/// elements, attributes and text runs in XML; members, array elements and
/// nested-array wrappers in JSON, but nothing for an array itself.
TEST(ParserCharge, OneNodeSizePerCreatedNode) {
  {
    Governor gov;
    xml::XmlParseOptions opts;
    opts.governor = &gov;
    auto t = xml::ParseXml(R"(<r a="1"><b>x</b>t<c k="2" m="3"/></r>)", opts);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    // r, @a, b, the text run "t", c, @k, @m.
    ASSERT_EQ(t->size(), 7u);
    EXPECT_EQ(gov.Usage().bytes, 7 * hdt::kBytesPerNode);
  }
  {
    Governor gov;
    json::JsonParseOptions opts;
    opts.governor = &gov;
    auto t = json::ParseJson(
        R"({"a": [1, [2, 3], [], {"b": []}], "c": {}, "d": []})", opts);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    // root; a=1; the [2, 3] wrapper with a=2 and a=3; the [] wrapper; the
    // {"b": []} member; c. `"b": []` and `"d": []` make no node.
    ASSERT_EQ(t->size(), 8u);
    EXPECT_EQ(gov.Usage().bytes, 8 * hdt::kBytesPerNode);
  }
}

}  // namespace
}  // namespace mitra::common
