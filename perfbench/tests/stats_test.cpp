// Tests for the benchmark's own statistics: the percentile helper and the
// "at least ten samples beyond it" rule, the sample reservoir, span self
// time from nested spans, and the failed-operation accounting of the
// delivery ledger.
#include <gtest/gtest.h>

#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  auto v = one_to(100);
  EXPECT_EQ(percentile(v, 0.5), 50);
  EXPECT_EQ(percentile(v, 0.99), 99);
  EXPECT_EQ(percentile(v, 1.0), 100);
  EXPECT_EQ(percentile(v, 0.001), 1);
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 0.5), 0);
  std::vector<double> single{7};
  EXPECT_EQ(percentile(single, 0.99), 7);
}

TEST(TailRule, P99NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(tail_quantile(1000), 0.99);
  EXPECT_EQ(tail_quantile(100000), 0.99);
}

TEST(TailRule, FallsBackToTheHighestQualifyingQuantile) {
  // 200 samples: p99 has 2 beyond it; rank 190 (q = 0.95) leaves 10.
  const auto q = tail_quantile(200);
  ASSERT_TRUE(q.has_value());
  EXPECT_DOUBLE_EQ(*q, 0.95);
  EXPECT_EQ(samples_beyond(200, *q), 10u);
  auto v = one_to(200);
  EXPECT_EQ(percentile(v, *q), 190);
}

TEST(TailRule, NoTailBelowTheMedian) {
  EXPECT_FALSE(tail_quantile(0).has_value());
  EXPECT_FALSE(tail_quantile(20).has_value());
  EXPECT_TRUE(tail_quantile(21).has_value());
  auto v = one_to(15);
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 15u);
  EXPECT_EQ(s.p50, 8);
  EXPECT_EQ(s.tail_q, 0);
  EXPECT_EQ(s.tail, 0);
  EXPECT_EQ(s.max, 15);
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  Tracer t;
  t.set_enabled(true);
  t.begin(SpanKind::kReactorPoll, 0, 0);     // [0, 100_000]
  t.begin(SpanKind::kDeliver, 1, 10'000);    //   [10_000, 30_000]
  t.begin(SpanKind::kApiSend, 2, 12'000);    //     [12_000, 15_000]
  t.end(15'000);
  t.end(30'000);
  t.begin(SpanKind::kDeliver, 2, 40'000);    //   [40_000, 50_000]
  t.end(50'000);
  t.end(100'000);

  ASSERT_EQ(t.self_us(SpanKind::kApiSend).size(), 1u);
  EXPECT_DOUBLE_EQ(t.self_us(SpanKind::kApiSend)[0], 3.0);
  ASSERT_EQ(t.self_us(SpanKind::kDeliver).size(), 2u);
  EXPECT_DOUBLE_EQ(t.self_us(SpanKind::kDeliver)[0], 17.0);  // 20 - 3
  EXPECT_DOUBLE_EQ(t.self_us(SpanKind::kDeliver)[1], 10.0);
  ASSERT_EQ(t.self_us(SpanKind::kReactorPoll).size(), 1u);
  EXPECT_DOUBLE_EQ(t.self_us(SpanKind::kReactorPoll)[0], 70.0);  // 100 - 20 - 10

  ASSERT_EQ(t.records().size(), 4u);
  EXPECT_EQ(t.records()[0].kind, SpanKind::kApiSend);
  EXPECT_EQ(t.records()[0].parent, SpanKind::kDeliver);
  EXPECT_EQ(t.records()[3].parent, SpanKind::kCount);
}

TEST(Spans, DisabledTracerRecordsNothing) {
  Tracer t;
  t.begin(SpanKind::kSimRun, 0, 0);
  t.end(10);
  EXPECT_TRUE(t.self_us(SpanKind::kSimRun).empty());
  EXPECT_TRUE(t.records().empty());
}

TEST(Ledger, RefusedThenAcceptedAndDeliveredEverywhereIsNotAFailure) {
  DeliveryLedger l(/*origins=*/2, /*members=*/3);
  const auto c = l.generate(0);
  EXPECT_EQ(l.finish().never_accepted, 1u);  // every send refused so far
  l.accepted(0, c);                          // a later retry is accepted
  EXPECT_EQ(l.delivered(0, 0, c), 1u);
  EXPECT_EQ(l.delivered(1, 0, c), 2u);
  EXPECT_EQ(l.delivered(2, 0, c), 3u);
  EXPECT_TRUE(l.settled());
  const auto r = l.finish();
  EXPECT_EQ(r.attempted, 1u);
  EXPECT_EQ(r.failed, 0u);
}

TEST(Ledger, CountsNeverAcceptedAndPartlyDeliveredAsFailed) {
  DeliveryLedger l(2, 3);
  const auto ok = l.generate(0);         // delivered everywhere
  (void)l.generate(0);                   // refused, never accepted
  const auto partial = l.generate(1);    // accepted, 2 of 3 members
  const auto nowhere = l.generate(1);    // accepted, delivered nowhere
  l.accepted(0, ok);
  l.accepted(1, partial);
  l.accepted(1, nowhere);
  for (std::size_t m = 0; m < 3; ++m) l.delivered(m, 0, ok);
  l.delivered(0, 1, partial);
  l.delivered(2, 1, partial);
  EXPECT_FALSE(l.settled());
  const auto r = l.finish();
  EXPECT_EQ(r.attempted, 4u);
  EXPECT_EQ(r.never_accepted, 1u);
  EXPECT_EQ(r.undelivered, 2u);
  EXPECT_EQ(r.failed, 3u);
  EXPECT_DOUBLE_EQ(failed_ratio(r.failed, r.attempted), 0.75);
}

TEST(Ledger, DuplicatesAndUnknownMessagesAreCountedNotDelivered) {
  DeliveryLedger l(1, 2);
  const auto c = l.generate(0);
  l.accepted(0, c);
  EXPECT_EQ(l.delivered(0, 0, c), 1u);
  EXPECT_EQ(l.delivered(0, 0, c), 0u);  // duplicate at member 0
  EXPECT_EQ(l.delivered(1, 0, 99), 0u); // never generated
  EXPECT_EQ(l.delivered(1, 5, 0), 0u);  // unknown origin
  const auto r = l.finish();
  EXPECT_EQ(r.duplicates, 1u);
  EXPECT_EQ(r.unknown, 2u);
  EXPECT_EQ(r.undelivered, 1u);  // member 1 never got it
  EXPECT_DOUBLE_EQ(failed_ratio(0, 0), 0.0);
}

TEST(Ledger, CompleteMessagesLeaveAFixedWindow) {
  DeliveryLedger l(1, 2, /*window=*/4);
  for (int i = 0; i < 100; ++i) {  // far more messages than the window holds
    const auto c = l.generate(0);
    l.accepted(0, c);
    l.delivered(0, 0, c);
    l.delivered(1, 0, c);
  }
  EXPECT_TRUE(l.settled());
  EXPECT_EQ(l.delivered(1, 0, 50), 0u);  // left the window: a duplicate
  const auto r = l.finish();
  EXPECT_EQ(r.attempted, 100u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.overflowed, 0u);
  EXPECT_EQ(r.duplicates, 1u);
}

TEST(Ledger, PushedOutOfAFullWindowIsAFailure) {
  DeliveryLedger l(1, 2, /*window=*/4);
  const auto stuck = l.generate(0);  // accepted, never delivered
  l.accepted(0, stuck);
  for (int i = 0; i < 5; ++i) {      // delivered everywhere, but behind it
    const auto c = l.generate(0);
    l.accepted(0, c);
    l.delivered(0, 0, c);
    l.delivered(1, 0, c);
  }
  EXPECT_FALSE(l.settled());
  const auto r = l.finish();
  EXPECT_EQ(r.attempted, 6u);
  EXPECT_EQ(r.overflowed, 1u);     // `stuck`, when the fifth one came
  EXPECT_EQ(r.undelivered, 1u);
  EXPECT_EQ(r.failed, 1u);
}

TEST(Reservoir, ExactUntilFullThenAUniformSampleOfFixedSize) {
  Reservoir res(100);
  res.preallocate();
  for (int i = 1; i <= 100; ++i) res.add(i);
  EXPECT_EQ(percentile(res.values(), 0.5), 50);
  for (int i = 101; i <= 10'000; ++i) res.add(i);
  EXPECT_EQ(res.seen(), 10'000u);
  EXPECT_EQ(res.values().size(), 100u);
  const double p50 = percentile(res.values(), 0.5);
  EXPECT_GT(p50, 3'500);  // the median of 1..10000 is 5000
  EXPECT_LT(p50, 6'500);
  res.clear();
  EXPECT_EQ(res.seen(), 0u);
  EXPECT_TRUE(res.values().empty());
}

}  // namespace
}  // namespace perfbench
