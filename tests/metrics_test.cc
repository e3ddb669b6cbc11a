#include "common/metrics.h"

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/trace.h"
#include "core/repairer.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::CitizensDirty;
using testing_util::CitizensFDs;
using testing_util::IsValidJson;

TEST(MetricsTest, CounterStartsAtZeroAndIncrements) {
  Counter* c = Metrics().GetCounter("test.counter.basic");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
}

TEST(MetricsTest, GetCounterReturnsStablePointer) {
  Counter* a = Metrics().GetCounter("test.counter.stable");
  Counter* b = Metrics().GetCounter("test.counter.stable");
  EXPECT_EQ(a, b);
}

TEST(MetricsTest, LabeledCounterManglesPrometheusStyle) {
  Counter* c =
      Metrics().GetCounter("test.counter.labeled", "stage", "exact->greedy");
  Counter* same =
      Metrics().GetCounter("test.counter.labeled", "stage", "exact->greedy");
  Counter* other =
      Metrics().GetCounter("test.counter.labeled", "stage", "greedy->appro");
  EXPECT_EQ(c, same);
  EXPECT_NE(c, other);
  c->Increment(7);
  std::string json = Metrics().SnapshotJson();
  EXPECT_NE(json.find("test.counter.labeled{stage=exact->greedy}"),
            std::string::npos);
}

TEST(MetricsTest, ConcurrentIncrementsAreExact) {
  Counter* c = Metrics().GetCounter("test.counter.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int k = 0; k < kPerThread; ++k) c->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->value(),
            static_cast<uint64_t>(kThreads) * static_cast<uint64_t>(kPerThread));
}

TEST(MetricsTest, GaugeLastWriteWins) {
  Gauge* g = Metrics().GetGauge("test.gauge.basic");
  g->Set(1.5);
  g->Set(-3.25);
  EXPECT_DOUBLE_EQ(g->value(), -3.25);
}

TEST(MetricsTest, HistogramBucketPlacement) {
  Histogram* h = Metrics().GetHistogram("test.histogram.buckets");
  h->Observe(0.005);   // <= 0.01 -> bucket 0
  h->Observe(0.07);    // <= 0.1  -> bucket 2
  h->Observe(0.07);    // again
  h->Observe(40000);   // beyond every bound -> +inf bucket
  EXPECT_EQ(h->count(), 4u);
  EXPECT_NEAR(h->sum(), 40000.145, 1e-6);
  EXPECT_EQ(h->bucket_count(0), 1u);
  EXPECT_EQ(h->bucket_count(1), 0u);
  EXPECT_EQ(h->bucket_count(2), 2u);
  EXPECT_EQ(h->bucket_count(Histogram::kBoundsMs.size()), 1u);
}

TEST(MetricsTest, ConcurrentHistogramObservationsSumToCount) {
  Histogram* h = Metrics().GetHistogram("test.histogram.concurrent");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int k = 0; k < kPerThread; ++k) {
        h->Observe(0.02 * (t + 1));  // spread over a few buckets
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h->count(),
            static_cast<uint64_t>(kThreads) * static_cast<uint64_t>(kPerThread));
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += h->bucket_count(i);
  }
  EXPECT_EQ(bucket_total, h->count());
}

TEST(MetricsTest, SnapshotJsonIsValidAndComplete) {
  Metrics().GetCounter("test.snapshot.counter")->Increment(3);
  Metrics().GetGauge("test.snapshot.gauge")->Set(2.5);
  Metrics().GetHistogram("test.snapshot.histogram")->Observe(1.0);
  std::string json = Metrics().SnapshotJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.snapshot.counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.snapshot.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test.snapshot.histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"+inf\""), std::string::npos);
}

TEST(MetricsTest, ResetZeroesValuesButKeepsRegistrations) {
  Counter* c = Metrics().GetCounter("test.reset.counter");
  Histogram* h = Metrics().GetHistogram("test.reset.histogram");
  c->Increment(10);
  h->Observe(5.0);
  Metrics().Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.0);
  // Pointers stay valid and usable after Reset.
  c->Increment();
  EXPECT_EQ(c->value(), 1u);
  EXPECT_EQ(Metrics().GetCounter("test.reset.counter"), c);
}

// Repairs the paper's running example (phi2 + phi3 form a multi-FD
// component, so target assignment runs) under `budget`.
void RepairCitizens(const Budget* budget) {
  Table dirty = CitizensDirty();
  RepairOptions options;
  options.default_tau = 0.3;
  options.budget = budget;
  ASSERT_TRUE(Repairer(options).Repair(dirty, CitizensFDs(dirty.schema()))
                  .ok());
}

TEST(MetricsTest, BudgetOvershootObservedOncePerExhaustedRepair) {
  Histogram* overshoot = Metrics().GetHistogram("ftrepair.budget.overshoot_ms");
  uint64_t before = overshoot->count();
  Budget zero(0);  // a 0 ms deadline: exhausted from the start
  RepairCitizens(&zero);
  EXPECT_EQ(overshoot->count(), before + 1);
  EXPECT_GE(overshoot->sum(), 0.0);

  // Neither an unlimited budget nor one that never ran out observes.
  Budget unlimited;
  RepairCitizens(&unlimited);
  Budget far(1e9);
  RepairCitizens(&far);
  RepairCitizens(nullptr);
  EXPECT_EQ(overshoot->count(), before + 1);
}

TEST(MetricsTest, TargetSearchCountsDistanceTableWork) {
  Counter* evals = Metrics().GetCounter("ftrepair.targets.distance_evals");
  Counter* bytes = Metrics().GetCounter("ftrepair.targets.table_bytes");
  uint64_t evals_before = evals->value();
  uint64_t bytes_before = bytes->value();
  RepairCitizens(nullptr);
  uint64_t filled = evals->value() - evals_before;
  EXPECT_GT(filled, 0u);
  EXPECT_EQ(bytes->value() - bytes_before, filled * sizeof(double));
}

// Greedy-M adds its work counters once per component solve, and a
// component's solve does not depend on the thread count, so the counts
// match at threads 1 and 4.
TEST(MetricsTest, GreedyWorkCountersMatchAcrossThreadCounts) {
  Dataset ds = std::move(GenerateHosp({.num_rows = 1000, .seed = 7}))
                   .ValueOrDie();
  NoiseOptions noise;
  noise.error_rate = 0.04;
  noise.seed = 42;
  Table dirty = std::move(InjectErrors(ds.clean, ds.fds, noise, nullptr))
                    .ValueOrDie();
  const char* names[] = {"ftrepair.solve.greedy_rounds",
                         "ftrepair.solve.candidates_rescored",
                         "ftrepair.solve.target_scores"};
  std::vector<std::vector<uint64_t>> counts;
  for (int threads : {1, 4}) {
    RepairOptions options;
    options.algorithm = RepairAlgorithm::kGreedy;
    options.w_l = ds.recommended_w_l;
    options.w_r = ds.recommended_w_r;
    options.tau_by_fd = ds.recommended_tau;
    options.threads = threads;
    std::vector<uint64_t> before;
    for (const char* name : names) {
      before.push_back(Metrics().GetCounter(name)->value());
    }
    ASSERT_TRUE(Repairer(options).Repair(dirty, ds.fds).ok());
    counts.emplace_back();
    for (size_t i = 0; i < before.size(); ++i) {
      counts.back().push_back(Metrics().GetCounter(names[i])->value() -
                              before[i]);
    }
  }
  for (size_t i = 0; i < counts[0].size(); ++i) {
    SCOPED_TRACE(names[i]);
    EXPECT_GT(counts[0][i], 0u);
    EXPECT_EQ(counts[0][i], counts[1][i]);
  }
  // Every rescore prices at least one neighbor's target.
  EXPECT_GE(counts[0][2], counts[0][1]);
}

TEST(MetricsTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(TraceTest, DisabledByDefaultAndSpansAreFree) {
  EXPECT_FALSE(Tracer::Instance().enabled());
  {
    FTR_TRACE_SPAN("test.disabled_span");
  }
  Tracer::Instance().Enable();
  {
    FTR_TRACE_SPAN("test.enabled_span", {{"key", "value"}});
  }
  Tracer::Instance().Disable();
  std::ostringstream out;
  Tracer::Instance().ExportJson(out);
  std::string json = out.str();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_EQ(json.find("test.disabled_span"), std::string::npos);
  EXPECT_NE(json.find("test.enabled_span"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"key\":\"value\""), std::string::npos);
}

TEST(TraceTest, EnableClearsPreviousEvents) {
  Tracer::Instance().Enable();
  { FTR_TRACE_SPAN("test.first_session"); }
  Tracer::Instance().Enable();  // restart
  { FTR_TRACE_SPAN("test.second_session"); }
  Tracer::Instance().Disable();
  std::ostringstream out;
  Tracer::Instance().ExportJson(out);
  std::string json = out.str();
  EXPECT_EQ(json.find("test.first_session"), std::string::npos);
  EXPECT_NE(json.find("test.second_session"), std::string::npos);
}

TEST(TraceTest, InstantEventsRecorded) {
  Tracer::Instance().Enable();
  Tracer::Instance().RecordInstant("test.instant",
                                   {{"reason", "unit-test"}});
  Tracer::Instance().Disable();
  std::ostringstream out;
  Tracer::Instance().ExportJson(out);
  std::string json = out.str();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("test.instant"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(TraceTest, ConcurrentSpansAllLand) {
  Tracer::Instance().Enable();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int k = 0; k < kPerThread; ++k) {
        FTR_TRACE_SPAN("test.concurrent_span");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Tracer::Instance().Disable();
  std::ostringstream out;
  Tracer::Instance().ExportJson(out);
  std::string json = out.str();
  EXPECT_TRUE(IsValidJson(json)) << json;
  size_t occurrences = 0;
  size_t pos = 0;
  while ((pos = json.find("test.concurrent_span", pos)) !=
         std::string::npos) {
    ++occurrences;
    pos += 1;
  }
  EXPECT_EQ(occurrences + Tracer::Instance().dropped(),
            static_cast<size_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace ftrepair
