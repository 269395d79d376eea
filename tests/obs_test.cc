// Tests for the unified observability subsystem (src/obs): the metrics
// registry and its determinism contract (byte-identical exports across runs
// and thread counts), trace span trees, and the integration points where the
// legacy stats structs became views over registry instruments.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/string_util.h"
#include "core/optimize/cascade.h"
#include "core/optimize/semantic_cache.h"
#include "llm/fault_injection.h"
#include "llm/resilient.h"
#include "llm/simulated.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "text/tokenizer.h"

namespace llmdm {
namespace {

// ---- Registry and instruments ----------------------------------------------

TEST(MetricsRegistry, CounterGaugeBasics) {
  obs::Registry registry;
  obs::Counter* c = registry.GetCounter("llmdm_test_events_total");
  ASSERT_NE(c, nullptr);
  c->Add();
  c->Add(4);
  EXPECT_EQ(c->value(), 5u);

  obs::Gauge* g = registry.GetGauge("llmdm_test_depth");
  g->Set(7);
  g->Add(-2);
  EXPECT_EQ(g->value(), 5);
  g->SetMax(3);  // below current: no-op
  EXPECT_EQ(g->value(), 5);
  g->SetMax(11);
  EXPECT_EQ(g->value(), 11);
}

TEST(MetricsRegistry, SameSeriesReturnsSameInstrument) {
  obs::Registry registry;
  obs::Counter* a =
      registry.GetCounter("llmdm_test_total", {{"shard", "0"}, {"kind", "x"}});
  // Label order must not matter: the registry canonicalizes to sorted keys.
  obs::Counter* b =
      registry.GetCounter("llmdm_test_total", {{"kind", "x"}, {"shard", "0"}});
  EXPECT_EQ(a, b);
  obs::Counter* other =
      registry.GetCounter("llmdm_test_total", {{"shard", "1"}, {"kind", "x"}});
  EXPECT_NE(a, other);
  EXPECT_EQ(registry.instrument_count(), 2u);
}

TEST(MetricsRegistry, KindMismatchReturnsNull) {
  obs::Registry registry;
  ASSERT_NE(registry.GetCounter("llmdm_test_series"), nullptr);
  EXPECT_EQ(registry.GetGauge("llmdm_test_series"), nullptr);
  EXPECT_EQ(registry.GetHistogram("llmdm_test_series", {}, {1.0}), nullptr);
}

TEST(Histogram, BucketsAreUpperEdgeInclusive) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket 0 (<= 1)
  h.Observe(1.0);    // bucket 0 (edges are le-inclusive)
  h.Observe(10.0);   // bucket 1
  h.Observe(10.5);   // bucket 2
  h.Observe(1000.0); // +Inf bucket
  auto snap = h.TakeSnapshot();
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum(), 1022.0);
}

TEST(Histogram, SumIsExactIntegerMicros) {
  // The running sum accumulates integer micro-units so that threaded
  // observation order cannot perturb it (float addition does not commute).
  obs::Histogram h(obs::Histogram::LatencyBoundsVms());
  h.Observe(0.1);
  h.Observe(0.2);
  h.Observe(0.3);
  auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.sum_micros, 600000);
  EXPECT_DOUBLE_EQ(snap.sum(), 0.6);
}

TEST(MetricsRegistry, PrometheusTextIsStableAndOrdered) {
  obs::Registry registry;
  registry.GetCounter("llmdm_b_total", {{"shard", "1"}})->Add(2);
  registry.GetCounter("llmdm_b_total", {{"shard", "0"}})->Add(1);
  registry.GetGauge("llmdm_a_depth")->Set(3);
  std::string text = registry.PrometheusText();
  EXPECT_EQ(text, registry.PrometheusText());  // byte-stable re-export
  // Series ordered by (name, labels): the gauge first, then shard 0, shard 1.
  size_t a = text.find("llmdm_a_depth 3");
  size_t b0 = text.find("llmdm_b_total{shard=\"0\"} 1");
  size_t b1 = text.find("llmdm_b_total{shard=\"1\"} 2");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b0, std::string::npos);
  ASSERT_NE(b1, std::string::npos);
  EXPECT_LT(a, b0);
  EXPECT_LT(b0, b1);
}

TEST(MetricsRegistry, JsonSnapshotListsEverySeries) {
  obs::Registry registry;
  registry.GetCounter("llmdm_events_total", {{"kind", "x"}})->Add(3);
  registry.GetHistogram("llmdm_lat_vms", {}, {1.0, 2.0})->Observe(1.5);
  std::string json = registry.JsonSnapshot();
  EXPECT_NE(json.find("\"llmdm_events_total\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"x\""), std::string::npos);
  EXPECT_NE(json.find("\"llmdm_lat_vms\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[0,1,0]"), std::string::npos);
  EXPECT_EQ(json, registry.JsonSnapshot());
}

TEST(MetricsRegistry, ExportIsByteIdenticalAcrossThreadCounts) {
  // The determinism contract: a fixed workload observed through any number
  // of threads exports byte-identical text. Counters and histogram sums are
  // integer accumulations, so order cannot matter.
  auto run = [](size_t threads) {
    obs::Registry registry;
    obs::Counter* events = registry.GetCounter("llmdm_events_total");
    obs::Histogram* lat = registry.GetHistogram(
        "llmdm_latency_vms", {}, obs::Histogram::LatencyBoundsVms());
    constexpr size_t kTotal = 960;  // divides evenly by 1..8 threads
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const size_t per = kTotal / threads;
        for (size_t i = 0; i < per; ++i) {
          size_t k = t * per + i;
          events->Add(1);
          lat->Observe(0.5 * static_cast<double>(k % 100));
        }
      });
    }
    for (auto& t : pool) t.join();
    return registry.PrometheusText();
  };
  std::string one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(8));
}

// ---- Trace spans ------------------------------------------------------------

TEST(Trace, SpanTreeStructureAndJson) {
  obs::TraceContext trace("request", 100.0);
  trace.SetAttr(nullptr, "id", "7");
  obs::Span* queue = trace.StartSpan("queue", 100.0);
  trace.EndSpan(queue, 120.0);
  obs::Span* attempt = trace.StartSpan("attempt", 120.0);
  obs::Span* retry = trace.StartSpan("backoff", 130.0, attempt);
  trace.EndSpan(retry, 140.0);
  trace.EndSpan(attempt, 150.0);
  trace.EndSpan(nullptr, 150.0);

  EXPECT_EQ(trace.span_count(), 4u);
  EXPECT_EQ(trace.SpanStart(nullptr), 100.0);
  EXPECT_EQ(trace.SpanStart(attempt), 120.0);

  std::string json = trace.ToJson();
  EXPECT_EQ(json, trace.ToJson());
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"7\""), std::string::npos);
  // backoff is nested inside attempt, which is nested inside request.
  size_t req = json.find("\"name\":\"request\"");
  size_t att = json.find("\"name\":\"attempt\"");
  size_t back = json.find("\"name\":\"backoff\"");
  ASSERT_NE(att, std::string::npos);
  ASSERT_NE(back, std::string::npos);
  EXPECT_LT(req, att);
  EXPECT_LT(att, back);
}

// ---- Layer integration -------------------------------------------------------

std::shared_ptr<llm::SimulatedLlm> MakeModel(const std::string& name,
                                             double latency_ms_per_1k,
                                             uint64_t seed) {
  llm::ModelSpec spec;
  spec.name = name;
  spec.capability = 0.9;
  spec.input_price_per_1k = common::Money::FromDollars(0.001);
  spec.output_price_per_1k = common::Money::FromDollars(0.002);
  spec.latency_ms_per_1k_tokens = latency_ms_per_1k;
  auto model = std::make_shared<llm::SimulatedLlm>(spec, seed);
  model->RegisterSkill(std::make_unique<llm::FreeformSkill>());
  return model;
}

TEST(ObsIntegration, ServerStatsIsViewOverRegistry) {
  // ServerStats and a registry export must be the same numbers: the struct
  // is re-implemented as a view over the instruments.
  obs::Registry registry;
  serve::Server::Options options;
  options.worker_threads = 4;
  options.shed_policy = serve::ShedPolicy::kQueueFull;
  options.virtual_concurrency = 1;
  options.queue_depth = 4;
  options.registry = &registry;
  serve::Server server(MakeModel("sim-serve", 2000.0, 3), options);
  for (size_t i = 0; i < 40; ++i) {
    serve::Request req;
    req.id = i;
    req.arrival_vms = static_cast<double>(i) * 0.1;
    req.input = common::StrFormat("burst %zu", i);
    server.Submit(req);
  }
  server.Drain();
  auto stats = server.stats();
  EXPECT_GT(stats.shed, 0u);
  EXPECT_EQ(stats.submitted,
            registry.GetCounter("llmdm_serve_submitted_total")->value());
  EXPECT_EQ(stats.admitted,
            registry.GetCounter("llmdm_serve_admitted_total")->value());
  EXPECT_EQ(stats.shed,
            registry.GetCounter("llmdm_serve_shed_total")->value());
  EXPECT_EQ(stats.completed,
            registry.GetCounter("llmdm_serve_completed_total")->value());
  EXPECT_EQ(static_cast<int64_t>(stats.max_queue_len),
            registry.GetGauge("llmdm_serve_max_queue_len")->value());
  // The latency histogram saw every non-shed response.
  auto lat = registry
                 .GetHistogram("llmdm_serve_latency_vms", {},
                               obs::Histogram::LatencyBoundsVms())
                 ->TakeSnapshot();
  EXPECT_EQ(lat.count, stats.completed + stats.failed);
}

TEST(ObsIntegration, ServerTracePublishesSpanTree) {
  serve::Server::Options options;
  options.worker_threads = 2;
  options.shed_policy = serve::ShedPolicy::kNone;
  options.tracing = true;
  serve::Server server(MakeModel("sim-serve", 100.0, 3), options);
  for (size_t i = 0; i < 5; ++i) {
    serve::Request req;
    req.id = i;
    req.arrival_vms = static_cast<double>(i) * 10.0;
    req.input = common::StrFormat("traced %zu", i);
    server.Submit(req);
  }
  auto responses = server.Drain();
  ASSERT_EQ(responses.size(), 5u);
  for (const auto& r : responses) {
    ASSERT_NE(r.trace, nullptr);
    std::string json = r.trace->ToJson();
    EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"queue\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"attempt\""), std::string::npos);
    EXPECT_NE(json.find("\"outcome\":\"ok\""), std::string::npos);
  }
}

TEST(ObsIntegration, ResilientSpansHangUnderServeAttempt) {
  // One trace carries spans from two layers: the server's queue/attempt and
  // the resilient decorator's retries underneath the attempt.
  auto faulty = std::make_shared<llm::FaultInjectingLlm>(
      MakeModel("sim-flaky", 100.0, 3), llm::FaultProfile::Uniform(0.6), 11);
  llm::ResilientLlm::Options resilience;
  resilience.retry.max_attempts = 4;
  resilience.retry.initial_backoff_ms = 10.0;
  resilience.seed = 5;
  auto resilient = std::make_shared<llm::ResilientLlm>(faulty, resilience);

  serve::Server::Options options;
  options.worker_threads = 2;
  options.shed_policy = serve::ShedPolicy::kNone;
  options.tracing = true;
  serve::Server server(resilient, options);
  for (size_t i = 0; i < 20; ++i) {
    serve::Request req;
    req.id = i;
    req.arrival_vms = static_cast<double>(i) * 10.0;
    req.input = common::StrFormat("flaky traced %zu", i);
    server.Submit(req);
  }
  bool saw_retry_span = false;
  for (const auto& r : server.Drain()) {
    ASSERT_NE(r.trace, nullptr);
    std::string json = r.trace->ToJson();
    EXPECT_NE(json.find("resilient:sim-flaky"), std::string::npos);
    if (json.find("\"name\":\"backoff\"") != std::string::npos) {
      saw_retry_span = true;
    }
  }
  // At 60% faults some request retried; its backoff landed in the tree.
  EXPECT_TRUE(saw_retry_span);
}

TEST(ObsIntegration, ResilientStatsIsViewOverRegistry) {
  obs::Registry registry;
  auto faulty = std::make_shared<llm::FaultInjectingLlm>(
      MakeModel("sim-flaky", 100.0, 3), llm::FaultProfile::Uniform(0.5), 11);
  llm::ResilientLlm::Options options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 10.0;
  options.registry = &registry;
  llm::ResilientLlm resilient(faulty, options);
  for (size_t i = 0; i < 30; ++i) {
    llm::Prompt prompt =
        llm::MakePrompt("freeform", common::StrFormat("question %zu", i));
    prompt.sample_salt = i;
    resilient.Complete(prompt).ok();
  }
  auto stats = resilient.stats();
  EXPECT_GT(stats.attempts, 0u);
  const obs::Labels labels{{"model", "sim-flaky"}};
  EXPECT_EQ(stats.attempts,
            registry.GetCounter("llmdm_llm_attempts_total", labels)->value());
  EXPECT_EQ(stats.retries,
            registry.GetCounter("llmdm_llm_retries_total", labels)->value());
  EXPECT_EQ(
      stats.transient_errors,
      registry.GetCounter("llmdm_llm_transient_errors_total", labels)->value());
}

TEST(ObsIntegration, CacheStatsIsViewOverRegistry) {
  obs::Registry registry;
  optimize::SemanticCache::Options options;
  options.num_shards = 4;
  options.registry = &registry;
  optimize::SemanticCache cache(options);
  for (size_t i = 0; i < 20; ++i) {
    std::string q = common::StrFormat("query %zu about topic %zu", i, i % 5);
    if (!cache.Lookup(q, common::Money::FromDollars(0.01)).has_value()) {
      cache.Insert(q, "answer");
    }
    cache.Lookup(q, common::Money::FromDollars(0.01));
  }
  auto stats = cache.stats();
  uint64_t lookups = 0, hits = 0, insertions = 0;
  for (size_t s = 0; s < cache.num_shards(); ++s) {
    const obs::Labels labels{{"shard", std::to_string(s)}};
    lookups += registry.GetCounter("llmdm_cache_lookups_total", labels)->value();
    hits += registry.GetCounter("llmdm_cache_hits_total", labels)->value();
    insertions +=
        registry.GetCounter("llmdm_cache_insertions_total", labels)->value();
  }
  EXPECT_EQ(stats.lookups, lookups);
  EXPECT_EQ(stats.hits, hits);
  EXPECT_EQ(stats.insertions, insertions);
  EXPECT_GT(hits, 0u);
}

TEST(ObsIntegration, CascadeRungCountersAndSpans) {
  obs::Registry registry;
  auto cheap = MakeModel("sim-cheap", 50.0, 1);
  auto big = MakeModel("sim-big", 500.0, 2);
  optimize::LlmCascade::Options options;
  options.accept_threshold = 0.0;  // rung 0 always accepts
  options.registry = &registry;
  optimize::LlmCascade cascade({cheap, big}, options);

  auto trace = std::make_shared<obs::TraceContext>("request", 0.0);
  llm::Prompt prompt = llm::MakePrompt("freeform", "cascade traced question");
  prompt.trace = trace;
  ASSERT_TRUE(cascade.Run(prompt).ok());

  const obs::Labels rung0{{"rung", "0"}, {"model", "sim-cheap"}};
  const obs::Labels rung1{{"rung", "1"}, {"model", "sim-big"}};
  EXPECT_EQ(registry.GetCounter("llmdm_cascade_queries_total")->value(), 1u);
  EXPECT_EQ(
      registry.GetCounter("llmdm_cascade_rung_visits_total", rung0)->value(),
      1u);
  EXPECT_EQ(
      registry.GetCounter("llmdm_cascade_rung_accepts_total", rung0)->value(),
      1u);
  EXPECT_EQ(
      registry.GetCounter("llmdm_cascade_rung_visits_total", rung1)->value(),
      0u);
  std::string json = trace->ToJson();
  EXPECT_NE(json.find("cascade_rung:sim-cheap"), std::string::npos);
  EXPECT_NE(json.find("\"result\":\"accepted\""), std::string::npos);
}

TEST(ObsIntegration, TokenCountCacheStatsCountEveryLookup) {
  // The tokenizer memo is process-wide and reports through
  // GetTokenCountCacheStats: each count looks its prompt prefix up once,
  // and a prefix just counted is a hit.
  llm::Prompt prompt = llm::MakePrompt("freeform", "count cache probe");
  prompt.system = "a shared system prefix that recurs across calls";
  auto before = text::GetTokenCountCacheStats();
  prompt.CountInputTokens();
  auto middle = text::GetTokenCountCacheStats();
  EXPECT_EQ(middle.hits + middle.misses, before.hits + before.misses + 1);
  prompt.CountInputTokens();
  auto after = text::GetTokenCountCacheStats();
  EXPECT_EQ(after.hits, middle.hits + 1);
  EXPECT_EQ(after.misses, middle.misses);
}

}  // namespace
}  // namespace llmdm
