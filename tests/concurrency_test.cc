// Multi-threaded soak tests for the serving layer and the shared hot state
// under it (UsageMeter, SemanticCache, CircuitBreaker, Deadline). Run with
// `ctest -L concurrency`; the binary is the one to exercise under
// -DLLMDM_TSAN=ON. Two kinds of assertion live here:
//   * exact determinism — the server's id-sorted responses and aggregate
//     stats must be identical across runs and worker-thread counts;
//   * self-consistency — under fault injection with a shared cache the
//     interleaving is real, so we assert ledger invariants (no lost or
//     double-counted spend, stats that sum) instead of exact values.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "core/optimize/batch_probe.h"
#include "core/optimize/semantic_cache.h"
#include "llm/deadline.h"
#include "llm/fault_injection.h"
#include "llm/resilient.h"
#include "llm/simulated.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "gated_llm.h"

namespace llmdm {
namespace {

using test::GatedLlm;

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

serve::Request MakeRequest(uint64_t id, double arrival_vms,
                           const std::string& input) {
  serve::Request req;
  req.id = id;
  req.arrival_vms = arrival_vms;
  req.input = input;
  return req;
}

// ---- Shared-state primitives under raw threads ------------------------------

TEST(ConcurrentUsageMeter, NoLostOrDoubleCountedSpend) {
  llm::UsageMeter shared;
  constexpr size_t kThreads = 8, kPerThread = 200;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        // Half direct records, half scratch-meter commits (the hedge path).
        if (i % 2 == 0) {
          shared.Record("model-a", 100, 50, common::Money::FromDollars(0.001),
                        5.0);
        } else {
          llm::UsageMeter scratch;
          scratch.Record(common::StrFormat("model-%zu", t % 3), 100, 50,
                         common::Money::FromDollars(0.001), 5.0);
          shared.MergeFrom(scratch);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(shared.calls(), kThreads * kPerThread);
  EXPECT_EQ(shared.cost(),
            common::Money::FromDollars(0.001) *
                static_cast<int64_t>(kThreads * kPerThread));
  // The per-model breakdown must sum exactly to the totals.
  auto totals = shared.totals();
  size_t calls = 0, in_tokens = 0;
  common::Money cost;
  for (const auto& [name, t] : shared.by_model()) {
    calls += t.calls;
    in_tokens += t.input_tokens;
    cost += t.cost;
  }
  EXPECT_EQ(calls, totals.calls);
  EXPECT_EQ(in_tokens, totals.input_tokens);
  EXPECT_EQ(cost, totals.cost);
}

TEST(ConcurrentDeadline, ChargesAreAtomic) {
  llm::Deadline deadline(1000.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&deadline] {
      for (int i = 0; i < 100; ++i) deadline.Charge(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_NEAR(deadline.remaining_ms(), 200.0, 1e-6);
  EXPECT_FALSE(deadline.Exhausted());
}

TEST(ConcurrentCircuitBreaker, OpensExactlyUnderContention) {
  llm::CircuitBreaker::Options options;
  options.min_samples = 4;
  llm::CircuitBreaker breaker(options);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&breaker] {
      for (int i = 0; i < 100; ++i) {
        if (breaker.Allow(static_cast<double>(i))) {
          breaker.RecordFailure(static_cast<double>(i));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kOpen);
  EXPECT_GE(breaker.times_opened(), 1u);
}

TEST(ConcurrentSoak, ResilientCachedModelInvariantsAt30PercentFaults) {
  // T threads hammer one ResilientLlm (over a 30%-faulty endpoint) through
  // one shared SemanticCache, all metering into one ledger. Interleaving is
  // scheduling-dependent, so the assertions are conservation laws.
  auto cache = std::make_unique<optimize::SemanticCache>(
      optimize::SemanticCache::Options{
          .similarity_threshold = 0.95,
          .capacity = 4096,
          .policy = optimize::EvictionPolicy::kCostAware,
          .predictive_admission = false});
  auto faulty = std::make_shared<llm::FaultInjectingLlm>(
      MakeModel("sim-endpoint", 100.0, 1), llm::FaultProfile::Uniform(0.3), 7);
  llm::ResilientLlm::Options resilience;
  resilience.retry.max_attempts = 4;
  resilience.retry.initial_backoff_ms = 10.0;
  resilience.seed = 5;
  auto resilient = std::make_shared<llm::ResilientLlm>(faulty, resilience);
  resilient->AddFallbackModel(MakeModel("sim-fallback", 50.0, 2));
  optimize::CachedLlm cached(resilient, cache.get());

  constexpr size_t kThreads = 8, kPerThread = 150, kDistinctPrompts = 40;
  llm::UsageMeter meter;
  std::atomic<size_t> ok_count{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        size_t which = (t * kPerThread + i) % kDistinctPrompts;
        llm::Prompt prompt = llm::MakePrompt(
            "freeform",
            common::StrFormat("soak question %zu about data lakes", which));
        prompt.sample_salt = t * 1000003ull + i;
        auto c = cached.CompleteMetered(prompt, &meter);
        if (c.ok()) ok_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();

  constexpr size_t kTotal = kThreads * kPerThread;
  // Every request consulted the cache exactly once...
  auto stats = cache->stats();
  EXPECT_EQ(stats.lookups, kTotal);
  // ...and the cache's own ledger balances: only misses that completed
  // inserted, a hit is never also an insertion.
  EXPECT_LE(stats.hits + stats.insertions, stats.lookups);
  EXPECT_LE(cache->Size(), stats.insertions);
  EXPECT_EQ(stats.evictions, 0u);  // capacity was ample
  // The usage ledger balances: per-model rows sum to the totals, the retry
  // breakdown sums to the aggregate retry stats. A lost update anywhere
  // breaks one of these sums.
  auto totals = meter.totals();
  EXPECT_EQ(totals.calls, meter.calls());
  size_t calls = 0;
  common::Money cost;
  for (const auto& [name, t] : meter.by_model()) {
    calls += t.calls;
    cost += t.cost;
  }
  EXPECT_EQ(calls, totals.calls);
  EXPECT_EQ(cost, totals.cost);
  auto retry = meter.retry_stats();
  llm::UsageMeter::RetryStats summed;
  for (const auto& [name, r] : meter.retry_by_model()) summed.Merge(r);
  EXPECT_EQ(summed.attempts, retry.attempts);
  EXPECT_EQ(summed.retries, retry.retries);
  EXPECT_EQ(summed.transient_errors, retry.transient_errors);
  EXPECT_EQ(summed.fallbacks, retry.fallbacks);
  // With retries and a fallback rung, nearly everything completes.
  EXPECT_GT(ok_count.load(), kTotal * 95 / 100);
}

TEST(ConcurrentSoak, ShardedCacheTotalsAreExactUnderThreads) {
  // Each thread owns a disjoint query set (threshold 0.995 admits only exact
  // repeats) and capacity is ample, so per-query outcomes depend only on
  // that thread's own sequence: miss-then-insert once, hit ever after. The
  // aggregate totals of the 8-shard cache are therefore exact under real
  // thread interleaving — and identical run to run.
  constexpr size_t kThreads = 8, kQueries = 25, kReps = 5;
  auto run = [] {
    optimize::SemanticCache::Options options;
    options.similarity_threshold = 0.995;
    options.capacity = 4096;
    options.num_shards = 8;
    optimize::SemanticCache cache(options);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, t] {
        for (size_t rep = 0; rep < kReps; ++rep) {
          for (size_t q = 0; q < kQueries; ++q) {
            std::string query = common::StrFormat(
                "thread %zu soak question %zu about topic %zu", t, q,
                (t * 31 + q * 7) % 13);
            if (!cache.Lookup(query, common::Money::FromDollars(0.01))
                     .has_value()) {
              cache.Insert(query, "answer");
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    return cache.stats();
  };
  optimize::SemanticCache::Stats a = run();
  EXPECT_EQ(a.lookups, kThreads * kQueries * kReps);
  EXPECT_EQ(a.hits, kThreads * kQueries * (kReps - 1));
  EXPECT_EQ(a.insertions, kThreads * kQueries);
  EXPECT_EQ(a.evictions, 0u);
  optimize::SemanticCache::Stats b = run();
  EXPECT_EQ(b.hits, a.hits);
  EXPECT_EQ(b.insertions, a.insertions);
  EXPECT_EQ(b.saved, a.saved);
}

TEST(ConcurrentSoak, ProbeMemoAnswersRaceRefreshesAndEvictions) {
  // Eight threads loop over a hot set larger than a small two-shard cache,
  // so each shard's probe memo answers repeats while other threads insert,
  // refresh and evict. Every response names the query it was inserted
  // under; the topics are far apart, so a refresh only ever rewrites its
  // own query's entry. A memo answer that read a stale slot would return
  // another entry's response or a lookup the counters missed.
  const std::vector<std::string> topics = {
      "stadiums that hosted concerts in 2014",
      "patients with a diabetes diagnosis",
      "average salary by department",
      "flights delayed out of boston",
      "novels written by tolstoy",
      "students enrolled in calculus",
      "orders shipped to canada last week",
      "movies released before 1990"};
  constexpr size_t kThreads = 8, kPerThread = 1000;
  optimize::SemanticCache::Options options;
  options.capacity = 6;
  options.num_shards = 2;
  options.policy = optimize::EvictionPolicy::kLru;
  optimize::SemanticCache cache(options);
  std::atomic<size_t> hits{0};
  std::atomic<size_t> foreign{0};
  std::latch start(kThreads);  // all threads enter the loop together
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (size_t i = 0; i < kPerThread; ++i) {
        const std::string& query = topics[(t + i * 3) % topics.size()];
        const std::string response =
            common::StrFormat("%s #%zu.%zu", query.c_str(), t, i);
        // Half the threads hand each miss to its Insert, as CachedLlm does.
        optimize::SemanticCache::Miss miss;
        optimize::SemanticCache::Miss* handle = t % 2 == 0 ? &miss : nullptr;
        auto hit = cache.Lookup(query, common::Money::FromMicros(10),
                                common::Money::Zero(), handle);
        if (!hit.has_value()) {
          cache.Insert(query, response, common::Money::Zero(), handle);
          continue;
        }
        hits.fetch_add(1, std::memory_order_relaxed);
        if (hit->response.rfind(hit->query + " #", 0) != 0) {
          foreign.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 4 == 0) cache.Insert(query, response);  // a refresh
      }
    });
  }
  for (auto& t : threads) t.join();
  const optimize::SemanticCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.lookups, kThreads * kPerThread);
  EXPECT_EQ(stats.hits, hits.load());
  EXPECT_EQ(foreign.load(), 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(cache.Size(), options.capacity);
}

// ---- The metrics registry ---------------------------------------------------

TEST(ConcurrentMetrics, RegistryTotalsAreExactUnderThreads) {
  // Instrument creation races with instrument writes from every thread; the
  // registry hands back stable pointers and the lock-free instruments must
  // not lose an update. Run under -DLLMDM_TSAN=ON like the rest of this
  // suite.
  obs::Registry registry;
  constexpr size_t kThreads = 8, kPerThread = 500;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Each thread fetches its own handles (exercising GetOrCreate under
      // contention) and writes shared series.
      obs::Counter* events = registry.GetCounter("llmdm_soak_events_total");
      obs::Counter* mine = registry.GetCounter(
          "llmdm_soak_thread_total", {{"thread", std::to_string(t % 4)}});
      obs::Gauge* high = registry.GetGauge("llmdm_soak_high_water");
      obs::Histogram* lat = registry.GetHistogram(
          "llmdm_soak_latency_vms", {}, obs::Histogram::LatencyBoundsVms());
      for (size_t i = 0; i < kPerThread; ++i) {
        events->Add(1);
        mine->Add(1);
        high->SetMax(static_cast<int64_t>(i));
        lat->Observe(static_cast<double>(i % 50));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("llmdm_soak_events_total")->value(),
            kThreads * kPerThread);
  uint64_t per_thread_sum = 0;
  for (size_t t = 0; t < 4; ++t) {
    per_thread_sum +=
        registry
            .GetCounter("llmdm_soak_thread_total",
                        {{"thread", std::to_string(t)}})
            ->value();
  }
  EXPECT_EQ(per_thread_sum, kThreads * kPerThread);
  EXPECT_EQ(registry.GetGauge("llmdm_soak_high_water")->value(),
            static_cast<int64_t>(kPerThread - 1));
  auto snap = registry
                  .GetHistogram("llmdm_soak_latency_vms", {},
                                obs::Histogram::LatencyBoundsVms())
                  ->TakeSnapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  // Bucket counts must sum to the observation count — a torn histogram
  // update breaks this conservation law.
  uint64_t bucket_sum = 0;
  for (uint64_t b : snap.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, snap.count);
}

TEST(ConcurrentMetrics, ExportIsByteIdenticalAcrossThreadCounts) {
  // The same fixed workload observed through 1, 2 or 8 threads must export
  // byte-identical text: every accumulation in the registry is integer.
  auto run = [](size_t threads) {
    obs::Registry registry;
    obs::Counter* events = registry.GetCounter("llmdm_soak_events_total");
    obs::Histogram* lat = registry.GetHistogram(
        "llmdm_soak_latency_vms", {}, obs::Histogram::LatencyBoundsVms());
    constexpr size_t kTotal = 1200;
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const size_t per = kTotal / threads;
        for (size_t i = 0; i < per; ++i) {
          size_t k = t * per + i;
          events->Add(1);
          lat->Observe(0.25 * static_cast<double>(k % 200));
        }
      });
    }
    for (auto& t : pool) t.join();
    return registry.PrometheusText() + registry.JsonSnapshot();
  };
  std::string one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(8));
}

// ---- The serving layer ------------------------------------------------------

TEST(Serve, FaultFreeSpendIsExactlyConserved) {
  // No faults, no shedding: the committed meter must equal the sum of the
  // per-response costs to the micro — dropped or double-counted spend under
  // the worker pool shows up here.
  serve::Server::Options options;
  options.worker_threads = 8;
  options.shed_policy = serve::ShedPolicy::kNone;
  serve::Server server(MakeModel("sim-serve", 100.0, 3), options);
  constexpr size_t kN = 300;
  for (size_t i = 0; i < kN; ++i) {
    server.Submit(MakeRequest(i, static_cast<double>(i) * 2.0,
                              common::StrFormat("question %zu", i % 60)));
  }
  auto responses = server.Drain();
  ASSERT_EQ(responses.size(), kN);
  common::Money sum;
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].id, i);  // every id exactly once, in order
    ASSERT_TRUE(responses[i].status.ok());
    sum += responses[i].cost;
  }
  EXPECT_EQ(server.meter().calls(), kN);
  EXPECT_EQ(server.meter().cost(), sum);
  auto stats = server.stats();
  EXPECT_EQ(stats.submitted, kN);
  EXPECT_EQ(stats.admitted, kN);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.completed, kN);
}

std::string RunServeWorkload(size_t worker_threads) {
  serve::Server::Options options;
  options.worker_threads = worker_threads;
  options.virtual_concurrency = 2;
  options.queue_depth = 8;
  options.shed_policy = serve::ShedPolicy::kQueueFull;
  options.hedging = true;
  options.hedge_percentile = 0.9;
  auto faulty = std::make_shared<llm::FaultInjectingLlm>(
      MakeModel("sim-serve", 200.0, 3), llm::FaultProfile::Uniform(0.3), 11);
  llm::ResilientLlm::Options resilience;
  resilience.retry.max_attempts = 3;
  resilience.retry.initial_backoff_ms = 20.0;
  resilience.seed = 9;
  // Keep the circuit breaker closed for this workload. The breaker reacts to
  // the *real* completion order of concurrent calls (its rolling window is
  // shared mutable state), so once it trips, which call gets rejected is
  // scheduling luck — at 30% faults it opens once or twice per run at an
  // order-dependent point, which is exactly the nondeterminism this test
  // exists to rule out of the serve layer itself. Breaker behaviour has its
  // own tests (ConcurrentCircuitBreaker.OpensExactlyUnderContention and the
  // resilience suite); here the endpoint must stay a pure function of the
  // request.
  resilience.breaker.min_samples = std::numeric_limits<size_t>::max();
  auto resilient = std::make_shared<llm::ResilientLlm>(faulty, resilience);
  serve::Server server(resilient, options, MakeModel("sim-hedge", 50.0, 4));
  for (size_t i = 0; i < 200; ++i) {
    serve::Request req = MakeRequest(i, static_cast<double>(i) * 3.0,
                                     common::StrFormat("query %zu", i));
    req.deadline_ms = 5000.0;
    server.Submit(req);
  }
  std::string log;
  for (const auto& r : server.Drain()) {
    log += common::StrFormat(
        "%llu ok=%d shed=%d hedged=%d won=%d miss=%d lat=%.3f cost=%lld %s\n",
        (unsigned long long)r.id, r.status.ok() ? 1 : 0, r.shed ? 1 : 0,
        r.hedged ? 1 : 0, r.hedge_won ? 1 : 0, r.deadline_missed ? 1 : 0,
        r.latency_vms, (long long)r.cost.micros(), r.model.c_str());
  }
  auto s = server.stats();
  log += common::StrFormat(
      "stats sub=%zu adm=%zu shed=%zu done=%zu fail=%zu hedges=%zu wins=%zu "
      "p50=%.3f p99=%.3f cancelled=%lld\n",
      s.submitted, s.admitted, s.shed, s.completed, s.failed,
      s.hedges_launched, s.hedge_wins, s.p50_latency_vms, s.p99_latency_vms,
      (long long)s.hedge_cancelled_cost.micros());
  return log;
}

TEST(Serve, DeterministicAcrossRunsAndThreadCounts) {
  // The whole point of the virtual-time design: real threads execute the
  // calls, yet the id-sorted outcome is byte-identical run to run — and
  // independent of how many workers raced over it.
  std::string two = RunServeWorkload(2);
  EXPECT_EQ(two, RunServeWorkload(2));
  EXPECT_EQ(two, RunServeWorkload(8));
}

TEST(Serve, SingleFlightSpendConservedAndItemized) {
  // Bursts of identical queries: the first of each burst leads, the rest
  // coalesce. Exactly one model call per flight is committed to the meter;
  // followers cost nothing, carry the leader's text, and are itemized in
  // the meter's coalesce ledger.
  serve::Server::Options options;
  options.worker_threads = 8;
  options.shed_policy = serve::ShedPolicy::kNone;
  options.single_flight = true;
  serve::Server server(MakeModel("sim-serve", 100.0, 3), options);
  constexpr size_t kN = 120, kBurst = 6;  // 20 bursts of 6 identical queries
  for (size_t i = 0; i < kN; ++i) {
    server.Submit(MakeRequest(i, static_cast<double>(i) * 1.0,
                              common::StrFormat("dup question %zu", i / kBurst)));
  }
  auto responses = server.Drain();
  ASSERT_EQ(responses.size(), kN);
  auto stats = server.stats();
  EXPECT_GT(stats.coalesced, 0u);
  EXPECT_EQ(stats.admitted, kN);

  common::Money response_sum;
  size_t coalesced_responses = 0;
  std::map<std::string, std::string> leader_text;  // input -> leader's answer
  for (const auto& r : responses) {
    ASSERT_TRUE(r.status.ok());
    response_sum += r.cost;
    if (!r.coalesced) {
      leader_text["dup question " + std::to_string(r.id / kBurst)] = r.text;
    }
  }
  for (const auto& r : responses) {
    if (!r.coalesced) continue;
    ++coalesced_responses;
    EXPECT_EQ(r.cost, common::Money::Zero());
    EXPECT_EQ(r.queue_wait_vms, 0.0);
    EXPECT_TRUE(r.model.ends_with("+coalesced")) << r.model;
    EXPECT_EQ(r.text, leader_text["dup question " + std::to_string(r.id / kBurst)]);
  }
  EXPECT_EQ(coalesced_responses, stats.coalesced);

  // Spend conservation: only leaders reached the endpoint, and the meter
  // holds exactly their spend (== the sum over responses, since followers
  // are zero-cost).
  EXPECT_EQ(server.meter().calls(), kN - stats.coalesced);
  EXPECT_EQ(server.meter().cost(), response_sum);

  // The avoided calls are itemized, and the per-model rows sum to the total.
  auto coalesce = server.meter().coalesce_stats();
  EXPECT_EQ(coalesce.coalesced, stats.coalesced);
  EXPECT_GT(coalesce.saved, common::Money::Zero());
  size_t by_model_sum = 0;
  for (const auto& [name, c] : server.meter().coalesce_by_model()) {
    by_model_sum += c.coalesced;
  }
  EXPECT_EQ(by_model_sum, coalesce.coalesced);
}

TEST(Serve, SingleFlightGroupsExpireWithVirtualTime) {
  // A flight whose estimated finish is at or before the latest arrival can
  // absorb no later request, so the server drops it: a stream of distinct
  // questions, each arriving after the previous one's service, keeps one
  // live flight instead of one per question ever seen.
  serve::Server::Options options;
  options.worker_threads = 2;
  options.shed_policy = serve::ShedPolicy::kNone;
  options.single_flight = true;
  serve::Server server(MakeModel("sim-serve", 100.0, 3), options);
  constexpr size_t kDistinct = 1000;
  constexpr double kSpacingVms = 1000.0;  // far past any one service
  size_t max_live = 0;
  for (size_t i = 0; i < kDistinct; ++i) {
    server.Submit(MakeRequest(i, static_cast<double>(i) * kSpacingVms,
                              common::StrFormat("distinct question %zu", i)));
    max_live = std::max(max_live, server.inflight_flights());
  }
  EXPECT_EQ(max_live, 1u);

  // Overlapping duplicates still coalesce onto one live flight.
  constexpr size_t kDup = 5;
  const double burst_vms = static_cast<double>(kDistinct) * kSpacingVms;
  for (size_t k = 0; k < kDup; ++k) {
    server.Submit(MakeRequest(kDistinct + k, burst_vms + 0.001 * k,
                              "duplicate question"));
    EXPECT_EQ(server.inflight_flights(), 1u) << "duplicate " << k;
  }
  // One more distinct arrival past the burst's service retires its flight.
  server.Submit(MakeRequest(kDistinct + kDup, burst_vms + kSpacingVms,
                            "last distinct question"));
  EXPECT_EQ(server.inflight_flights(), 1u);

  auto responses = server.Drain();
  ASSERT_EQ(responses.size(), kDistinct + kDup + 1);
  for (const auto& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.id;
    // Every distinct question was past its predecessor's service.
    if (r.id < kDistinct) {
      EXPECT_LT(r.service_vms, kSpacingVms) << r.id;
    }
  }
  EXPECT_EQ(server.stats().coalesced, kDup - 1);
  for (size_t k = 1; k < kDup; ++k) {
    EXPECT_TRUE(responses[kDistinct + k].coalesced) << "duplicate " << k;
    EXPECT_EQ(responses[kDistinct + k].text, responses[kDistinct].text);
  }
}

TEST(Serve, HedgeHistoryKeepsOneEntryPerDistinctEstimate) {
  // The hedge trigger is a percentile over the estimated service time of
  // every admission so far. An estimate depends only on the request's token
  // count, so the history holds one counted entry per distinct estimate:
  // N admissions over k input lengths leave k entries, not N.
  serve::Server::Options options;
  options.worker_threads = 2;
  options.shed_policy = serve::ShedPolicy::kNone;
  options.hedging = true;
  serve::Server server(MakeModel("sim-serve", 100.0, 3), options);
  constexpr size_t kLengths = 7;
  constexpr size_t kAdmissions = 2000;
  for (size_t i = 0; i < kAdmissions; ++i) {
    std::string input = "question";
    for (size_t w = 0; w < i % kLengths; ++w) input += " again";
    server.Submit(MakeRequest(i, static_cast<double>(i) * 1000.0, input));
  }
  EXPECT_EQ(server.hedge_history_entries(), kLengths);
  EXPECT_EQ(server.Drain().size(), kAdmissions);
}

std::string RunSingleFlightWorkload(size_t worker_threads) {
  serve::Server::Options options;
  options.worker_threads = worker_threads;
  options.virtual_concurrency = 2;
  options.queue_depth = 16;
  options.shed_policy = serve::ShedPolicy::kQueueFull;
  options.single_flight = true;
  serve::Server server(MakeModel("sim-serve", 200.0, 3), options);
  for (size_t i = 0; i < 150; ++i) {
    server.Submit(MakeRequest(i, static_cast<double>(i) * 2.0,
                              common::StrFormat("flight %zu", i % 30)));
  }
  std::string log;
  for (const auto& r : server.Drain()) {
    log += common::StrFormat(
        "%llu ok=%d shed=%d coal=%d lat=%.3f svc=%.3f cost=%lld %s\n",
        (unsigned long long)r.id, r.status.ok() ? 1 : 0, r.shed ? 1 : 0,
        r.coalesced ? 1 : 0, r.latency_vms, r.service_vms,
        (long long)r.cost.micros(), r.model.c_str());
  }
  auto s = server.stats();
  auto c = server.meter().coalesce_stats();
  log += common::StrFormat(
      "stats sub=%zu adm=%zu shed=%zu coal=%zu done=%zu meter_calls=%zu "
      "meter_cost=%lld saved=%lld\n",
      s.submitted, s.admitted, s.shed, s.coalesced, s.completed,
      server.meter().calls(), (long long)server.meter().cost().micros(),
      (long long)c.saved.micros());
  return log;
}

TEST(Serve, SingleFlightDeterministicAcrossRunsAndThreadCounts) {
  // Coalescing is decided at admission time against the virtual queue
  // model, so which requests coalesce — and every response they produce —
  // must be byte-identical across runs and worker counts.
  std::string two = RunSingleFlightWorkload(2);
  EXPECT_NE(two.find("coal=1"), std::string::npos);  // it actually coalesced
  EXPECT_EQ(two, RunSingleFlightWorkload(2));
  EXPECT_EQ(two, RunSingleFlightWorkload(1));
  EXPECT_EQ(two, RunSingleFlightWorkload(8));
}

TEST(Serve, SingleFlightFollowerNeverWaitsForAWorker) {
  // The only worker is held inside a model call. A follower of a flight
  // that has already finished is still answered before its Submit returns:
  // it rides the flight, not the worker queue.
  auto model =
      std::make_shared<GatedLlm>(MakeModel("sim-serve", 100.0, 3), "held");
  std::mutex mu;
  std::condition_variable answered_cv;
  std::set<uint64_t> answered;
  serve::Server::Options options;
  options.worker_threads = 1;
  options.shed_policy = serve::ShedPolicy::kNone;
  options.single_flight = true;
  options.response_sink = [&](const serve::Response& r) {
    std::lock_guard<std::mutex> lock(mu);
    answered.insert(r.id);
    answered_cv.notify_all();
  };
  serve::Server server(model, options);

  // Leader L finishes. Its estimated finish is at least 4.8 virtual ms (48
  // estimated output tokens at 100 ms per 1k), ahead of every arrival
  // below, so its flight stays open.
  server.Submit(MakeRequest(0, 0.0, "shared question"));
  {
    std::unique_lock<std::mutex> lock(mu);
    answered_cv.wait(lock, [&] { return answered.count(0) > 0; });
  }
  // X occupies the only worker until released.
  server.Submit(MakeRequest(1, 0.5, "held"));
  model->AwaitHeld();
  // F, identical to L, arrives inside L's estimated flight.
  server.Submit(MakeRequest(2, 1.0, "shared question"));
  bool follower_answered = false;
  {
    std::lock_guard<std::mutex> lock(mu);
    follower_answered = answered.count(2) > 0;
  }
  model->Release();
  EXPECT_TRUE(follower_answered) << "the follower waited behind the worker";

  const std::vector<serve::Response> responses = server.Drain();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].coalesced);
  EXPECT_TRUE(responses[2].coalesced);
  EXPECT_EQ(responses[2].text, responses[0].text);
  EXPECT_EQ(server.meter().calls(), 2u);  // L and X reached the model
}

TEST(Serve, SingleFlightNeedsTheSameSkillAndInput) {
  // The flight key hashes skill then input as one byte stream, so
  // ("freeform", "abc") and ("", "freeformabc") share it. Only an exact
  // (skill, input) match may ride a flight.
  serve::Server::Options options;
  options.worker_threads = 2;
  options.shed_policy = serve::ShedPolicy::kNone;
  options.single_flight = true;
  serve::Server server(MakeModel("sim-serve", 100.0, 3), options);
  server.Submit(MakeRequest(0, 0.0, "abc"));
  server.Submit(MakeRequest(1, 0.001, "abc"));
  serve::Request shifted = MakeRequest(2, 0.002, "freeformabc");
  shifted.skill = "";
  server.Submit(shifted);
  auto responses = server.Drain();
  ASSERT_EQ(responses.size(), 3u);
  ASSERT_TRUE(responses[0].status.ok());
  EXPECT_TRUE(responses[1].coalesced);
  EXPECT_EQ(responses[1].text, responses[0].text);
  // An unknown skill falls back to freeform, which echoes the whole input.
  EXPECT_FALSE(responses[2].coalesced);
  ASSERT_TRUE(responses[2].status.ok());
  EXPECT_EQ(responses[2].text, "Understood: freeformabc");
  EXPECT_EQ(server.stats().coalesced, 1u);
}

TEST(Serve, ShedsWithRetryAfterWhenQueueFull) {
  serve::Server::Options options;
  options.worker_threads = 4;
  options.virtual_concurrency = 1;
  options.queue_depth = 4;
  options.shed_policy = serve::ShedPolicy::kQueueFull;
  serve::Server server(MakeModel("sim-serve", 2000.0, 3), options);
  // A burst: everything arrives nearly at once against one slow slot.
  for (size_t i = 0; i < 40; ++i) {
    server.Submit(MakeRequest(i, static_cast<double>(i) * 0.1,
                              common::StrFormat("burst %zu", i)));
  }
  auto responses = server.Drain();
  auto stats = server.stats();
  EXPECT_GT(stats.shed, 0u);
  EXPECT_EQ(stats.shed + stats.admitted, stats.submitted);
  for (const auto& r : responses) {
    if (!r.shed) continue;
    EXPECT_EQ(r.status.code(), common::StatusCode::kResourceExhausted);
    EXPECT_GT(r.retry_after_vms, 0.0);  // the hint points past the backlog
  }
  // The same burst with an unbounded queue admits everything.
  serve::Server::Options unbounded = options;
  unbounded.shed_policy = serve::ShedPolicy::kNone;
  serve::Server baseline(MakeModel("sim-serve", 2000.0, 3), unbounded);
  for (size_t i = 0; i < 40; ++i) {
    baseline.Submit(MakeRequest(i, static_cast<double>(i) * 0.1,
                                common::StrFormat("burst %zu", i)));
  }
  baseline.Drain();
  EXPECT_EQ(baseline.stats().shed, 0u);
  EXPECT_EQ(baseline.stats().admitted, 40u);
  // Bounding the queue is what bounds the tail.
  EXPECT_LT(stats.p99_latency_vms, baseline.stats().p99_latency_vms);
}

TEST(Serve, DeadlineAwareShedsDoomedRequestsAtTheDoor) {
  auto run = [](serve::ShedPolicy policy) {
    serve::Server::Options options;
    options.worker_threads = 4;
    options.virtual_concurrency = 1;
    options.queue_depth = 1000;  // queue bound out of the way
    options.shed_policy = policy;
    serve::Server server(MakeModel("sim-serve", 2000.0, 3), options);
    for (size_t i = 0; i < 30; ++i) {
      serve::Request req = MakeRequest(i, static_cast<double>(i) * 0.1,
                                       common::StrFormat("burst %zu", i));
      req.deadline_ms = 400.0;
      server.Submit(req);
    }
    server.Drain();
    return server.stats();
  };
  auto aware = run(serve::ShedPolicy::kDeadlineAware);
  auto blind = run(serve::ShedPolicy::kQueueFull);
  // Deadline-aware turns queue deaths into immediate rejections: the
  // requests it sheds are exactly the ones that would have missed anyway.
  EXPECT_GT(aware.shed, 0u);
  EXPECT_EQ(blind.shed, 0u);
  EXPECT_GT(blind.deadline_missed, aware.deadline_missed);
  EXPECT_EQ(aware.shed + aware.deadline_missed + aware.completed,
            aware.submitted);
}

// ---- Multi-tenant QoS -------------------------------------------------------

std::string RunQosWorkload(size_t worker_threads) {
  serve::Server::Options options;
  options.worker_threads = worker_threads;
  options.virtual_concurrency = 2;
  options.queue_depth = 24;
  options.shed_policy = serve::ShedPolicy::kQueueFull;
  options.single_flight = true;  // coalescing must compose with DRR
  for (size_t i = 0; i < 4; ++i) {
    serve::TenantConfig cfg;
    cfg.id = common::StrFormat("t%02zu", i);
    cfg.weight = (i == 0) ? 4.0 : 1.0;
    if (i == 1) {
      cfg.quota_tokens_per_vs = 40.0;  // tenant t01 is rate-metered
      cfg.quota_burst_tokens = 120.0;
    }
    options.qos.tenants.push_back(cfg);
  }
  options.qos.aging_threshold_vms = 1500.0;
  obs::Registry registry;
  options.registry = &registry;
  serve::Server server(MakeModel("sim-serve", 400.0, 3), options);

  serve::PopulationOptions pop;
  pop.tenants = 4;
  pop.requests = 250;
  pop.mean_gap_vms = 4.0;
  pop.diurnal_period_vms = 400.0;
  pop.hot_tenants = 1;
  pop.burst_every_vms = 300.0;
  pop.burst_size = 12;
  pop.deadline_ms = 4000.0;
  pop.seed = 5;
  for (const auto& req : serve::GeneratePopulation(pop)) server.Submit(req);

  std::string log;
  for (const auto& r : server.Drain()) {
    log += common::StrFormat(
        "%llu %s ok=%d shed=%d cause=%d retry=%.3f coal=%d lat=%.3f "
        "cost=%lld\n",
        (unsigned long long)r.id, r.tenant.c_str(), r.status.ok() ? 1 : 0,
        r.shed ? 1 : 0, static_cast<int>(r.shed_cause), r.retry_after_vms,
        r.coalesced ? 1 : 0, r.latency_vms, (long long)r.cost.micros());
  }
  for (const auto& t : server.tenant_stats()) {
    log += common::StrFormat(
        "tenant %s sub=%zu adm=%zu coal=%zu shedq=%zu shedr=%zu done=%zu "
        "fail=%zu miss=%zu spend=%lld slo=%.4f p99=%.3f\n",
        t.tenant.c_str(), t.submitted, t.admitted, t.coalesced, t.shed_quota,
        t.shed_queue, t.completed, t.failed, t.deadline_missed,
        (long long)t.spend.micros(), t.slo_attainment, t.p99_latency_vms);
  }
  log += registry.PrometheusText();
  return log;
}

TEST(ServeQos, DeterministicAcrossRunsAndWorkerCounts) {
  // Quota refills, DRR dispatch order, aging and the per-tenant ledgers all
  // live on the virtual clock, so every response *and* the full metrics
  // export must be byte-identical across runs and worker counts.
  std::string two = RunQosWorkload(2);
  // The workload is actually exercising the interesting paths:
  EXPECT_NE(two.find("cause=3"), std::string::npos);  // quota sheds (t01)
  EXPECT_NE(two.find("coal=1"), std::string::npos);   // coalescing under QoS
  EXPECT_EQ(two, RunQosWorkload(2));
  EXPECT_EQ(two, RunQosWorkload(8));
}

TEST(ServeQos, CoalescedFollowerIsBookedUnderItsOwnTenant) {
  // A coalesced follower's response carries its own request's tenant, so
  // tenant_stats() books its latency and SLO there, not under the default
  // tenant: no tenant can count more good responses than it submitted.
  serve::Server::Options options;
  options.worker_threads = 2;
  options.virtual_concurrency = 2;
  options.queue_depth = 24;
  options.single_flight = true;
  for (const char* id : {"a", "b"}) {
    serve::TenantConfig cfg;
    cfg.id = id;
    options.qos.tenants.push_back(cfg);
  }
  serve::Server server(MakeModel("sim-serve", 400.0, 3), options);
  // Three tenants ("" is the default one) take turns asking the same
  // question six times in a row, so every tenant's followers ride leaders
  // of the others.
  std::map<uint64_t, std::string> tenant_of;
  for (size_t i = 0; i < 48; ++i) {
    serve::Request req = MakeRequest(i, static_cast<double>(i) * 2.0,
                                     common::StrFormat("shared %zu", i / 6));
    req.tenant = (i % 3 == 0) ? "a" : (i % 3 == 1 ? "b" : "");
    tenant_of[req.id] = req.tenant;
    server.Submit(req);
  }
  size_t followers = 0;
  for (const serve::Response& r : server.Drain()) {
    EXPECT_EQ(r.tenant, tenant_of[r.id]) << "response " << r.id;
    if (r.coalesced) ++followers;
  }
  EXPECT_GT(followers, 0u);
  for (const serve::TenantStats& t : server.tenant_stats()) {
    EXPECT_LE(t.slo_attainment, 1.0) << t.tenant;
  }
}

TEST(ServeQos, DuplicateRequestIdsWhileQueuedAreEachAnswered) {
  // One virtual slot: the first request starts, the next two wait in the
  // tenant's queue under the same client id. Each is parked and dispatched
  // on its own, so all three are answered.
  serve::Server::Options options;
  options.worker_threads = 2;
  options.virtual_concurrency = 1;
  options.shed_policy = serve::ShedPolicy::kNone;
  serve::TenantConfig cfg;
  cfg.id = "a";
  options.qos.tenants.push_back(cfg);
  serve::Server server(MakeModel("sim-serve", 100.0, 3), options);
  const std::pair<uint64_t, std::string> calls[] = {
      {1, "first question"}, {7, "second question"}, {7, "third question"}};
  for (const auto& [id, input] : calls) {
    serve::Request req = MakeRequest(id, 0.0, input);
    req.tenant = "a";
    server.Submit(req);
  }
  std::multiset<std::string> texts;
  for (const serve::Response& r : server.Drain()) {
    ASSERT_TRUE(r.status.ok()) << r.id;
    texts.insert(r.text);
  }
  EXPECT_EQ(texts, (std::multiset<std::string>{"Understood: first question",
                                               "Understood: second question",
                                               "Understood: third question"}));
}

struct StarvationSoakResult {
  size_t weak_completed = 0;
  double max_weak_wait = 0.0;
  double max_heavy_wait = 0.0;
  double max_service = 0.0;
};

StarvationSoakResult RunStarvationSoak(double aging_threshold_vms) {
  serve::Server::Options options;
  options.worker_threads = 4;
  options.virtual_concurrency = 1;
  options.queue_depth = 400;
  options.shed_policy = serve::ShedPolicy::kQueueFull;
  serve::TenantConfig heavy;
  heavy.id = "heavy";
  heavy.weight = 100.0;
  heavy.queue_limit = 300;
  serve::TenantConfig weak;
  weak.id = "weak";
  weak.weight = 0.01;
  weak.queue_limit = 50;
  options.qos.tenants = {heavy, weak};
  options.qos.aging_threshold_vms = aging_threshold_vms;
  serve::Server server(MakeModel("sim-serve", 2000.0, 3), options);

  // Heavy saturates the single slot (service ~120 vms, arrivals every
  // 100 vms — ~1.3x overload, a backlog that builds but slowly); weak
  // trickles in one request every 200 vms, all early in the run.
  uint64_t id = 0;
  std::vector<serve::Request> requests;
  for (size_t i = 0; i < 250; ++i) {
    serve::Request req = MakeRequest(id++, static_cast<double>(i) * 100.0,
                                     common::StrFormat("bulk %zu", i));
    req.tenant = "heavy";
    requests.push_back(req);
  }
  for (size_t i = 0; i < 20; ++i) {
    serve::Request req = MakeRequest(id++, static_cast<double>(i) * 200.0,
                                     common::StrFormat("interactive %zu", i));
    req.tenant = "weak";
    requests.push_back(req);
  }
  std::sort(requests.begin(), requests.end(),
            [](const serve::Request& a, const serve::Request& b) {
              return a.arrival_vms != b.arrival_vms
                         ? a.arrival_vms < b.arrival_vms
                         : a.id < b.id;
            });
  for (const auto& req : requests) server.Submit(req);

  StarvationSoakResult result;
  for (const auto& r : server.Drain()) {
    if (r.shed) continue;
    result.max_service = std::max(result.max_service, r.service_vms);
    if (r.tenant == "weak") {
      ++result.weak_completed;
      EXPECT_TRUE(r.status.ok());
      result.max_weak_wait = std::max(result.max_weak_wait, r.queue_wait_vms);
    } else {
      result.max_heavy_wait = std::max(result.max_heavy_wait, r.queue_wait_vms);
    }
  }
  return result;
}

TEST(ServeQos, AgingBoundsStarvationUnderSaturatingHeavyTenant) {
  // A weight-100:0.01 split with one saturated slot. Without aging, DRR
  // credits the weak tenant ~0.64 tokens per ring cycle (one heavy dispatch
  // each), so ~90 heavy requests run between consecutive weak ones — the
  // weak tenant starves relative to heavy. Aging cannot create capacity
  // (under 3x overload *everyone* queues), but it bounds the *relative*
  // penalty: once a head has aged, dispatch is oldest-first, so the weak
  // tenant waits no more than the heavy tenant plus the threshold plus the
  // request already holding the slot.
  constexpr double kAging = 800.0;
  StarvationSoakResult aged = RunStarvationSoak(kAging);
  EXPECT_EQ(aged.weak_completed, 20u);
  EXPECT_LE(aged.max_weak_wait,
            aged.max_heavy_wait + kAging + aged.max_service + 1.0);

  // Control: aging out of reach. The weak tenant still completes (DRR never
  // wedges) but its worst wait blows out far past the aged run's — this gap
  // is what the aging escape hatch buys.
  StarvationSoakResult starved = RunStarvationSoak(1e12);
  EXPECT_EQ(starved.weak_completed, 20u);
  EXPECT_GT(starved.max_weak_wait, 2.0 * aged.max_weak_wait);
}

TEST(Serve, HedgingCutsTheTailAndBooksCancelledSpend) {
  auto run = [](bool hedging) {
    serve::Server::Options options;
    options.worker_threads = 4;
    options.virtual_concurrency = 4;
    options.shed_policy = serve::ShedPolicy::kNone;
    options.hedging = hedging;
    options.hedge_percentile = 0.5;
    options.est_output_tokens = 1;  // estimate low => the trigger is tight
    serve::Server server(MakeModel("sim-slow", 5000.0, 3), options,
                         MakeModel("sim-fast", 50.0, 4));
    for (size_t i = 0; i < 60; ++i) {
      server.Submit(MakeRequest(i, static_cast<double>(i) * 50.0,
                                common::StrFormat("tail %zu", i)));
    }
    auto responses = server.Drain();
    common::Money response_sum;
    for (const auto& r : responses) response_sum += r.cost;
    return std::make_tuple(server.stats(), server.meter().cost(),
                           response_sum);
  };
  auto [hedged, hedged_meter, hedged_sum] = run(true);
  auto [plain, plain_meter, plain_sum] = run(false);
  EXPECT_GT(hedged.hedges_launched, 0u);
  EXPECT_GT(hedged.hedge_wins, 0u);
  // The fast hedge beats the slow primary's tail...
  EXPECT_LT(hedged.p99_latency_vms, plain.p99_latency_vms);
  // ...the cancelled attempts' spend is booked, not committed...
  EXPECT_GT(hedged.hedge_cancelled_cost, common::Money::Zero());
  EXPECT_EQ(hedged_meter, hedged_sum);
  // ...and without hedging the meter trivially equals the response sum too.
  EXPECT_EQ(plain_meter, plain_sum);
  EXPECT_EQ(plain.hedges_launched, 0u);
}

TEST(Serve, SubmitBatchWithoutProbeMatchesSubmitLoop) {
  auto run = [&](bool batched) {
    serve::Server::Options options;
    options.worker_threads = 4;
    options.shed_policy = serve::ShedPolicy::kNone;
    serve::Server server(MakeModel("sim-serve", 100.0, 3), options);
    std::vector<serve::Request> batch;
    for (size_t i = 0; i < 60; ++i) {
      batch.push_back(MakeRequest(i, static_cast<double>(i) * 2.0,
                                  common::StrFormat("q %zu", i % 20)));
    }
    if (batched) {
      server.SubmitBatch(batch);
    } else {
      for (const auto& req : batch) server.Submit(req);
    }
    std::string log;
    for (const auto& r : server.Drain()) {
      log += common::StrFormat("%llu %d %.3f %lld %s\n",
                               (unsigned long long)r.id, r.status.ok() ? 1 : 0,
                               r.latency_vms, (long long)r.cost.micros(),
                               r.text.c_str());
    }
    return log;
  };
  EXPECT_EQ(run(true), run(false));
}

// ---- Continuous batching ----------------------------------------------------

std::shared_ptr<llm::SimulatedLlm> MakeBatchModel(const std::string& name,
                                                  double latency_ms_per_1k,
                                                  uint64_t seed) {
  llm::ModelSpec spec;
  spec.name = name;
  spec.capability = 0.9;
  spec.input_price_per_1k = common::Money::FromDollars(0.001);
  spec.cached_input_price_per_1k = common::Money::FromDollars(0.0001);
  spec.output_price_per_1k = common::Money::FromDollars(0.002);
  spec.latency_ms_per_1k_tokens = latency_ms_per_1k;
  auto model = std::make_shared<llm::SimulatedLlm>(spec, seed);
  model->RegisterSkill(std::make_unique<llm::FreeformSkill>());
  return model;
}

std::string RunBatchingWorkload(size_t worker_threads) {
  serve::Server::Options options;
  options.worker_threads = worker_threads;
  options.shed_policy = serve::ShedPolicy::kNone;
  options.batching = true;
  options.max_batch = 4;
  options.batch_window_vms = 10.0;
  serve::Server server(MakeBatchModel("sim-batch", 100.0, 3), options);
  for (size_t i = 0; i < 120; ++i) {
    // Near-duplicate prompts: a shared clause head with a varying tail, the
    // Table II decomposition shape the prefix trie exists for.
    server.Submit(MakeRequest(
        i, static_cast<double>(i) * 2.0,
        common::StrFormat("evaluate clause group %zu variant %zu", i % 10,
                          i % 3)));
  }
  std::string log;
  for (const auto& r : server.Drain()) {
    log += common::StrFormat("%llu ok=%d lat=%.3f svc=%.3f cost=%lld %s %s\n",
                             (unsigned long long)r.id, r.status.ok() ? 1 : 0,
                             r.latency_vms, r.service_vms,
                             (long long)r.cost.micros(), r.model.c_str(),
                             r.text.c_str());
  }
  auto s = server.stats();
  auto b = server.meter().batch_stats();
  log += common::StrFormat(
      "stats sub=%zu adm=%zu done=%zu batches=%zu batched=%zu cached=%zu "
      "saved=%lld meter_calls=%zu meter_cost=%lld ledger_batches=%zu "
      "ledger_calls=%zu ledger_cached=%zu ledger_saved=%lld\n",
      s.submitted, s.admitted, s.completed, s.batches_closed,
      s.batched_requests, s.prefix_cached_tokens,
      (long long)s.prefix_saved.micros(), server.meter().calls(),
      (long long)server.meter().cost().micros(), b.batches, b.batched_calls,
      b.prefix_cached_tokens, (long long)b.prefix_saved.micros());
  return log;
}

TEST(ServeBatching, DeterministicAcrossRunsAndWorkerCounts) {
  // Batch membership is decided at admission time on the virtual clock, so
  // the id-sorted responses, the batch ledgers and every counter must be
  // byte-identical across runs and 1/4/8 workers.
  std::string one = RunBatchingWorkload(1);
  EXPECT_NE(one.find("cached="), std::string::npos);
  EXPECT_EQ(one.find("cached=0 "), std::string::npos);  // savings actually flowed
  EXPECT_EQ(one, RunBatchingWorkload(1));
  EXPECT_EQ(one, RunBatchingWorkload(4));
  EXPECT_EQ(one, RunBatchingWorkload(8));
}

TEST(ServeBatching, ClosesOnSizeAndOnWindowDeadline) {
  auto run = [](double gap_vms, size_t n) {
    serve::Server::Options options;
    options.worker_threads = 2;
    options.shed_policy = serve::ShedPolicy::kNone;
    options.batching = true;
    options.max_batch = 4;
    options.batch_window_vms = 10.0;
    obs::Registry registry;
    options.registry = &registry;
    serve::Server server(MakeBatchModel("sim-batch", 100.0, 3), options);
    for (size_t i = 0; i < n; ++i) {
      server.Submit(MakeRequest(i, static_cast<double>(i) * gap_vms,
                                common::StrFormat("close probe %zu", i)));
    }
    (void)server.Drain();
    return registry.PrometheusText();
  };
  // Dense arrivals (1 vms apart, window 10): every batch fills to
  // max_batch=4 before the window can expire.
  std::string dense = run(1.0, 16);
  EXPECT_NE(dense.find("llmdm_batch_closed_total{cause=\"size\"} 4"),
            std::string::npos)
      << dense;
  // Sparse arrivals (6 vms apart): the second arrival is inside the first's
  // window, the third crosses it — batches of two close on "window" (and
  // the final pair on "drain"), never on size.
  std::string sparse = run(6.0, 8);
  EXPECT_EQ(sparse.find("cause=\"size\"} 1"), std::string::npos);
  EXPECT_NE(sparse.find("llmdm_batch_closed_total{cause=\"window\"} 3"),
            std::string::npos)
      << sparse;
  EXPECT_NE(sparse.find("llmdm_batch_closed_total{cause=\"drain\"} 1"),
            std::string::npos)
      << sparse;
}

TEST(ServeBatching, TextsMatchUnbatchedAndSavedReconstructsListPrice) {
  // Batching changes billing and latency, never answers: the id-sorted
  // texts must equal an unbatched run's, and (satellite 2 exactness) the
  // batched meter cost plus the itemized prefix savings must reconstruct
  // the unbatched meter cost to the micro.
  auto run = [](bool batching) {
    serve::Server::Options options;
    options.worker_threads = 4;
    options.shed_policy = serve::ShedPolicy::kNone;
    options.batching = batching;
    options.max_batch = 8;
    options.batch_window_vms = 20.0;
    serve::Server server(MakeBatchModel("sim-batch", 100.0, 3), options);
    for (size_t i = 0; i < 90; ++i) {
      server.Submit(MakeRequest(
          i, static_cast<double>(i) * 2.0,
          common::StrFormat("decompose clause %zu of query %zu", i % 5,
                            i / 5)));
    }
    std::string texts;
    for (const auto& r : server.Drain()) {
      EXPECT_TRUE(r.status.ok());
      texts += r.text;
      texts += '\n';
    }
    return std::make_tuple(texts, server.meter().cost(),
                           server.meter().batch_stats());
  };
  auto [batched_texts, batched_cost, batch_ledger] = run(true);
  auto [plain_texts, plain_cost, plain_ledger] = run(false);
  EXPECT_EQ(batched_texts, plain_texts);
  EXPECT_GT(batch_ledger.prefix_cached_tokens, 0u);
  EXPECT_GT(batch_ledger.prefix_saved, common::Money::Zero());
  EXPECT_LT(batched_cost, plain_cost);
  EXPECT_EQ(batched_cost + batch_ledger.prefix_saved, plain_cost);
  EXPECT_EQ(plain_ledger.batches, 0u);
}

TEST(ServeBatching, SpendConservedUnderCoalescingAndHedging) {
  // The satellite-2 conservation law with everything on at once: batching +
  // single-flight + hedging. The committed meter must equal the sum of the
  // per-response costs to the micro — a double-booked prefix discount or a
  // hedge-loser's claimed savings would break the equality.
  serve::Server::Options options;
  options.worker_threads = 8;
  options.shed_policy = serve::ShedPolicy::kNone;
  options.batching = true;
  options.max_batch = 4;
  options.batch_window_vms = 15.0;
  options.single_flight = true;
  options.hedging = true;
  options.hedge_percentile = 0.5;
  options.est_output_tokens = 1;  // tight trigger: hedges actually launch
  serve::Server server(MakeBatchModel("sim-batch", 5000.0, 3), options,
                       MakeModel("sim-hedge", 50.0, 4));
  for (size_t i = 0; i < 90; ++i) {
    // Thirds: near-duplicates (batch + prefix), exact duplicates
    // (single-flight), and unique tails (hedge fodder).
    std::string input =
        (i % 3 == 0)
            ? common::StrFormat("shared stem request %zu", i % 12)
            : (i % 3 == 1 ? std::string("identical flight query")
                          : common::StrFormat("unique tail %zu", i));
    server.Submit(MakeRequest(i, static_cast<double>(i) * 5.0, input));
  }
  auto responses = server.Drain();
  ASSERT_EQ(responses.size(), 90u);
  common::Money response_sum;
  for (const auto& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    response_sum += r.cost;
  }
  auto s = server.stats();
  EXPECT_GT(s.batches_closed, 0u);
  EXPECT_GT(s.coalesced, 0u);
  EXPECT_GT(s.hedges_launched, 0u);
  EXPECT_EQ(server.meter().cost(), response_sum);
  // The registry counters and the meter ledger describe the same savings.
  EXPECT_EQ(server.meter().batch_stats().prefix_cached_tokens,
            s.prefix_cached_tokens);
  EXPECT_EQ(server.meter().batch_stats().prefix_saved, s.prefix_saved);
}

TEST(ServeQos, SubmitBatchProbeHitsChargeTenantLedger) {
  // Satellite 1 regression: a batch-probe hit must hit the tenant's books —
  // submitted, admitted, the {tenant=...} hit counter, and the quota
  // bucket — exactly like an admitted request, so a tenant cannot dodge its
  // quota by arriving through SubmitBatch with a warm cache. Parity target:
  // an equivalent Submit loop (no probe; every request is admitted and
  // charged), which must see the same admission/shed accounting.
  auto tenant_row = [](serve::Server& server, const std::string& id) {
    for (const auto& t : server.tenant_stats()) {
      if (t.tenant == id) return t;
    }
    return serve::TenantStats{};
  };
  auto make_options = [] {
    serve::Server::Options options;
    options.worker_threads = 4;
    options.queue_depth = 256;  // ample share: only quota can shed
    options.shed_policy = serve::ShedPolicy::kQueueFull;
    serve::TenantConfig metered;
    metered.id = "metered";
    metered.weight = 1.0;
    metered.queue_limit = 256;
    // Burst covers roughly three requests' estimates, refill is a trickle:
    // the fourth-and-later arrivals must shed on quota in BOTH paths.
    metered.quota_tokens_per_vs = 0.01;
    metered.quota_burst_tokens = 180.0;
    options.qos.tenants = {metered};
    return options;
  };
  auto make_workload = [] {
    std::vector<serve::Request> batch;
    for (size_t i = 0; i < 10; ++i) {
      serve::Request req = MakeRequest(i, static_cast<double>(i) * 1.0,
                                       common::StrFormat("warm query %zu", i));
      req.tenant = "metered";
      batch.push_back(req);
    }
    return batch;
  };

  // Path A: SubmitBatch through a probe whose cache answers everything.
  auto model = MakeModel("sim-serve", 100.0, 3);
  optimize::SemanticCache::Options copts;
  copts.similarity_threshold = 0.99;
  copts.capacity = 256;
  optimize::SemanticCache cache(copts);
  for (size_t i = 0; i < 10; ++i) {
    cache.Insert(common::StrFormat("warm query %zu", i), "cached answer",
                 common::Money::FromDollars(0.001));
  }
  serve::Server::Options options = make_options();
  options.batch_probe = optimize::MakeBatchCacheProbe(&cache, model->spec());
  serve::Server probed(model, options);
  probed.SubmitBatch(make_workload());
  (void)probed.Drain();
  serve::TenantStats a = tenant_row(probed, "metered");

  // Path B: the same workload through a plain Submit loop (no probe).
  serve::Server plain(MakeModel("sim-serve", 100.0, 3), make_options());
  for (const auto& req : make_workload()) plain.Submit(req);
  (void)plain.Drain();
  serve::TenantStats b = tenant_row(plain, "metered");

  // The probe really answered the admitted requests...
  EXPECT_GT(a.cache_probe_hits, 0u);
  EXPECT_EQ(a.cache_probe_hits, a.admitted);
  EXPECT_EQ(b.cache_probe_hits, 0u);
  // ...and the admission-side books are identical: same submissions, same
  // admissions, and — the heart of the bug — the same quota sheds, because
  // hits drain the bucket exactly like admitted calls.
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.shed_quota, b.shed_quota);
  EXPECT_GT(a.shed_quota, 0u);
  EXPECT_EQ(a.shed_queue, 0u);
  EXPECT_EQ(b.shed_queue, 0u);
}

TEST(Serve, SubmitBatchProbeAnswersHitsAtZeroCostDeterministically) {
  // A semantic cache warmed with half the batch's queries, wired in through
  // the batched probe: hits must be answered at zero cost with the cached
  // text and "+cache" model label, misses must reach the model — and the
  // id-sorted outcome must be byte-identical across runs and worker counts.
  auto run = [&](size_t worker_threads) {
    auto model = MakeModel("sim-serve", 100.0, 3);
    optimize::SemanticCache::Options copts;
    copts.similarity_threshold = 0.99;
    copts.capacity = 256;
    optimize::SemanticCache cache(copts);
    for (size_t i = 0; i < 30; ++i) {
      cache.Insert(common::StrFormat("warm query %zu", i), "cached answer",
                   common::Money::FromDollars(0.001));
    }
    serve::Server::Options options;
    options.worker_threads = worker_threads;
    options.shed_policy = serve::ShedPolicy::kNone;
    options.batch_probe = optimize::MakeBatchCacheProbe(&cache, model->spec());
    serve::Server server(model, options);
    std::vector<serve::Request> batch;
    for (size_t i = 0; i < 60; ++i) {
      // Even ids were pre-cached; odd ids are cold.
      std::string text = (i % 2 == 0)
                             ? common::StrFormat("warm query %zu", i / 2)
                             : common::StrFormat("cold query %zu", i);
      batch.push_back(MakeRequest(i, static_cast<double>(i) * 2.0, text));
    }
    server.SubmitBatch(batch);
    auto responses = server.Drain();
    auto stats = server.stats();
    EXPECT_EQ(stats.submitted, 60u);
    EXPECT_EQ(stats.admitted, 60u);
    EXPECT_EQ(stats.cache_probe_hits, 30u);
    std::string log;
    for (const auto& r : responses) {
      EXPECT_TRUE(r.status.ok()) << r.status.message();
      if (r.id % 2 == 0) {
        EXPECT_EQ(r.text, "cached answer");
        EXPECT_EQ(r.model, "sim-serve+cache");
        EXPECT_EQ(r.cost, common::Money::Zero());
        EXPECT_EQ(r.latency_vms, 1.0);
      } else {
        EXPECT_NE(r.model, "sim-serve+cache");
      }
      log += common::StrFormat("%llu %.3f %lld %s %s\n",
                               (unsigned long long)r.id, r.latency_vms,
                               (long long)r.cost.micros(), r.model.c_str(),
                               r.text.c_str());
    }
    return log;
  };
  std::string one = run(1);
  EXPECT_EQ(one, run(4));
  EXPECT_EQ(one, run(8));
}

// ---- Golden pin -------------------------------------------------------------
//
// The determinism tests above compare two runs of the same build, so a change
// that moves a shed, coalesce, batch or hedge decision still passes them.
// These scenarios compare each run with a checked-in text file instead: the
// id-sorted outcome log, stats(), tenant_stats(), the meter ledgers and the
// registry export, byte for byte, at 1 and at 4 workers.
//
// To regenerate after an intended output change, run the suite with
// LLMDM_UPDATE_GOLDEN=1 and review the diff of tests/golden/.

struct GoldenRun {
  size_t worker_threads = 1;
  obs::Registry registry;
  size_t maintenance_fires = 0;
  /// When set, receives the drained responses (trace trees included).
  std::vector<serve::Response>* drained = nullptr;
};

// Common options of every golden scenario: workers, the run's registry,
// tracing, and a maintenance hook counting its fires.
void ConfigureGoldenRun(serve::Server::Options* options, GoldenRun* run,
                        double interval_vms) {
  options->worker_threads = run->worker_threads;
  options->registry = &run->registry;
  options->tracing = true;
  options->maintenance_interval_vms = interval_vms;
  options->maintenance_hook = [run] { ++run->maintenance_fires; };
}

// Arrival gaps stay below one maintenance interval, so each arrival crosses
// at most one boundary and the fire count does not depend on how a long gap
// is caught up.
void ExpectGapsBelow(const std::vector<serve::Request>& requests,
                     double interval_vms) {
  for (size_t i = 1; i < requests.size(); ++i) {
    ASSERT_LT(requests[i].arrival_vms - requests[i - 1].arrival_vms,
              interval_vms);
  }
}

std::string GoldenDump(serve::Server& server, GoldenRun& run) {
  std::string out;
  const std::vector<serve::Response> responses = server.Drain();
  if (run.drained != nullptr) *run.drained = responses;
  for (const serve::Response& r : responses) {
    out += common::StrFormat(
        "%llu tenant=%s status=%s shed=%d cause=%d retry=%.3f wait=%.3f "
        "svc=%.3f lat=%.3f cost=%lld miss=%d hedged=%d won=%d coal=%d "
        "model=%s text=%s\n",
        (unsigned long long)r.id, r.tenant.c_str(),
        r.status.ToString().c_str(), r.shed ? 1 : 0,
        static_cast<int>(r.shed_cause), r.retry_after_vms, r.queue_wait_vms,
        r.service_vms, r.latency_vms, (long long)r.cost.micros(),
        r.deadline_missed ? 1 : 0, r.hedged ? 1 : 0, r.hedge_won ? 1 : 0,
        r.coalesced ? 1 : 0, r.model.c_str(), r.text.c_str());
    if (r.trace != nullptr) out += "  trace " + r.trace->ToJson() + "\n";
  }
  const serve::ServerStats s = server.stats();
  out += common::StrFormat(
      "stats sub=%zu adm=%zu shed=%zu done=%zu fail=%zu miss=%zu hedges=%zu "
      "wins=%zu coal=%zu probe_hits=%zu batches=%zu batched=%zu cached=%zu "
      "saved=%lld cancelled=%lld p50=%.3f p99=%.3f maxq=%.0f goodput=%.4f\n",
      s.submitted, s.admitted, s.shed, s.completed, s.failed,
      s.deadline_missed, s.hedges_launched, s.hedge_wins, s.coalesced,
      s.cache_probe_hits, s.batches_closed, s.batched_requests,
      s.prefix_cached_tokens, (long long)s.prefix_saved.micros(),
      (long long)s.hedge_cancelled_cost.micros(), s.p50_latency_vms,
      s.p99_latency_vms, s.max_queue_len, s.goodput_per_vs);
  for (const serve::TenantStats& t : server.tenant_stats()) {
    out += common::StrFormat(
        "tenant %s sub=%zu adm=%zu coal=%zu probe_hits=%zu shedq=%zu "
        "shedr=%zu done=%zu fail=%zu miss=%zu spend=%lld slo=%.4f p99=%.3f\n",
        t.tenant.c_str(), t.submitted, t.admitted, t.coalesced,
        t.cache_probe_hits, t.shed_quota, t.shed_queue, t.completed, t.failed,
        t.deadline_missed, (long long)t.spend.micros(), t.slo_attainment,
        t.p99_latency_vms);
  }
  // The meter's latency total is a floating-point sum in completion order,
  // so it is the one ledger field left out.
  const llm::UsageMeter& meter = server.meter();
  for (const auto& [model, t] : meter.by_model()) {
    out += common::StrFormat("meter %s calls=%zu in=%zu out=%zu cost=%lld\n",
                             model.c_str(), t.calls, t.input_tokens,
                             t.output_tokens, (long long)t.cost.micros());
  }
  for (const auto& [model, rs] : meter.retry_by_model()) {
    out += "retry " + model + " " + rs.ToString() + "\n";
  }
  for (const auto& [model, c] : meter.coalesce_by_model()) {
    out += common::StrFormat("coalesce %s n=%zu saved=%lld\n", model.c_str(),
                             c.coalesced, (long long)c.saved.micros());
  }
  for (const auto& [model, b] : meter.batch_by_model()) {
    out += common::StrFormat(
        "batch %s batches=%zu calls=%zu cached=%zu saved=%lld\n",
        model.c_str(), b.batches, b.batched_calls, b.prefix_cached_tokens,
        (long long)b.prefix_saved.micros());
  }
  out += common::StrFormat("maintenance fires=%zu\n", run.maintenance_fires);
  out += run.registry.PrometheusText();
  return out;
}

std::shared_ptr<llm::LlmModel> MakeFaultyResilientModel() {
  auto faulty = std::make_shared<llm::FaultInjectingLlm>(
      MakeModel("sim-serve", 200.0, 3), llm::FaultProfile::Uniform(0.3), 11);
  llm::ResilientLlm::Options resilience;
  resilience.retry.max_attempts = 3;
  resilience.retry.initial_backoff_ms = 20.0;
  resilience.seed = 9;
  // Pinned closed for the same reason as in RunServeWorkload: a tripping
  // breaker depends on real completion order.
  resilience.breaker.min_samples = std::numeric_limits<size_t>::max();
  return std::make_shared<llm::ResilientLlm>(faulty, resilience);
}

// Shared queue: overload against two slots with mixed deadlines, hedging
// on, a faulty resilient primary.
std::string GoldenSharedQueue(
    serve::ShedPolicy policy, size_t workers,
    std::vector<serve::Response>* drained = nullptr) {
  GoldenRun run;
  run.worker_threads = workers;
  run.drained = drained;
  serve::Server::Options options;
  ConfigureGoldenRun(&options, &run, 50.0);
  options.virtual_concurrency = 2;
  options.queue_depth = 8;
  options.shed_policy = policy;
  options.hedging = true;
  options.hedge_percentile = 0.9;
  serve::Server server(MakeFaultyResilientModel(), options,
                       MakeModel("sim-hedge", 50.0, 4));
  std::vector<serve::Request> requests;
  for (size_t i = 0; i < 160; ++i) {
    serve::Request req = MakeRequest(i, static_cast<double>(i) * 3.0,
                                     common::StrFormat("query %zu", i % 70));
    req.deadline_ms =
        (i % 4 == 0) ? 0.0 : 20.0 + static_cast<double>(i % 6) * 15.0;
    requests.push_back(req);
  }
  ExpectGapsBelow(requests, 50.0);
  for (const auto& req : requests) server.Submit(req);
  return GoldenDump(server, run);
}

// QoS: a hot tenant bursting past its queue share, a quota-metered tenant,
// single-flight riding the fair dispatcher.
std::string GoldenQos(size_t workers,
                      std::vector<serve::Response>* drained = nullptr) {
  GoldenRun run;
  run.worker_threads = workers;
  run.drained = drained;
  serve::Server::Options options;
  ConfigureGoldenRun(&options, &run, 200.0);
  options.virtual_concurrency = 2;
  options.queue_depth = 12;
  options.single_flight = true;
  for (size_t i = 0; i < 4; ++i) {
    serve::TenantConfig cfg;
    cfg.id = common::StrFormat("t%02zu", i);
    cfg.weight = (i == 0) ? 4.0 : 1.0;
    if (i == 1) {
      cfg.quota_tokens_per_vs = 40.0;
      cfg.quota_burst_tokens = 120.0;
    }
    options.qos.tenants.push_back(cfg);
  }
  options.qos.aging_threshold_vms = 1500.0;
  serve::Server server(MakeModel("sim-serve", 400.0, 3), options);
  serve::PopulationOptions pop;
  pop.tenants = 4;
  pop.requests = 200;
  pop.mean_gap_vms = 4.0;
  pop.diurnal_period_vms = 400.0;
  pop.hot_tenants = 1;
  pop.burst_every_vms = 300.0;
  pop.burst_size = 12;
  pop.deadline_ms = 3000.0;
  pop.inputs_per_tenant = 6;
  pop.seed = 5;
  std::vector<serve::Request> requests = serve::GeneratePopulation(pop);
  ExpectGapsBelow(requests, 200.0);
  for (const auto& req : requests) server.Submit(req);
  return GoldenDump(server, run);
}

// Continuous batching with single-flight and hedging over a slow primary;
// some members die in the queue before their batch runs.
std::string GoldenBatching(size_t workers,
                           std::vector<serve::Response>* drained = nullptr) {
  GoldenRun run;
  run.worker_threads = workers;
  run.drained = drained;
  serve::Server::Options options;
  ConfigureGoldenRun(&options, &run, 50.0);
  options.shed_policy = serve::ShedPolicy::kNone;
  options.batching = true;
  options.max_batch = 4;
  options.batch_window_vms = 15.0;
  options.single_flight = true;
  options.hedging = true;
  options.hedge_percentile = 0.5;
  options.est_output_tokens = 1;
  // The hedge model is slow enough that a prefix-discounted primary beats
  // it and a full-price one does not, so both winners occur.
  serve::Server server(MakeBatchModel("sim-batch", 5000.0, 3), options,
                       MakeModel("sim-hedge", 1500.0, 4));
  std::vector<serve::Request> requests;
  for (size_t i = 0; i < 96; ++i) {
    std::string input =
        (i % 3 == 0)
            ? common::StrFormat("shared stem request %zu", i % 12)
            : (i % 3 == 1 ? std::string("identical flight query")
                          : common::StrFormat("unique tail %zu", i));
    serve::Request req = MakeRequest(i, static_cast<double>(i) * 5.0, input);
    if (i % 4 == 3) req.deadline_ms = 40.0;
    requests.push_back(req);
  }
  ExpectGapsBelow(requests, 50.0);
  for (const auto& req : requests) server.Submit(req);
  return GoldenDump(server, run);
}

// SubmitBatch through a semantic-cache probe warmed with about half the
// queries. With `qos`, a quota-metered tenant pays for hits and misses alike.
std::string GoldenProbe(bool qos, size_t workers,
                        std::vector<serve::Response>* drained = nullptr) {
  GoldenRun run;
  run.worker_threads = workers;
  run.drained = drained;
  auto model = MakeModel("sim-serve", 400.0, 3);
  optimize::SemanticCache::Options copts;
  copts.similarity_threshold = 0.99;
  copts.capacity = 256;
  copts.registry = &run.registry;
  optimize::SemanticCache cache(copts);
  for (size_t i = 0; i < 40; ++i) {
    cache.Insert(common::StrFormat("warm query %zu", i), "cached answer",
                 common::Money::FromDollars(0.001));
  }
  serve::Server::Options options;
  ConfigureGoldenRun(&options, &run, 50.0);
  options.virtual_concurrency = 2;
  options.queue_depth = 16;
  options.single_flight = true;
  if (qos) {
    serve::TenantConfig metered;
    metered.id = "metered";
    metered.quota_tokens_per_vs = 3000.0;
    metered.quota_burst_tokens = 150.0;
    serve::TenantConfig free_tenant;
    free_tenant.id = "free";
    free_tenant.weight = 2.0;
    options.qos.tenants = {metered, free_tenant};
  }
  options.batch_probe = optimize::MakeBatchCacheProbe(&cache, model->spec());
  serve::Server server(model, options);
  std::vector<serve::Request> requests;
  for (size_t i = 0; i < 96; ++i) {
    // Even ids were pre-cached; odd ids are cold, and repeat often enough
    // to coalesce.
    std::string text = (i % 2 == 0)
                           ? common::StrFormat("warm query %zu", (i / 2) % 40)
                           : common::StrFormat("cold query %zu", i % 6);
    serve::Request req = MakeRequest(i, static_cast<double>(i) * 1.5, text);
    req.tenant = (i % 3 == 0) ? "metered" : (i % 3 == 1 ? "free" : "");
    if (i % 5 == 0) req.deadline_ms = 60.0;
    requests.push_back(req);
  }
  ExpectGapsBelow(requests, 50.0);
  for (size_t begin = 0; begin < requests.size(); begin += 8) {
    server.SubmitBatch(std::vector<serve::Request>(
        requests.begin() + begin, requests.begin() + begin + 8));
  }
  return GoldenDump(server, run);
}

// Compares `actual` with tests/golden/<name>.txt, reporting the first
// differing line rather than two whole files.
void ExpectMatchesGolden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(LLMDM_GOLDEN_DIR) + "/" + name + ".txt";
  if (std::getenv("LLMDM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream expected;
  expected << in.rdbuf();
  if (expected.str() == actual) return;
  std::istringstream want(expected.str()), got(actual);
  std::string want_line, got_line;
  for (size_t line = 1;; ++line) {
    bool more_want = static_cast<bool>(std::getline(want, want_line));
    bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) break;
    if (!more_want || !more_got || want_line != got_line) {
      ADD_FAILURE() << path << " differs at line " << line << "\n  want: "
                    << (more_want ? want_line : "<end of file>")
                    << "\n  got:  " << (more_got ? got_line : "<end of file>");
      return;
    }
  }
  ADD_FAILURE() << path << " differs (line endings)";
}

TEST(ServeGolden, OutputsMatchCheckedInGoldenAtOneAndFourWorkers) {
  for (size_t workers : {1, 4}) {
    SCOPED_TRACE(common::StrFormat("%zu workers", workers));
    ExpectMatchesGolden(
        "serve_queue_full",
        GoldenSharedQueue(serve::ShedPolicy::kQueueFull, workers));
    ExpectMatchesGolden(
        "serve_deadline_aware",
        GoldenSharedQueue(serve::ShedPolicy::kDeadlineAware, workers));
    ExpectMatchesGolden("serve_qos", GoldenQos(workers));
    ExpectMatchesGolden("serve_batching", GoldenBatching(workers));
    ExpectMatchesGolden("serve_probe", GoldenProbe(false, workers));
    ExpectMatchesGolden("serve_probe_qos", GoldenProbe(true, workers));
  }
}

// Walks `span` and its subtree, requiring every span to end at or after its
// start. `where` names the response in a failure.
void ExpectSpansEndAfterStart(const obs::Span& span, const std::string& where) {
  EXPECT_GE(span.end_vms, span.start_vms)
      << where << " span " << span.name << " ends before it starts";
  for (const auto& child : span.children) {
    ExpectSpansEndAfterStart(*child, where);
  }
}

TEST(ServeGolden, TracedSpansEndAfterTheyStartAndFollowersNameTheirTenant) {
  // Across every golden scenario, each span of each traced response ends at
  // or after its start — including a follower that arrived after its leader
  // had already finished — and a follower's trace names its tenant, as an
  // executed request's does.
  std::vector<std::vector<serve::Response>> runs(6);
  GoldenSharedQueue(serve::ShedPolicy::kQueueFull, 4, &runs[0]);
  GoldenSharedQueue(serve::ShedPolicy::kDeadlineAware, 4, &runs[1]);
  GoldenQos(4, &runs[2]);
  GoldenBatching(4, &runs[3]);
  GoldenProbe(false, 4, &runs[4]);
  GoldenProbe(true, 4, &runs[5]);
  size_t traced = 0, late_followers = 0, tenant_followers = 0;
  for (const std::vector<serve::Response>& responses : runs) {
    for (const serve::Response& r : responses) {
      if (r.trace == nullptr) continue;
      ++traced;
      const obs::Span& root = *r.trace->root_span();
      ExpectSpansEndAfterStart(root, "response " + std::to_string(r.id));
      if (!r.coalesced) continue;
      if (r.service_vms == 0.0) ++late_followers;  // leader finished first
      if (r.tenant.empty()) continue;
      ++tenant_followers;
      const auto tenant = std::find(
          root.attrs.begin(), root.attrs.end(),
          std::pair<std::string, std::string>("tenant", r.tenant));
      EXPECT_NE(tenant, root.attrs.end())
          << "follower " << r.id << " trace lacks tenant " << r.tenant;
    }
  }
  EXPECT_GT(traced, 0u);
  EXPECT_GT(late_followers, 0u);
  EXPECT_GT(tenant_followers, 0u);
}

}  // namespace
}  // namespace llmdm
