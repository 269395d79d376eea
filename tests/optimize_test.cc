#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "core/optimize/cascade.h"
#include "core/optimize/decomposition.h"
#include "core/optimize/prompt_store.h"
#include "core/optimize/semantic_cache.h"
#include "data/nl2sql_workload.h"
#include "data/qa_workload.h"
#include "durability/format.h"
#include "llm/simulated.h"
#include "sql/database.h"
#include "text/tokenizer.h"

namespace llmdm::optimize {
namespace {

class CascadeTest : public ::testing::Test {
 protected:
  CascadeTest() {
    common::Rng rng(303);
    kb_ = data::KnowledgeBase::Generate(50, rng);
    ladder_ = llm::CreatePaperModelLadder(&kb_, 777);
    workload_ = data::GenerateQaWorkload(kb_, 60, {1.0, 1.0, 0.6}, rng);
  }

  data::KnowledgeBase kb_;
  std::vector<std::shared_ptr<llm::LlmModel>> ladder_;
  std::vector<data::QaItem> workload_;
};

TEST_F(CascadeTest, EmptyLadderRejected) {
  LlmCascade cascade({}, LlmCascade::Options{});
  EXPECT_FALSE(cascade.Run(llm::MakePrompt("qa", "Who is X?")).ok());
}

TEST_F(CascadeTest, AcceptsAtSomeRungAndMeters) {
  LlmCascade cascade(ladder_, LlmCascade::Options{});
  llm::UsageMeter meter;
  auto r = cascade.Run(llm::MakePrompt("qa", workload_[0].question), &meter);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->answer.empty());
  EXPECT_FALSE(r->trace.empty());
  EXPECT_TRUE(r->trace.back().accepted);
  EXPECT_EQ(meter.calls(), r->total_calls);
  EXPECT_GT(r->cost.micros(), 0);
}

TEST_F(CascadeTest, ThresholdZeroAlwaysTakesSmallModel) {
  LlmCascade::Options options;
  options.accept_threshold = 0.0;
  LlmCascade cascade(ladder_, options);
  auto r = cascade.Run(llm::MakePrompt("qa", workload_[1].question));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->model, ladder_[0]->name());
  EXPECT_EQ(r->trace.size(), 1u);
}

TEST_F(CascadeTest, ImpossibleThresholdEscalatesToTop) {
  LlmCascade::Options options;
  options.accept_threshold = 1.1;
  LlmCascade cascade(ladder_, options);
  auto r = cascade.Run(llm::MakePrompt("qa", workload_[2].question));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->model, ladder_.back()->name());
  EXPECT_EQ(r->trace.size(), ladder_.size());
}

TEST_F(CascadeTest, MatchesBigModelAccuracyAtLowerCost) {
  // The Table I shape: cascade accuracy ~ gpt-4 accuracy, cost well below.
  LlmCascade::Options options;
  options.accept_threshold = 0.8;
  LlmCascade cascade(ladder_, options);

  int cascade_correct = 0, big_correct = 0;
  llm::UsageMeter cascade_meter, big_meter;
  for (const auto& item : workload_) {
    llm::Prompt p = llm::MakePrompt("qa", item.question);
    auto cr = cascade.Run(p, &cascade_meter);
    ASSERT_TRUE(cr.ok());
    if (cr->answer == item.answer) ++cascade_correct;
    auto br = ladder_.back()->CompleteMetered(p, &big_meter);
    ASSERT_TRUE(br.ok());
    if (br->text == item.answer) ++big_correct;
  }
  double cascade_acc = double(cascade_correct) / double(workload_.size());
  double big_acc = double(big_correct) / double(workload_.size());
  EXPECT_GT(cascade_acc, big_acc - 0.12);       // near-parity accuracy
  EXPECT_LT(cascade_meter.cost().dollars(),
            big_meter.cost().dollars() * 0.7);  // clear cost win
}

TEST(CalibrateThreshold, PrefersSeparatingThreshold) {
  // Scores above 0.6 are always right, below always wrong: the calibrated
  // threshold should fall in between (escalating the wrong ones).
  std::vector<CalibrationSample> samples;
  for (int i = 0; i < 50; ++i) {
    samples.push_back({0.9, true});
    samples.push_back({0.3, false});
  }
  double t = CalibrateAcceptThreshold(samples, /*escalation_accuracy=*/0.95,
                                      /*escalation_cost_ratio=*/20.0);
  EXPECT_GT(t, 0.3);
  EXPECT_LE(t, 0.9);
}

TEST(CalibrateThreshold, EmptySamplesFallBack) {
  EXPECT_DOUBLE_EQ(CalibrateAcceptThreshold({}, 0.9, 10.0), 0.7);
}

// ---- decomposition ------------------------------------------------------------

TEST(Decomposition, SplitsCompoundQuestion) {
  auto d = DecomposeQuestion(
      "What are the names of stadiums that had concerts in 2014 or had "
      "sports meetings in 2015?");
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->sub_questions.size(), 2u);
  EXPECT_EQ(d->sub_questions[0], "stadiums that had concerts in 2014");
  EXPECT_EQ(d->sub_questions[1], "stadiums that had sports meetings in 2015");
  EXPECT_EQ(d->combiner, data::Combiner::kOr);
}

TEST(Decomposition, AtomicStaysAtomic) {
  auto d = DecomposeQuestion(
      "What are the names of stadiums that had concerts in 2014?");
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->atomic());
}

TEST(Decomposition, RecombineUsesSetAlgebra) {
  EXPECT_EQ(RecombineSql({"A", "B"}, data::Combiner::kOr), "A UNION B");
  EXPECT_EQ(RecombineSql({"A", "B"}, data::Combiner::kAnd), "A INTERSECT B");
  EXPECT_EQ(RecombineSql({"A", "B"}, data::Combiner::kAndNot), "A EXCEPT B");
  EXPECT_EQ(RecombineSql({"A"}, data::Combiner::kOr), "A");
}

class BatchOptimizerTest : public ::testing::Test {
 protected:
  BatchOptimizerTest() {
    common::Rng rng(404);
    auto script = data::BuildStadiumDatabaseScript(12, {2014, 2015}, rng);
    EXPECT_TRUE(db_.ExecuteScript(script).ok());
    models_ = llm::CreatePaperModelLadder(nullptr, 909);
    // A workload with heavy sub-query sharing (small condition pool).
    data::Nl2SqlWorkloadOptions options;
    options.num_queries = 20;
    options.condition_pool = 4;
    options.compound_rate = 0.8;
    for (const auto& q : data::GenerateNl2SqlWorkload(options, rng)) {
      questions_.push_back(q.ToNaturalLanguage());
      gold_.push_back(q.ToGoldSql());
    }
  }

  double GradeAll(const std::vector<std::string>& sql) {
    int correct = 0;
    for (size_t i = 0; i < sql.size(); ++i) {
      auto gold = db_.Query(gold_[i]);
      auto pred = db_.Query(sql[i]);
      if (gold.ok() && pred.ok() && pred->BagEquals(*gold)) ++correct;
    }
    return double(correct) / double(sql.size());
  }

  sql::Database db_;
  std::vector<std::shared_ptr<llm::LlmModel>> models_;
  std::vector<std::string> questions_;
  std::vector<std::string> gold_;
};

TEST_F(BatchOptimizerTest, PlanDedupesSharedSubqueries) {
  QueryBatchOptimizer::Options options;
  options.enable_decomposition = true;
  QueryBatchOptimizer optimizer(options);
  BatchPlan plan = optimizer.Plan(questions_);
  // With a pool of 4 conditions, unique units must be far fewer than the sum
  // of all per-query units.
  size_t total_units = 0;
  for (const auto& item : plan.items) total_units += item.units.size();
  EXPECT_LT(plan.unique_units.size(), total_units);
  EXPECT_EQ(plan.items.size(), questions_.size());
}

TEST_F(BatchOptimizerTest, DirectPlanWhenDecompositionDisabled) {
  QueryBatchOptimizer::Options options;
  options.enable_decomposition = false;
  QueryBatchOptimizer optimizer(options);
  BatchPlan plan = optimizer.Plan(questions_);
  for (const auto& item : plan.items) {
    EXPECT_FALSE(item.decomposed);
    EXPECT_EQ(item.units.size(), 1u);
  }
}

TEST_F(BatchOptimizerTest, TableIIShape) {
  // Origin vs Decomposition vs Decomposition+Combination: accuracy must not
  // drop and cost must fall monotonically.
  auto examples = data::PaperQ1ToQ5();
  std::vector<llm::FewShotExample> few_shot;
  for (const auto& ex : examples) {
    few_shot.push_back({ex.ToNaturalLanguage(), ex.ToGoldSql()});
  }
  auto run = [&](bool decompose, bool combine) {
    QueryBatchOptimizer::Options options;
    options.enable_decomposition = decompose;
    options.enable_combination = combine;
    options.examples = few_shot;
    QueryBatchOptimizer optimizer(options);
    BatchPlan plan = optimizer.Plan(questions_);
    llm::UsageMeter meter;
    auto exec = optimizer.Execute(plan, *models_[1], &meter);
    EXPECT_TRUE(exec.ok());
    return std::make_pair(GradeAll(exec->sql), meter.cost().dollars());
  };
  auto [acc_origin, cost_origin] = run(false, false);
  auto [acc_decomp, cost_decomp] = run(true, false);
  auto [acc_comb, cost_comb] = run(true, true);

  EXPECT_GE(acc_decomp, acc_origin);        // decomposition helps accuracy
  EXPECT_LT(cost_decomp, cost_origin);      // and costs less
  EXPECT_NEAR(acc_comb, acc_decomp, 1e-9);  // combination: same answers
  EXPECT_LT(cost_comb, cost_decomp);        // at lower cost still
}

// ---- semantic cache -------------------------------------------------------------

TEST(SemanticCache, ExactishHitAboveThreshold) {
  SemanticCache cache(SemanticCache::Options{});
  cache.Insert("What are the names of stadiums that had concerts in 2014?",
               "SELECT ...", common::Money::FromDollars(0.01));
  auto hit = cache.Lookup(
      "What are the names of stadiums that had concerts in 2014?",
      common::Money::FromDollars(0.02));
  ASSERT_TRUE(hit.has_value());
  EXPECT_GT(hit->similarity, 0.99f);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().saved, common::Money::FromDollars(0.02));
}

TEST(SemanticCache, ParaphraseHitsNonExactMatch) {
  SemanticCache::Options options;
  options.similarity_threshold = 0.85;
  SemanticCache cache(options);
  cache.Insert("Show the names of stadiums that had concerts in 2014",
               "SELECT name ...");
  auto hit = cache.Lookup(
      "What are the names of stadiums that had concerts in 2014?");
  EXPECT_TRUE(hit.has_value());
}

TEST(SemanticCache, UnrelatedQueryMisses) {
  SemanticCache cache(SemanticCache::Options{});
  cache.Insert("stadium concerts question", "answer A");
  auto hit = cache.Lookup("completely different medical topic on insulin");
  EXPECT_FALSE(hit.has_value());
}

TEST(SemanticCache, EvictionRespectsCapacity) {
  SemanticCache::Options options;
  options.capacity = 4;
  options.policy = EvictionPolicy::kLru;
  SemanticCache cache(options);
  for (int i = 0; i < 10; ++i) {
    cache.Insert("query number " + std::to_string(i) + " about topic " +
                     std::to_string(i * 7),
                 "answer");
  }
  EXPECT_EQ(cache.Size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 6u);
}

TEST(SemanticCache, CostAwareKeepsReusedEntries) {
  SemanticCache::Options options;
  options.capacity = 2;
  options.policy = EvictionPolicy::kCostAware;
  SemanticCache cache(options);
  cache.Insert("alpha workload query about stadium capacity", "A");
  cache.Insert("beta workload query about patient cholesterol", "B");
  // Make alpha valuable through reuse hits.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(
        cache.Lookup("alpha workload query about stadium capacity").has_value());
  }
  cache.Insert("gamma workload query about federated learning", "C");
  // Alpha must survive; beta (no hits) is the victim.
  EXPECT_TRUE(
      cache.Lookup("alpha workload query about stadium capacity").has_value());
  EXPECT_FALSE(
      cache.Lookup("beta workload query about patient cholesterol").has_value());
}

TEST(SemanticCache, PredictiveAdmissionSkipsSingletons) {
  SemanticCache::Options options;
  options.capacity = 4;
  options.predictive_admission = true;
  SemanticCache cache(options);
  // One-off queries never enter the cache...
  for (int i = 0; i < 10; ++i) {
    cache.Insert("one-off query number " + std::to_string(i), "a");
  }
  EXPECT_EQ(cache.Size(), 0u);
  EXPECT_EQ(cache.stats().admission_rejections, 10u);
  // ...but a recurring query is admitted on its second sighting.
  cache.Insert("the recurring data prep question", "a");
  EXPECT_EQ(cache.Size(), 0u);
  cache.Insert("the recurring data prep question", "a");
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_TRUE(cache.Lookup("the recurring data prep question").has_value());
}

TEST(SemanticCache, PredictiveAdmissionProtectsHotEntries) {
  // Under a singleton-heavy stream with a tiny cache, the doorkeeper keeps
  // the one hot query resident while plain insertion churns it out.
  auto run = [](bool predictive) {
    SemanticCache::Options options;
    options.capacity = 2;
    options.predictive_admission = predictive;
    SemanticCache cache(options);
    common::Rng rng(13);
    size_t hot_hits = 0;
    for (int step = 0; step < 200; ++step) {
      std::string q = (step % 4 == 0)
                          ? std::string("the hot recurring question")
                          : "cold singleton " + std::to_string(step) +
                                " about subject " + std::to_string(step * 17);
      if (cache.Lookup(q).has_value()) {
        if (q == "the hot recurring question") ++hot_hits;
      } else {
        cache.Insert(q, "answer");
      }
    }
    return hot_hits;
  };
  EXPECT_GT(run(true), run(false));
}

TEST(SemanticCache, TopKAugmentationReturnsNeighbors) {
  SemanticCache cache(SemanticCache::Options{});
  cache.Insert("stadiums that had concerts in 2014", "SQL1");
  cache.Insert("stadiums that had concerts in 2015", "SQL2");
  cache.Insert("patients with high cholesterol", "SQL3");
  auto hits = cache.TopKForAugmentation("stadiums that had concerts in 2016", 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_NE(hits[0].response, "SQL3");
  EXPECT_NE(hits[1].response, "SQL3");
}

TEST(Doorkeeper, AdmitsOnSecondSightingWithinWindow) {
  Doorkeeper dk(8);
  EXPECT_FALSE(dk.SeenAndNote(42));  // first sighting
  EXPECT_TRUE(dk.SeenAndNote(42));   // second sighting, same epoch
  EXPECT_FALSE(dk.SeenAndNote(43));
}

TEST(Doorkeeper, EntriesStayBoundedByTwoEpochs) {
  constexpr size_t kEpoch = 64;
  Doorkeeper dk(kEpoch);
  for (uint64_t h = 0; h < 100000; ++h) {
    dk.SeenAndNote(h);
    ASSERT_LE(dk.entries(), 2 * kEpoch);
  }
  // A hash re-sighted while still inside the window is remembered...
  uint64_t recent = 100000;
  dk.SeenAndNote(recent);
  EXPECT_TRUE(dk.SeenAndNote(recent));
  // ...but one older than two epochs has been forgotten.
  EXPECT_FALSE(dk.SeenAndNote(0));
}

TEST(SemanticCache, DoorkeeperMemoryBoundedUnderSingletonFlood) {
  SemanticCache::Options options;
  options.capacity = 8;
  options.predictive_admission = true;
  SemanticCache cache(options);
  // 10,000 singletons span more than two epochs, so the window rotates.
  static_assert(10000 > 2 * SemanticCache::kDoorkeeperCapacity);
  for (int i = 0; i < 10000; ++i) {
    cache.Insert("unique singleton " + std::to_string(i), "a");
    ASSERT_LE(cache.doorkeeper_entries(),
              2 * SemanticCache::kDoorkeeperCapacity);
  }
  EXPECT_EQ(cache.Size(), 0u);  // all rejected at the door
  EXPECT_EQ(cache.stats().admission_rejections, 10000u);
}

// A workload with exact repeats and ample capacity: hit/miss outcomes depend
// only on each query's own history, never on eviction or shard layout, so
// every shard count must produce identical aggregate stats.
TEST(SemanticCache, ShardCountInvariantWithoutEvictionPressure) {
  auto run = [](size_t num_shards) {
    SemanticCache::Options options;
    options.capacity = 1024;
    options.similarity_threshold = 0.99;
    options.num_shards = num_shards;
    SemanticCache cache(options);
    for (int rep = 0; rep < 3; ++rep) {
      for (int i = 0; i < 40; ++i) {
        std::string q = "query " + std::to_string(i) + " about subject " +
                        std::to_string(i * 31 % 7);
        if (!cache.Lookup(q, common::Money::FromDollars(0.01)).has_value()) {
          cache.Insert(q, "answer " + std::to_string(i));
        }
      }
    }
    return cache.stats();
  };
  SemanticCache::Stats base = run(1);
  EXPECT_EQ(base.lookups, 120u);
  EXPECT_EQ(base.hits, 80u);  // each of 40 queries misses once, hits twice
  for (size_t shards : {2u, 4u, 8u}) {
    SemanticCache::Stats s = run(shards);
    EXPECT_EQ(s.lookups, base.lookups) << shards;
    EXPECT_EQ(s.hits, base.hits) << shards;
    EXPECT_EQ(s.insertions, base.insertions) << shards;
    EXPECT_EQ(s.evictions, base.evictions) << shards;
    EXPECT_EQ(s.saved, base.saved) << shards;
  }
}

TEST(SemanticCache, ShardedEvictionIsDeterministicAcrossRuns) {
  auto run = [] {
    SemanticCache::Options options;
    options.capacity = 10;  // heavy pressure: splits 3,3,2,2 across shards
    options.num_shards = 4;
    options.policy = EvictionPolicy::kCostAware;
    SemanticCache cache(options);
    for (int step = 0; step < 300; ++step) {
      std::string q = "stream query " + std::to_string(step % 40) +
                      " topic " + std::to_string(step * 13 % 11);
      if (!cache.Lookup(q).has_value()) cache.Insert(q, "a");
    }
    return cache.stats();
  };
  SemanticCache::Stats a = run();
  SemanticCache::Stats b = run();
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.insertions, b.insertions);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_GT(a.evictions, 0u);
}

TEST(CachedLlm, HitAvoidsCostMissPopulates) {
  common::Rng rng(11);
  auto kb = data::KnowledgeBase::Generate(30, rng);
  auto models = llm::CreatePaperModelLadder(&kb, 123);
  SemanticCache cache(SemanticCache::Options{});
  CachedLlm cached(models[2], &cache);

  llm::Prompt p = llm::MakePrompt(
      "qa", data::RenderChainQuestion({"advisor"}, kb.entities()[0]));
  auto first = cached.Complete(p);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->cost.micros(), 0);
  auto second = cached.Complete(p);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->cost.micros(), 0);
  EXPECT_EQ(second->text, first->text);
  EXPECT_EQ(cached.cache_hits(), 1u);
}

TEST(SemanticCache, SavingsLedgerCreditsInputAndOutput) {
  // Bugfix regression: a hit replaces the whole bill — the caller's
  // input-side estimate plus the cached response's output tokens at the
  // output price — not just the input half.
  SemanticCache cache(SemanticCache::Options{});
  const std::string response = "SELECT name FROM stadium WHERE year = 2014";
  cache.Insert("stadium concert names in 2014", response,
               common::Money::FromDollars(0.01));
  const common::Money input_side = common::Money::FromDollars(0.02);
  const common::Money output_price = common::Money::FromDollars(0.002);
  auto hit = cache.Lookup("stadium concert names in 2014", input_side,
                          output_price);
  ASSERT_TRUE(hit.has_value());
  const common::Money expected =
      input_side +
      common::Money::FromMicros(
          output_price.micros() *
          static_cast<int64_t>(text::CountTokens(response)) / 1000);
  EXPECT_EQ(hit->saved, expected);
  EXPECT_GT(hit->saved, input_side);  // the output credit is real
  EXPECT_EQ(cache.stats().saved, expected);
  // The two-argument form still credits exactly the caller's estimate, so
  // callers that price the whole bill themselves are unchanged.
  auto input_only = cache.Lookup("stadium concert names in 2014", input_side);
  ASSERT_TRUE(input_only.has_value());
  EXPECT_EQ(input_only->saved, input_side);
}

TEST(CachedLlm, SavingsLedgerCreditsInputAndOutput) {
  common::Rng rng(11);
  auto kb = data::KnowledgeBase::Generate(30, rng);
  auto models = llm::CreatePaperModelLadder(&kb, 123);
  SemanticCache cache(SemanticCache::Options{});
  CachedLlm cached(models[2], &cache);

  llm::Prompt p = llm::MakePrompt(
      "qa", data::RenderChainQuestion({"advisor"}, kb.entities()[0]));
  auto first = cached.Complete(p);
  ASSERT_TRUE(first.ok());
  auto second = cached.Complete(p);
  ASSERT_TRUE(second.ok());
  const llm::ModelSpec& spec = models[2]->spec();
  const common::Money expected =
      common::Money::FromMicros(
          spec.input_price_per_1k.micros() *
          static_cast<int64_t>(p.CountInputTokens()) / 1000) +
      common::Money::FromMicros(
          spec.output_price_per_1k.micros() *
          static_cast<int64_t>(text::CountTokens(first->text)) / 1000);
  EXPECT_EQ(cache.stats().saved, expected);
  EXPECT_GT(expected, common::Money::Zero());
}

TEST(SemanticCache, ChurnedShardsKeepOnlyTheirCapacity) {
  // Bugfix regression for the tombstone leak: eviction used to only flip
  // live=false, so slots (and their payloads) accumulated for process
  // lifetime. Now an evicted entry leaves the shard and frees its index row
  // for reuse, so memory is O(capacity) under any churn.
  SemanticCache::Options options;
  options.capacity = 8;
  options.policy = EvictionPolicy::kLru;
  SemanticCache cache(options);
  constexpr size_t kInserts = 200;  // 25x capacity of distinct queries
  for (size_t i = 0; i < kInserts; ++i) {
    cache.Insert(
        "churn query " + std::to_string(i) + " topic " + std::to_string(i * 3),
        "answer " + std::to_string(i));
  }
  EXPECT_EQ(cache.Size(), options.capacity);
  EXPECT_EQ(cache.stats().evictions, kInserts - options.capacity);
  // Every survivor is still found after all that row reuse.
  for (size_t i = kInserts - options.capacity; i < kInserts; ++i) {
    auto hit = cache.Lookup(
        "churn query " + std::to_string(i) + " topic " + std::to_string(i * 3),
        common::Money::FromDollars(0.01));
    ASSERT_TRUE(hit.has_value()) << "survivor " << i;
    EXPECT_EQ(hit->response, "answer " + std::to_string(i));
  }
}

TEST(SemanticCache, ChurnStatsAreByteStableAcrossRuns) {
  // Evictions free index rows that later inserts reuse; the observable
  // behaviour (per-step hit decisions and the final ledger) must remain a
  // pure function of the input stream.
  auto run = [] {
    SemanticCache::Options options;
    options.capacity = 8;
    SemanticCache cache(options);
    std::string log;
    for (size_t i = 0; i < 300; ++i) {
      std::string q = "churn query " + std::to_string(i % 40) + " topic " +
                      std::to_string((i * 7) % 11);
      bool hit = cache.Lookup(q, common::Money::FromDollars(0.01)).has_value();
      if (!hit) cache.Insert(q, "a");
      log += hit ? 'H' : 'M';
    }
    auto s = cache.stats();
    log += " " + std::to_string(s.hits) + "/" + std::to_string(s.evictions) +
           "/" + std::to_string(cache.Size());
    return log;
  };
  std::string a = run();
  EXPECT_EQ(a, run());
}

TEST(SemanticCache, EvictedNearestNeighbourDoesNotShadowSecond) {
  // Bugfix regression for dead-entry shadowing: when the nearest neighbour
  // of a probe has been evicted, the probe must step past it to the live
  // second-nearest instead of reporting a miss.
  SemanticCache::Options options;
  options.capacity = 2;
  options.policy = EvictionPolicy::kLru;
  options.similarity_threshold = 0.85;
  SemanticCache cache(options);
  const std::string nearest =
      "What are the names of stadiums that had concerts in 2014?";
  const std::string second =
      "Show the names of stadiums that had concerts in 2014";
  cache.Insert(nearest, "answer nearest");
  cache.Insert(second, "answer second");
  // Touch `second` so `nearest` becomes the LRU victim...
  ASSERT_TRUE(cache.Lookup(second).has_value());
  // ...then push it out with an unrelated entry.
  cache.Insert("completely different medical topic on insulin", "other");
  EXPECT_EQ(cache.Size(), 2u);
  // The probe's top match is the evicted entry; the live paraphrase right
  // behind it must still hit.
  auto hit = cache.Lookup(nearest, common::Money::FromDollars(0.01));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->response, "answer second");
}

const std::string kHandoffQuery = "which stadiums hosted concerts in 2014";
const std::vector<std::string> kUnrelated = {
    "patients with a diabetes diagnosis", "average salary by department",
    "flights delayed out of boston", "novels written by tolstoy"};

TEST(SemanticCache, StaleMissHandleStillRefreshes) {
  // A handle-less Insert of the same query — a concurrent duplicate — lands
  // between a missed probe and the Insert it hands its probe to: alone, and
  // with an eviction. The probe saw no near-duplicate, but the index has
  // changed since, so the handed Insert must search, find the duplicate and
  // refresh it: no entry is added, so nothing is evicted either.
  for (size_t warm : {0, 2}) {
    SCOPED_TRACE("warm entries " + std::to_string(warm));
    SemanticCache::Options options;
    options.capacity = 2;
    options.policy = EvictionPolicy::kLru;
    SemanticCache cache(options);
    for (size_t i = 0; i < warm; ++i) cache.Insert(kUnrelated[i], "warm");
    SemanticCache::Miss miss;
    ASSERT_FALSE(cache.Lookup(kHandoffQuery, common::Money::Zero(),
                              common::Money::Zero(), &miss)
                     .has_value());
    cache.Insert(kHandoffQuery, "a");
    const size_t evictions = cache.stats().evictions;
    EXPECT_EQ(evictions, warm > 0 ? 1u : 0u);
    const size_t size = cache.Size();
    EXPECT_EQ(size, warm + 1 - evictions);
    cache.Insert(kHandoffQuery, "b", common::Money::Zero(), &miss);
    EXPECT_EQ(cache.Size(), size);
    EXPECT_EQ(cache.stats().evictions, evictions);
    auto hit = cache.Lookup(kHandoffQuery);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->response, "b");
  }
}

TEST(SemanticCache, MissHandleDoesNotOutliveAReset) {
  // Recovery recreates the shards (ResetToEmpty) and reloads them; the
  // reloaded index holds the query the handle's probe did not see. Shard
  // versions come from one cache-wide counter, so the handle cannot match
  // the rebuilt shard even though it went through as many mutations.
  SemanticCache cache(SemanticCache::Options{});
  cache.Insert(kUnrelated[0], "x");
  SemanticCache::Miss miss;
  ASSERT_FALSE(cache.Lookup(kHandoffQuery, common::Money::Zero(),
                            common::Money::Zero(), &miss)
                   .has_value());
  cache.Insert(kHandoffQuery, "a");
  std::string image;
  ASSERT_TRUE(cache.SaveSnapshot(&image).ok());
  cache.ResetToEmpty();
  durability::ByteReader in(image);
  ASSERT_TRUE(cache.LoadSnapshot(in).ok());
  cache.Insert(kHandoffQuery, "b", common::Money::Zero(), &miss);
  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  auto hit = cache.Lookup(kHandoffQuery);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->response, "b");
}

TEST(SemanticCache, MissHandleFromAnotherCacheIsIgnored) {
  // Two caches with histories of equal length hold equal index versions, so
  // only the issuer check stops B's handle — whose probe saw nothing near
  // the query — from letting A skip the search that finds A's entry.
  SemanticCache a(SemanticCache::Options{});
  SemanticCache b(SemanticCache::Options{});
  a.Insert(kHandoffQuery, "a");
  b.Insert(kUnrelated[0], "other");
  SemanticCache::Miss miss;
  ASSERT_FALSE(b.Lookup(kHandoffQuery, common::Money::Zero(),
                        common::Money::Zero(), &miss)
                   .has_value());
  a.Insert(kHandoffQuery, "b", common::Money::Zero(), &miss);
  EXPECT_EQ(a.Size(), 1u);
  EXPECT_EQ(a.stats().evictions, 0u);
  auto hit = a.Lookup(kHandoffQuery);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->response, "b");
}

TEST(SemanticCache, MissHandleServesOnlyItsQueryOnce) {
  // A handle carries its query's embedding: passed with another query, or
  // a second time after Insert consumed it, it must be ignored, or the
  // entry would be stored under the wrong (or an empty) embedding.
  SemanticCache cache(SemanticCache::Options{});
  SemanticCache::Miss miss;
  ASSERT_FALSE(cache.Lookup(kHandoffQuery, common::Money::Zero(),
                            common::Money::Zero(), &miss)
                   .has_value());
  cache.Insert(kUnrelated[1], "salaries", common::Money::Zero(), &miss);
  auto other = cache.Lookup(kUnrelated[1]);
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->response, "salaries");
  EXPECT_FALSE(cache.Lookup(kHandoffQuery).has_value());

  ASSERT_FALSE(cache.Lookup(kHandoffQuery, common::Money::Zero(),
                            common::Money::Zero(), &miss)
                   .has_value());
  cache.Insert(kHandoffQuery, "a", common::Money::Zero(), &miss);
  cache.Insert(kHandoffQuery, "b", common::Money::Zero(), &miss);
  EXPECT_EQ(cache.Size(), 2u);
  auto hit = cache.Lookup(kHandoffQuery);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->response, "b");
  EXPECT_GT(hit->similarity, 0.999);
}

// ---- prompt store -----------------------------------------------------------------

TEST(PromptStore, SelectsSimilarExamples) {
  PromptStore store(PromptStore::Options{});
  store.Add("stadiums that had concerts in 2014", "SQL-concert-2014");
  store.Add("stadiums that had sports meetings in 2015", "SQL-meeting-2015");
  store.Add("patients with diabetes diagnosis", "SQL-patients");
  auto examples = store.Select("stadiums that had concerts in 2015", 2,
                               PromptStore::Selection::kSimilarity);
  ASSERT_EQ(examples.size(), 2u);
  EXPECT_NE(examples[0].output, "SQL-patients");
}

TEST(PromptStore, UtilityWeightingDemotesFailures) {
  PromptStore store(PromptStore::Options{});
  uint64_t bad = store.Add("stadiums that had concerts in 2014", "BAD");
  uint64_t good = store.Add("stadiums that had concerts in 2015", "GOOD");
  for (int i = 0; i < 20; ++i) {
    store.RecordOutcome(bad, false);
    store.RecordOutcome(good, true);
  }
  auto examples = store.Select("stadiums that had concerts in 2016", 1,
                               PromptStore::Selection::kUtilityWeighted);
  ASSERT_EQ(examples.size(), 1u);
  EXPECT_EQ(examples[0].output, "GOOD");
}

TEST(PromptStore, BudgetedRetentionEvicts) {
  // An evicted prompt leaves the store, however many adds came before: at
  // capacity 4, 1,000 adds leave four prompts that Get and Select still
  // find, and an evicted id neither comes back nor takes feedback.
  PromptStore::Options options;
  options.capacity = 4;
  PromptStore store(options);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(store.Add("historical prompt " + std::to_string(i),
                            "out " + std::to_string(i)));
    // Failures make retention choose by utility, not only by age.
    if (i % 3 == 0) store.RecordOutcome(ids.back(), false);
  }
  EXPECT_EQ(store.Size(), 4u);
  EXPECT_EQ(std::set<uint64_t>(ids.begin(), ids.end()).size(), ids.size());
  // A query near every prompt selects all four survivors.
  ASSERT_EQ(
      store.Select("historical prompt", 4, PromptStore::Selection::kSimilarity)
          .size(),
      4u);
  const std::vector<uint64_t> selected = store.last_selected_ids();
  const std::set<uint64_t> survivors(selected.begin(), selected.end());
  ASSERT_EQ(survivors.size(), 4u);
  std::vector<StoredPrompt> kept;
  for (uint64_t id : ids) {
    const std::optional<StoredPrompt> p = store.Get(id);
    ASSERT_EQ(p.has_value(), survivors.count(id) > 0) << "id " << id;
    if (!p.has_value()) continue;
    kept.push_back(*p);
    // Its own input selects it first.
    const auto examples =
        store.Select(p->input, 1, PromptStore::Selection::kSimilarity);
    ASSERT_EQ(examples.size(), 1u);
    EXPECT_EQ(examples[0].output, p->output);
  }
  for (uint64_t id : ids) {
    if (survivors.count(id) == 0) store.RecordOutcome(id, true);
  }
  EXPECT_EQ(store.Size(), 4u);
  for (const StoredPrompt& p : kept) {
    const std::optional<StoredPrompt> now = store.Get(p.id);
    ASSERT_TRUE(now.has_value());
    EXPECT_EQ(now->uses, p.uses);
    EXPECT_EQ(now->successes, p.successes);
  }
  for (uint64_t id : ids) {
    if (survivors.count(id) == 0) {
      EXPECT_FALSE(store.Get(id).has_value());
    }
  }
}

TEST(PromptStore, LastSelectedIdsAlignWithExamples) {
  PromptStore store(PromptStore::Options{});
  store.Add("a question about stadium concerts", "A");
  store.Add("another question about stadium concerts", "B");
  auto examples = store.Select("question about stadium concerts", 2,
                               PromptStore::Selection::kSimilarity);
  EXPECT_EQ(store.last_selected_ids().size(), examples.size());
  for (size_t i = 0; i < examples.size(); ++i) {
    const auto p = store.Get(store.last_selected_ids()[i]);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->output, examples[i].output);
  }
}

}  // namespace
}  // namespace llmdm::optimize
