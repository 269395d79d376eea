// The two workloads that cross the wire: NetServer -> serve::Server ->
// CachedLlm -> SemanticCache (-> DurableStore), driven over loopback by
// net::Client from this process.
#include <sys/prctl.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "common/hash.h"
#include "core/optimize/semantic_cache.h"
#include "durability/store.h"
#include "gen.h"
#include "llm/simulated.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "text/tokenizer.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace common = llmdm::common;
namespace durability = llmdm::durability;
namespace llm = llmdm::llm;
namespace net = llmdm::net;
namespace obs = llmdm::obs;
namespace optimize = llmdm::optimize;
namespace serve = llmdm::serve;

// Mean virtual gap between arrivals (seeded Poisson arrivals). The serve
// layer's admission model prices every request at its estimated service
// (about 80 virtual ms on sim-gpt-4 for these prompts) over 4 virtual slots,
// so one arrival per 40 virtual ms on average keeps the virtual queue near
// half utilisation: queue waits exist but stay bounded, and vlat_p99_ms
// means the same thing at any run length.
constexpr double kArrivalSpacingVms = 40.0;

// wire_unique: requests offered per --seconds (sized so one run takes about
// that long on a 4-core x86 host at the seed commit), and the virtual
// interval between checkpoints (one per ~1000 requests).
constexpr double kUniqueRequestsPerSecond = 17000.0;
constexpr double kCheckpointIntervalVms = 1000 * kArrivalSpacingVms;
constexpr size_t kUniqueWarmEntries = 256;  // = SemanticCache default capacity

// wire_zipf_cache: the fixed offered rate, the warm set, and the traffic mix.
// The rate is about a quarter of what this stack sustains (~7.7k/s on a
// 4-core x86 VM): an open loop near half load turns a slower stretch of a
// shared host into a queue, and latency then swings far more than the host
// did.
constexpr double kZipfOfferedRps = 2000.0;
// The warm set is bench_perf_hotpath's largest flat-lookup cell (4,096
// entries), and the exponent is ablation A3(b)'s Zipf stream
// (bench_ablation_cache). Three shards hold about 1,365 entries each: with
// two, a shard sits at 2,048 +- a few dozen rows, and whether its storage
// doubles during warm-up (moving rss_mb by megabytes) depends on the seed.
constexpr size_t kZipfWarmEntries = 4096;
constexpr size_t kZipfShards = 3;
constexpr double kZipfExponent = 1.0;
// Guesses, with no measurement or cited source behind them (NOTES.md lists
// them as open): the share of one-off queries, and the share of repeats
// that arrive reworded.
constexpr double kZipfOneOffShare = 0.005;
constexpr double kZipfParaphraseShare = 0.5;

// 1.5x the wire_unique spacing: with QoS on, a request the virtual queue
// holds back is released only by a later arrival, so its wall latency grows
// by whole inter-arrival gaps. At this spacing about 4% of requests queue:
// enough to make vlat_p99_ms a real queueing figure, few enough that p50 and
// p90 measure the cache path rather than that coupling.
constexpr double kZipfArrivalSpacingVms = 1.5 * kArrivalSpacingVms;

// Sender wake-up: sleep until this long before a request is due, then spin.
constexpr int64_t kSpinNs = 20'000;

// A run that is this many times slower than --seconds stops offering load
// (the unsent requests count as failed), so a wedged stack still exits.
constexpr double kMaxSlowdown = 8.0;

/// One request as the client saw it (answer text and model as hashes, so
/// the benchmark's own memory does not grow with the answers).
struct Outcome {
  bool ok = false;
  uint64_t text_hash = 0;
  uint64_t model_hash = 0;
  int64_t cost_micros = 0;
  int64_t done_ns = 0;
  double latency_us = 0.0;
  double latency_vms = 0.0;
  double queue_wait_vms = 0.0;
};

void Absorb(const common::Result<net::ClientResult>& result, Outcome* out) {
  if (!result.ok()) return;
  out->ok = result->status.ok() && !result->shed;
  out->text_hash = common::Fnv1a(result->text);
  out->model_hash = common::Fnv1a(result->model);
  out->cost_micros = result->cost.micros();
  out->latency_vms = result->latency_vms;
  out->queue_wait_vms = result->queue_wait_vms;
}

/// Everything one wire workload stands up. Members are declared in
/// construction order so destruction tears down the net edge first.
struct WireStack {
  std::vector<std::shared_ptr<llm::LlmModel>> models;
  std::unique_ptr<optimize::SemanticCache> cache;
  std::unique_ptr<durability::DurableStore> store;
  std::string store_dir;
  CallTimes model_times;  // inside CachedLlm: the endpoint
  CallTimes cached_times;  // outside CachedLlm: hit or miss + probe/insert
  // Maintenance hook state (written only on the admission path).
  int64_t wal_bytes = 0;
  std::vector<double> checkpoint_us;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<net::NetServer> net_server;

  ~WireStack() {
    if (net_server != nullptr) net_server->Shutdown();
    if (server != nullptr) server->Drain();
  }
};

struct WireSpec {
  optimize::SemanticCache::Options cache;
  bool durable = false;
  serve::QosOptions qos;
  /// Warm entries: query -> answer (the endpoint's own completion).
  const std::vector<std::string>* warm = nullptr;
};

std::unique_ptr<WireStack> BuildWireStack(const WireSpec& spec,
                                          const RunConfig& config,
                                          const std::string& store_dir,
                                          Report* report) {
  auto stack = std::make_unique<WireStack>();
  stack->models = llm::CreatePaperModelLadder(nullptr, kModelSeed);
  std::shared_ptr<llm::LlmModel> endpoint = stack->models[2];
  stack->cache = std::make_unique<optimize::SemanticCache>(spec.cache);

  if (spec.durable) {
    std::filesystem::remove_all(store_dir);
    std::filesystem::create_directories(store_dir);
    stack->store_dir = store_dir;
    durability::DurableStore::Options so;
    so.dir = store_dir;
    so.name = "cache";
    // The store stands in for one on tmpfs: writes reach the page cache
    // and fsync is skipped, so device flush latency does not swamp the
    // write path this workload measures.
    so.fsync = false;
    auto opened = durability::DurableStore::Open(so, stack->cache.get());
    if (!opened.ok()) {
      report->Fail("store open: " + opened.status().ToString());
      return nullptr;
    }
    stack->store = std::move(*opened);
    stack->cache->AttachDurability(stack->store.get());
  }

  for (const std::string& query : *spec.warm) {
    auto answer = endpoint->Complete(llm::MakePrompt("freeform", query));
    if (!answer.ok()) {
      report->Fail("warm-up completion failed");
      return nullptr;
    }
    stack->cache->Insert(query, answer->text, answer->cost);
  }
  if (stack->store != nullptr) {
    if (!stack->store->Checkpoint().ok()) {
      report->Fail("setup checkpoint failed");
      return nullptr;
    }
    stack->wal_bytes = -static_cast<int64_t>(stack->store->wal_size_bytes());
  }

  std::shared_ptr<llm::LlmModel> inner = endpoint;
  if (config.trace) {
    inner = std::make_shared<TimingLlm>(inner, &stack->model_times);
  }
  std::shared_ptr<llm::LlmModel> model =
      std::make_shared<optimize::CachedLlm>(inner, stack->cache.get());
  if (config.trace) {
    model = std::make_shared<TimingLlm>(model, &stack->cached_times);
  }

  serve::Server::Options so;
  so.worker_threads = 2;
  so.shed_policy = serve::ShedPolicy::kNone;
  so.retain_responses = false;  // NetServer drains through the sink
  so.qos = spec.qos;
  if (stack->store != nullptr) {
    WireStack* s = stack.get();
    const bool trace = config.trace;
    so.maintenance_interval_vms = kCheckpointIntervalVms;
    so.maintenance_hook = [s, trace] {
      // Runs under the admission lock on the net loop thread.
      s->wal_bytes += static_cast<int64_t>(s->store->wal_size_bytes());
      const int64_t t0 = trace ? NowNs() : 0;
      s->store->Checkpoint().ok();
      if (trace) s->checkpoint_us.push_back((NowNs() - t0) / 1e3);
    };
  }
  stack->server = std::make_unique<serve::Server>(model, so);
  stack->net_server = std::make_unique<net::NetServer>(
      stack->server.get(), net::NetServer::Options{});
  common::Status started = stack->net_server->Start();
  if (!started.ok()) {
    report->Fail("net start: " + started.ToString());
    return nullptr;
  }
  return stack;
}

/// Builds the stack and reports how long that took through `setup_s`.
std::unique_ptr<WireStack> SetUp(const WireSpec& spec, const RunConfig& config,
                                 Report* report, double* setup_s) {
  const int64_t t0 = NowNs();
  std::unique_ptr<WireStack> stack =
      BuildWireStack(spec, config, config.workdir + "/store", report);
  *setup_s = (NowNs() - t0) / 1e9;
  return stack;
}

/// Drops the run's stack, then replaces setup_s with the median over it and
/// kSetUps - 1 more builds (untraced runs only: traced ones do not report it).
void FinishSetUpTime(std::unique_ptr<WireStack>* stack, const WireSpec& spec,
                     const RunConfig& config, double setup_s, Report* report) {
  stack->reset();
  if (config.trace) return;
  report->Set("setup_s", MedianSetUpS(setup_s, [&] {
                return BuildWireStack(spec, config, config.workdir + "/store",
                                      report);
              }),
              "s");
}

/// Gates shared by both wire workloads once the load has stopped: a clean
/// drain, wire/meter agreement, and every miss equal to the twin's answer.
/// `expect_hit(i)` says whether request i must come from the cache; hits
/// are checked by `check_hit`.
void CheckWireRun(WireStack* stack, const std::vector<serve::Request>& sent,
                  const std::vector<Outcome>& outcomes, Report* report,
                  const std::function<bool(size_t)>& expect_hit,
                  const std::function<bool(size_t, const Outcome&)>& check_hit) {
  stack->net_server->Shutdown();
  const net::NetStats stats = stack->net_server->stats();
  if (stats.drain_forced_closes != 0) {
    report->Fail("drain: " + std::to_string(stats.drain_forced_closes) +
                 " forced closes");
  }
  stack->server->Drain();

  const uint64_t cache_model =
      common::Fnv1a(stack->models[2]->name() + "+cache");
  int64_t received_spend = 0;
  std::vector<serve::Request> misses;
  std::vector<size_t> miss_index;
  for (size_t i = 0; i < sent.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (!o.ok) {
      report->Fail("request " + std::to_string(sent[i].id) + " not answered OK");
      continue;
    }
    received_spend += o.cost_micros;
    report->answers_digest +=
        MixOutcome(sent[i].id, o.text_hash, o.model_hash, o.cost_micros);
    const bool hit = o.model_hash == cache_model;
    if (hit != expect_hit(i)) {
      report->Fail("request " + std::to_string(sent[i].id) +
                   (hit ? " hit the cache unexpectedly" : " missed the cache"));
      continue;
    }
    if (hit) {
      if (!check_hit(i, o)) {
        report->Fail("request " + std::to_string(sent[i].id) +
                     " got another query's cached answer");
      }
      continue;
    }
    misses.push_back(sent[i]);
    miss_index.push_back(i);
  }
  report->spend_micros = stack->server->meter().cost().micros();
  if (report->spend_micros != received_spend) {
    report->Fail("meter spend differs from the spend received over the wire");
  }

  // Every miss must equal a direct Submit() on a cache-less twin.
  std::vector<int> twin_ok(misses.size(), 0);
  std::unordered_map<uint64_t, size_t> slot_of;
  for (size_t k = 0; k < misses.size(); ++k) slot_of[misses[k].id] = k;
  auto twin_model = llm::CreatePaperModelLadder(nullptr, kModelSeed)[2];
  SubmitToTwin(twin_model, misses, [&](const serve::Response& r) {
    const size_t k = slot_of.at(r.id);
    const Outcome& o = outcomes[miss_index[k]];
    twin_ok[k] = r.status.ok() && common::Fnv1a(r.text) == o.text_hash &&
                 common::Fnv1a(r.model) == o.model_hash &&
                 r.cost.micros() == o.cost_micros;
  });
  for (size_t k = 0; k < misses.size(); ++k) {
    if (twin_ok[k] == 0) {
      report->Fail("request " + std::to_string(misses[k].id) +
                   " differs from the cache-less twin");
    }
  }
}

/// Fills the metrics both wire workloads share.
void WireMetrics(WireStack* stack, const std::vector<serve::Request>& sent,
                 const std::vector<Outcome>& outcomes, int64_t start_ns,
                 int64_t end_ns, double setup_s, double rss_mb, bool trace,
                 const llmdm::text::TokenCountCacheStats& tokens_before,
                 const optimize::SemanticCache::Stats& cache_before,
                 Report* report) {
  std::vector<double> lat_us, vlat, qwait;
  std::vector<Sample> samples;
  size_t ok = 0;
  for (const Outcome& o : outcomes) {
    if (!o.ok) continue;
    ++ok;
    samples.push_back(Sample{o.done_ns, o.latency_us});
    lat_us.push_back(o.latency_us);
    vlat.push_back(o.latency_vms);
    qwait.push_back(o.queue_wait_vms);
  }
  const WallStats wall = SegmentedWallStats(samples, start_ns, end_ns);
  report->attempted = sent.size();
  report->latency_samples = ok;
  report->Set("rps", wall.rps, "1/s");
  report->Set("p50_us", wall.p50_us, "us");
  report->Set("p90_us", wall.p90_us, "us");
  report->Set("vlat_p99_ms", Percentile(&vlat, 0.99), "ms");
  report->Set("usd_per_1k",
              ok == 0 ? 0.0 : report->spend_micros / 1e6 / ok * 1000.0, "usd");
  report->Set("setup_s", setup_s, "s");
  report->Set("rss_mb", rss_mb, "MB");
  if (!trace) return;

  // ---- per-layer ----
  const double rtt = Mean(lat_us);
  obs::Histogram::Snapshot served =
      stack->net_server->registry()
          ->GetHistogram("llmdm_net_request_wall_us", {}, {})
          ->TakeSnapshot();
  const double server_wall =
      served.count == 0 ? 0.0 : served.sum() / served.count;
  const net::NetStats ns = stack->net_server->stats();
  report->Set("net.client_rtt_us", rtt, "us");
  report->Set("net.server_wall_us", server_wall, "us");
  report->Set("net.transport_us", rtt - server_wall, "us");
  report->Set("net.bytes_per_req",
              ns.requests_rx == 0
                  ? 0.0
                  : static_cast<double>(ns.bytes_rx + ns.bytes_tx) /
                        ns.requests_rx,
              "B");

  std::vector<net::WireRequest> frames;
  std::vector<std::string> inputs;
  for (size_t i = 0; i < sent.size() && i < 2048; ++i) {
    net::WireRequest w;
    w.id = sent[i].id;
    w.tenant = sent[i].tenant;
    w.skill = sent[i].skill;
    w.input = sent[i].input;
    w.arrival_vms = sent[i].arrival_vms;
    frames.push_back(std::move(w));
    inputs.push_back(sent[i].input);
  }
  report->Set("net.codec_ns_per_frame", CodecNsPerFrame(frames), "ns");

  const CallTimes& outer = stack->cached_times;
  const CallTimes& inner = stack->model_times;
  const uint64_t hits = outer.hit_calls.load();
  const uint64_t misses = outer.calls.load() - hits;
  const double hit_us = hits == 0 ? 0.0 : outer.hit_ns.load() / 1e3 / hits;
  const double miss_overhead_us =
      misses == 0 ? 0.0
                  : (static_cast<double>(outer.ns.load() - outer.hit_ns.load()) -
                     static_cast<double>(inner.ns.load())) /
                        1e3 / misses;
  const optimize::SemanticCache::Stats cs = stack->cache->stats();
  const size_t lookups = cs.lookups - cache_before.lookups;
  report->Set("optimize.hit_us", hit_us, "us");
  report->Set("optimize.miss_overhead_us", miss_overhead_us, "us");
  report->Set("optimize.hit_ratio",
              lookups == 0 ? 0.0
                           : static_cast<double>(cs.hits - cache_before.hits) /
                                 lookups,
              "ratio");
  const double embed_us = EmbedUs(inputs);
  const size_t shard_rows =
      std::max<size_t>(1, stack->cache->Size() / stack->cache->num_shards());
  std::vector<std::string> scan_queries(
      inputs.begin(), inputs.begin() + std::min<size_t>(inputs.size(), 256));
  const double scan_us = ScanUs(inputs, shard_rows, scan_queries);
  report->Set("embed.embed_us", embed_us, "us");
  report->Set("vectordb.scan_us", scan_us, "us");
  report->Set("optimize.unattributed_us",
              hits == 0 ? 0.0 : hit_us - embed_us - scan_us, "us");

  std::vector<double> qw = qwait;
  report->Set("serve.queue_wait_vms_p99", Percentile(&qw, 0.99), "ms");
  report->Set("llm.model_us",
              inner.calls.load() == 0 ? 0.0
                                      : inner.ns.load() / 1e3 / inner.calls.load(),
              "us");
  report->Set("llm.calls", static_cast<double>(inner.calls.load()), "count");
  report->Set("text.token_cache_hit_ratio", TokenCacheHitRatio(tokens_before),
              "ratio");
}

/// Durability gates and metrics after the load: WAL bytes per request, the
/// checkpoint cost, and a recovery into a fresh cache that must reproduce
/// the live cache's size and snapshot bytes exactly.
void CheckRecovery(WireStack* stack, const WireSpec& spec, size_t requests,
                   bool trace, Report* report) {
  stack->wal_bytes += static_cast<int64_t>(stack->store->wal_size_bytes());
  std::string live;
  if (!stack->cache->SaveSnapshot(&live).ok()) {
    report->Fail("live snapshot failed");
    return;
  }
  const size_t live_size = stack->cache->Size();
  stack->cache->AttachDurability(nullptr);
  stack->store.reset();

  optimize::SemanticCache recovered(spec.cache);
  durability::DurableStore::Options so;
  so.dir = stack->store_dir;
  so.name = "cache";
  so.fsync = false;
  const int64_t t0 = NowNs();
  auto reopened = durability::DurableStore::Open(so, &recovered);
  const double recover_ms = (NowNs() - t0) / 1e6;
  std::string replayed;
  if (!reopened.ok() || !recovered.SaveSnapshot(&replayed).ok()) {
    report->Fail("recovery failed");
  } else if (recovered.Size() != live_size || replayed != live) {
    report->Fail("recovered cache differs from the live cache");
  }
  if (!trace) return;
  report->Set("durability.wal_bytes_per_req",
              static_cast<double>(stack->wal_bytes) / std::max<size_t>(1, requests),
              "B");
  report->Set("durability.checkpoint_us", Mean(stack->checkpoint_us), "us");
  report->Set("durability.recover_ms", recover_ms, "ms");
}

}  // namespace

Report RunWireUnique(const RunConfig& config) {
  Report report;
  common::Rng rng(config.seed);
  std::unordered_set<std::string> used;
  const std::vector<std::string> vocab = MakeVocab(rng, 4000, &used);
  std::vector<std::string> warm;
  for (size_t i = 0; i < kUniqueWarmEntries; ++i) {
    warm.push_back(Sentence(rng, vocab, 10, 16));
  }

  // Two connections, each a closed loop over its own seeded prompt stream.
  constexpr size_t kConnections = 2;
  const size_t per_conn = std::max<size_t>(
      1, static_cast<size_t>(kUniqueRequestsPerSecond * config.seconds /
                             kConnections));
  // One Poisson arrival sequence, taken in send order by whichever
  // connection sends next. NetServer clamps arrivals forward across
  // connections; stamping at send time keeps the stream it sees close to
  // the generated sequence however the two loops race (pre-assigned
  // per-connection stamps turned every stall of one connection into a
  // virtual burst). Which prompt gets which stamp follows the race, so
  // wire_unique's virtual latencies vary slightly between runs.
  std::vector<serve::Request> sent(per_conn * kConnections);
  std::vector<double> arrivals(sent.size());
  double arrival = 0.0;
  for (double& a : arrivals) {
    arrival += rng.Exponential(1.0 / kArrivalSpacingVms);
    a = arrival;
  }
  std::atomic<size_t> next_arrival{0};
  for (size_t c = 0; c < kConnections; ++c) {
    common::Rng conn_rng = rng.Fork(c + 1);
    for (size_t k = 0; k < per_conn; ++k) {
      serve::Request& r = sent[k * kConnections + c];
      r.id = ((c + 1) << 32) | k;
      r.input = Sentence(conn_rng, vocab, 10, 16);
    }
  }
  std::vector<Outcome> outcomes(sent.size());

  WireSpec spec;
  spec.durable = true;
  spec.warm = &warm;
  // SemanticCache defaults: flat index, one shard, 256 entries — already
  // full after warm-up, so every request inserts and evicts.
  const double rss_base_mb = ResetPeakRss();
  double setup_s = 0.0;
  std::unique_ptr<WireStack> stack = SetUp(spec, config, &report, &setup_s);
  if (stack == nullptr) return report;
  const auto tokens_before = llmdm::text::GetTokenCountCacheStats();
  const auto cache_before = stack->cache->stats();
  const uint16_t port = stack->net_server->port();
  const int64_t start = NowNs();
  const int64_t give_up = start + static_cast<int64_t>(
                                      config.seconds * kMaxSlowdown * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      net::Client client;
      net::Client::Options co;
      co.port = port;
      if (!client.Connect(co).ok()) return;
      for (size_t k = 0; k < per_conn && NowNs() < give_up; ++k) {
        const size_t i = k * kConnections + c;
        net::WireRequest w;
        w.id = sent[i].id;
        w.input = sent[i].input;
        w.arrival_vms = arrivals[next_arrival.fetch_add(1)];
        sent[i].arrival_vms = w.arrival_vms;
        const int64_t t0 = NowNs();
        auto result = client.Call(w);
        outcomes[i].done_ns = NowNs();
        outcomes[i].latency_us = (outcomes[i].done_ns - t0) / 1e3;
        Absorb(result, &outcomes[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const int64_t end = NowNs();
  const double rss_mb = PeakRssMb() - rss_base_mb;

  CheckWireRun(
      stack.get(), sent, outcomes, &report, [](size_t) { return false; },
      [](size_t, const Outcome&) { return false; });
  WireMetrics(stack.get(), sent, outcomes, start, end, setup_s, rss_mb,
              config.trace, tokens_before, cache_before, &report);
  CheckRecovery(stack.get(), spec, sent.size(), config.trace, &report);
  const std::string store_dir = stack->store_dir;
  FinishSetUpTime(&stack, spec, config, setup_s, &report);
  std::filesystem::remove_all(store_dir);
  return report;
}

Report RunWireZipfCache(const RunConfig& config) {
  Report report;
  common::Rng rng(config.seed);
  std::unordered_set<std::string> used;
  const std::vector<std::string> warm_vocab = MakeVocab(rng, 3000, &used);
  const std::vector<std::string> oneoff_vocab = MakeVocab(rng, 3000, &used);
  std::vector<std::string> warm;
  std::unordered_set<std::string> seen;
  while (warm.size() < kZipfWarmEntries) {
    std::string q = Sentence(rng, warm_vocab, 8, 14);
    if (seen.insert(q).second) warm.push_back(std::move(q));
  }

  // The request stream: Zipf-ranked repeats of warm queries (verbatim or
  // paraphrased) plus one-off queries that never recur.
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>(kZipfOfferedRps * config.seconds));
  std::vector<uint64_t> rank_to_warm(kZipfWarmEntries);
  for (size_t i = 0; i < kZipfWarmEntries; ++i) rank_to_warm[i] = i;
  rng.Shuffle(rank_to_warm);
  const char* kTenants[] = {"gold", "silver", "bronze"};
  std::vector<serve::Request> sent(n);
  std::vector<int64_t> source(n, -1);  // warm index, or -1 for a one-off
  std::vector<bool> paraphrased(n, false);
  size_t oneoffs = 0;
  double arrival = 0.0;
  for (size_t i = 0; i < n; ++i) {
    serve::Request& r = sent[i];
    r.id = 9'000'000'000ull + i;
    const double t = rng.UniformDouble();
    r.tenant = kTenants[t < 0.5 ? 0 : (t < 0.8 ? 1 : 2)];
    arrival += rng.Exponential(1.0 / kZipfArrivalSpacingVms);
    // With QoS on, admitted work is dispatched only when a later arrival
    // moves the virtual clock past its virtual start. The stream therefore
    // ends with a quiet virtual gap, so the last arrival releases every
    // request still queued instead of leaving it for the drain.
    if (i + 1 == n) arrival += 100 * kZipfArrivalSpacingVms;
    r.arrival_vms = arrival;
    // Exactly kZipfOneOffShare of the stream, evenly spread, so the cache
    // grows by the same amount in every run.
    if (std::floor((i + 1) * kZipfOneOffShare) > std::floor(i * kZipfOneOffShare)) {
      r.input = Sentence(rng, oneoff_vocab, 10, 16);
      ++oneoffs;
      continue;
    }
    source[i] = static_cast<int64_t>(
        rank_to_warm[rng.Zipf(kZipfWarmEntries, kZipfExponent)]);
    paraphrased[i] = rng.Bernoulli(kZipfParaphraseShare);
  }

  WireSpec spec;
  spec.warm = &warm;
  spec.cache.num_shards = kZipfShards;
  // Every shard can hold the whole warm set plus every one-off, so nothing
  // is ever evicted and hit/miss never depends on thread timing.
  spec.cache.capacity = kZipfShards * (kZipfWarmEntries + oneoffs);
  // Three weighted tenants under quotas far above the offered load, so the
  // SubmitQos path runs and nothing is shed.
  for (size_t t = 0; t < 3; ++t) {
    serve::TenantConfig tc;
    tc.id = kTenants[t];
    tc.weight = static_cast<double>(4 >> t);
    tc.quota_tokens_per_vs = 1e9;
    tc.queue_limit = 1u << 20;
    spec.qos.tenants.push_back(tc);
  }

  // Paraphrases are picked so they hit their own source: similar enough,
  // and (the cache shards by query hash) routed to the source's shard. A
  // scratch cache with the same options decides; a warm query without such
  // a paraphrase is repeated verbatim instead.
  std::vector<std::string> paraphrase(kZipfWarmEntries);
  {
    optimize::SemanticCache scratch(spec.cache);
    for (const std::string& q : warm) scratch.Insert(q, q);
    llmdm::embed::HashingEmbedder embedder;
    for (size_t w = 0; w < kZipfWarmEntries; ++w) {
      for (int attempt = 0; attempt < 8 && paraphrase[w].empty(); ++attempt) {
        std::string p =
            Paraphrase(rng, warm[w], embedder, 0.95);
        auto hit = scratch.Lookup(p);
        if (hit.has_value() && hit->query == warm[w]) paraphrase[w] = p;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (source[i] < 0) continue;
    const std::string& p = paraphrase[source[i]];
    sent[i].input = paraphrased[i] && !p.empty() ? p : warm[source[i]];
  }

  // The warm answers, for the hit gate.
  std::vector<uint64_t> warm_answer(kZipfWarmEntries);
  {
    auto endpoint = llm::CreatePaperModelLadder(nullptr, kModelSeed)[2];
    for (size_t w = 0; w < kZipfWarmEntries; ++w) {
      auto answer = endpoint->Complete(llm::MakePrompt("freeform", warm[w]));
      if (answer.ok()) warm_answer[w] = common::Fnv1a(answer->text);
    }
  }

  std::vector<net::WireRequest> wire(n);
  for (size_t i = 0; i < n; ++i) {
    wire[i].id = sent[i].id;
    wire[i].tenant = sent[i].tenant;
    wire[i].input = sent[i].input;
    wire[i].arrival_vms = sent[i].arrival_vms;
  }
  std::vector<Outcome> outcomes(n);
  std::vector<double> late_us(n, 0.0);

  const double rss_base_mb = ResetPeakRss();
  double setup_s = 0.0;
  std::unique_ptr<WireStack> stack = SetUp(spec, config, &report, &setup_s);
  if (stack == nullptr) return report;
  const auto tokens_before = llmdm::text::GetTokenCountCacheStats();
  const auto cache_before = stack->cache->stats();

  net::Client client;
  net::Client::Options co;
  co.port = stack->net_server->port();
  if (!client.Connect(co).ok()) {
    report.Fail("connect failed");
    return report;
  }
  const int64_t interval_ns = static_cast<int64_t>(1e9 / kZipfOfferedRps);
  const int64_t start = NowNs() + 2'000'000;
  const int64_t give_up =
      start + static_cast<int64_t>(config.seconds * kMaxSlowdown * 1e9);
  std::thread sender([&] {
    // Fine timer slack so a sleep ends close to when it was asked to.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    for (size_t i = 0; i < n; ++i) {
      const int64_t due = start + static_cast<int64_t>(i) * interval_ns;
      int64_t now = NowNs();
      if (now > give_up) break;
      if (now < due - kSpinNs) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - kSpinNs - now));
      }
      while ((now = NowNs()) < due) {
      }
      late_us[i] = (now - due) / 1e3;
      if (!client.Send(wire[i]).ok()) break;
    }
  });
  int64_t last_recv = start;
  for (size_t received = 0; received < n; ++received) {
    auto result = client.Receive();
    last_recv = NowNs();
    if (!result.ok()) break;
    const uint64_t i = result->id - sent[0].id;
    if (i >= n) break;
    const int64_t due = start + static_cast<int64_t>(i) * interval_ns;
    outcomes[i].done_ns = last_recv;
    outcomes[i].latency_us = (last_recv - due) / 1e3;
    Absorb(result, &outcomes[i]);
  }
  sender.join();
  client.Close();
  const double rss_mb = PeakRssMb() - rss_base_mb;

  CheckWireRun(
      stack.get(), sent, outcomes, &report,
      [&](size_t i) { return source[i] >= 0; },
      [&](size_t i, const Outcome& o) {
        return o.text_hash == warm_answer[source[i]];
      });
  if (stack->cache->stats().evictions != 0) {
    report.Fail("the zipf cache evicted entries");
  }
  WireMetrics(stack.get(), sent, outcomes, start, last_recv, setup_s, rss_mb,
              config.trace, tokens_before, cache_before, &report);
  if (config.trace) {
    report.Set("loadgen.late_p99_us", Percentile(&late_us, 0.99), "us");
  }
  FinishSetUpTime(&stack, spec, config, setup_s, &report);
  return report;
}

}  // namespace perfbench
