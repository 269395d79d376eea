#ifndef LLMDM_SERVE_SERVER_H_
#define LLMDM_SERVE_SERVER_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/money.h"
#include "common/status.h"
#include "llm/model.h"
#include "llm/usage.h"
#include "obs/metrics.h"
#include "serve/clock.h"
#include "serve/qos.h"

namespace llmdm::obs {
class TraceContext;  // see obs/trace.h
}  // namespace llmdm::obs

namespace llmdm::serve {

/// What the admission controller does when the queue model says a new
/// request cannot start soon.
enum class ShedPolicy {
  /// Admit everything (unbounded queue): the baseline whose p99 collapses
  /// under overload — every admitted request waits behind the whole backlog.
  kNone,
  /// Reject (kResourceExhausted + retry-after hint) once the number of
  /// waiting requests reaches Options::queue_depth.
  kQueueFull,
  /// kQueueFull, plus: reject a request whose estimated queue wait already
  /// exceeds its own deadline — it would be dead on arrival, so shedding it
  /// at the door costs nothing and frees its slot for a request that can
  /// still make it.
  kDeadlineAware,
};

/// Why a request was refused at the door. Distinguishing the causes matters
/// for the retry hint: a queue-shed request should come back when a slot
/// frees (global state), a quota-shed request when *its own tenant's* bucket
/// has refilled — retrying sooner is guaranteed to be refused again.
enum class ShedCause {
  kNone,      // not shed
  kQueue,     // queue (or tenant queue share) full
  kDeadline,  // kDeadlineAware: estimated wait already exceeds the deadline
  kQuota,     // tenant token-bucket quota exhausted
};

/// One unit of offered load. `arrival_vms` is the request's arrival in
/// simulated time (assigned by the workload generator); Submit() must be
/// called in non-decreasing arrival order.
struct Request {
  uint64_t id = 0;
  std::string skill = "freeform";
  std::string input;
  /// Who is asking. Only consulted when the server has tenants configured
  /// (Options::qos); unknown or empty ids fall back to the catch-all
  /// "default" tenant. Propagated onto the prompt (llm::Prompt::tenant_id),
  /// trace spans, and every per-tenant metric label.
  TenantId tenant;
  /// Request-wide budget in simulated ms (0 = none). Queue wait spends it
  /// first; the remainder rides the prompt as an llm::Deadline.
  double deadline_ms = 0.0;
  double arrival_vms = 0.0;
};

/// Outcome of one request, in virtual time. Shed requests get a response
/// too (status kResourceExhausted), so offered load == |responses|.
struct Response {
  uint64_t id = 0;
  TenantId tenant;  // copied from the request
  common::Status status;
  std::string text;
  std::string model;
  common::Money cost;
  double queue_wait_vms = 0.0;
  double service_vms = 0.0;  // execution (incl. hedge overlap), virtual ms
  double latency_vms = 0.0;  // queue_wait + service
  bool shed = false;
  ShedCause shed_cause = ShedCause::kNone;
  /// When shed: simulated ms after arrival at which retrying has a chance.
  /// Cause-specific: for queue sheds, the earliest virtual slot becoming
  /// free; for quota sheds, when the tenant's own bucket has refilled enough
  /// to admit a request of this size.
  double retry_after_vms = 0.0;
  bool deadline_missed = false;
  bool hedged = false;     // a hedge attempt was launched
  bool hedge_won = false;  // ...and it beat the primary
  /// Single-flight: this request was collapsed onto an identical in-flight
  /// leader call and served the leader's completion at zero marginal cost.
  bool coalesced = false;
  /// Span tree of this request (queue → attempt → retry → cache probe ...),
  /// populated when Options::tracing is on; null otherwise. Exportable as
  /// JSON via obs::TraceContext::ToJson.
  std::shared_ptr<obs::TraceContext> trace;
};

/// Per-request outcome of a batched admission-time cache probe (see
/// Server::Options::batch_probe). A hit short-circuits admission entirely:
/// the request is answered on the submitting thread with `response`/`model`
/// at zero cost, never touching the virtual queue or the endpoint.
struct BatchProbeOutcome {
  bool hit = false;
  std::string response;
  std::string model;
};

/// Batched cache probe: called once per SubmitBatch with the whole batch
/// (arrival order preserved), returns one outcome per request. Every hit or
/// miss is fixed before the batch's first admission decision. See
/// optimize::MakeBatchCacheProbe, which looks the requests up one by one.
using BatchCacheProbe =
    std::function<std::vector<BatchProbeOutcome>(const std::vector<const Request*>&)>;

/// Aggregate serving metrics, valid after Drain().
struct ServerStats {
  size_t submitted = 0;
  size_t admitted = 0;
  size_t shed = 0;
  size_t completed = 0;  // admitted requests that produced an OK completion
  size_t failed = 0;     // admitted requests whose every attempt failed
  size_t deadline_missed = 0;
  size_t hedges_launched = 0;
  size_t hedge_wins = 0;
  /// Requests collapsed onto an identical in-flight call (single-flight).
  size_t coalesced = 0;
  /// Requests answered by the admission-time batched cache probe
  /// (Options::batch_probe) — served at zero cost without entering the
  /// virtual queue. Counted in both submitted and admitted.
  size_t cache_probe_hits = 0;
  /// Continuous batching (Options::batching): model-boundary batches closed
  /// and the requests they carried.
  size_t batches_closed = 0;
  size_t batched_requests = 0;
  /// Input tokens the batches served from the shared-prefix KV cache, and
  /// the list-price spend that avoided (views over the llmdm_batch_*
  /// counters; the meter's BatchStats ledger itemizes the same per model).
  size_t prefix_cached_tokens = 0;
  common::Money prefix_saved;
  /// Spend of losing hedge attempts: paid to the endpoint, never committed
  /// to the main meter (the virtual cancellation arrived too late).
  common::Money hedge_cancelled_cost;
  double p50_latency_vms = 0.0;  // over non-shed responses
  double p99_latency_vms = 0.0;
  double max_queue_len = 0.0;
  /// Completions that were OK *and* inside their deadline, per virtual
  /// second — the number that collapses when an unbounded queue melts down.
  double goodput_per_vs = 0.0;
};

/// Per-tenant serving metrics (QoS mode), valid after Drain(). Like
/// ServerStats, a read-time view over the registry's {tenant=...} series
/// plus a per-response scan for the SLO/latency fields.
struct TenantStats {
  TenantId tenant;
  size_t submitted = 0;
  size_t admitted = 0;   // includes coalesced followers
  size_t coalesced = 0;
  /// Requests answered by the admission-time batch cache probe on this
  /// tenant's behalf (counted in admitted, charged against its quota).
  size_t cache_probe_hits = 0;
  size_t shed_quota = 0;
  size_t shed_queue = 0;
  size_t completed = 0;
  size_t failed = 0;
  size_t deadline_missed = 0;
  /// Committed spend of this tenant's winning attempts (the ledger a
  /// per-tenant bill is cut from).
  common::Money spend;
  /// OK completions inside their deadline / submitted — the per-tenant SLO
  /// attainment the overload bench enforces bounds on. Requests without a
  /// deadline count as attained when they complete OK.
  double slo_attainment = 0.0;
  double p99_latency_vms = 0.0;  // over this tenant's non-shed responses
};

/// A multi-threaded request scheduler in front of one (typically resilient)
/// LLM endpoint: bounded admission queue, deadline-aware load shedding, and
/// hedged requests.
///
/// Determinism: admission decisions are made synchronously in Submit(),
/// in arrival order, against a virtual queue model fed by *estimated*
/// service times (spec latency x estimated tokens) — exactly the
/// information a real admission controller has. Execution then happens on
/// real worker threads, but every per-request output (completion text,
/// virtual latency, hedge outcome) is a pure function of the request and
/// its admission-time state, so Drain()'s id-sorted responses and the
/// aggregate stats are byte-stable across runs and thread counts. That
/// guarantee is only as strong as the endpoint's own purity: a decorator
/// with shared reactive state — e.g. a CircuitBreaker that actually trips —
/// makes per-request outcomes depend on real completion order again.
///
/// Hedging: when a request's actual service latency exceeds the seeded
/// percentile (Options::hedge_percentile) of estimated service times of
/// requests admitted so far — or its primary attempt fails outright — a
/// second attempt races on the hedge model. The attempt with the earliest
/// virtual finish wins; only the winner's scratch meter is committed
/// (UsageMeter::MergeFrom), the loser's spend is booked as
/// hedge_cancelled_cost.
///
/// Single-flight (Options::single_flight): coalescing is *decided* in
/// Submit() against the virtual queue model — a request coalesces iff its
/// arrival precedes the leader's estimated virtual finish — never by real
/// thread timing, so which requests coalesce is byte-stable across runs and
/// worker counts. A follower never takes a worker: admission attaches it to
/// the leader's flight, and the leader's worker answers it right after
/// publishing the leader's outcome. A follower whose leader has already
/// published is answered on the submitting thread, like a shed. Workers
/// only run model calls, and nothing in the pool waits on another request.
///
/// Multi-tenant QoS (Options::qos, see qos.h): with tenants configured,
/// Submit() charges the request's tenant token bucket (quota-shed with a
/// bucket-refill retry hint when empty), bounds the tenant's queue share
/// (queue-shed with the global slot hint), and parks admitted work in the
/// tenant's FIFO inside a WeightedFairScheduler. Virtual dispatch — which
/// request gets the next free virtual slot, DRR over tenant weights with
/// priority aging — happens inside Submit()/Drain() under the admission
/// lock, in arrival order, so every scheduling decision is as deterministic
/// as legacy admission. Real workers only ever execute work whose virtual
/// start, queue wait and hedge trigger were already fixed at dispatch.
/// Single-flight composes: flights register at dispatch (not admission), so
/// only a dispatched leader can absorb a later arrival.
class Server {
 public:
  struct Options {
    /// Real worker threads executing admitted requests.
    size_t worker_threads = 4;
    /// Simulated parallel model slots in the virtual queue model.
    size_t virtual_concurrency = 4;
    /// Waiting-request bound for kQueueFull / kDeadlineAware.
    size_t queue_depth = 32;
    ShedPolicy shed_policy = ShedPolicy::kQueueFull;
    bool hedging = false;
    /// Estimated-service-time percentile after which a hedge launches.
    double hedge_percentile = 0.95;
    /// Expected completion length used in service-time estimation.
    size_t est_output_tokens = 48;
    /// Single-flight request coalescing: a request whose (skill, input)
    /// matches a call still in flight (by the virtual queue model) does not
    /// occupy a slot, a worker or the endpoint — it rides the leader's
    /// flight and is served the leader's completion. Only the leader's spend
    /// is committed to the meter; followers are itemized in
    /// UsageMeter::coalesce_stats().
    /// Note followers deliberately lose per-request sampling independence:
    /// identical concurrent queries get byte-identical answers.
    bool single_flight = false;
    /// Continuous batching at the model boundary: admitted work accumulates
    /// in a per-model open batch that closes on size (max_batch), when a
    /// later arrival crosses the batch's virtual-time window deadline
    /// (first member's arrival + batch_window_vms), or at Drain(). A closed
    /// batch executes as one LlmModel::CompleteBatch call, so an endpoint
    /// with a KV-cache cost model (SimulatedLlm +
    /// ModelSpec::cached_input_price_per_1k) prices each member's longest
    /// prompt prefix shared with an earlier member once, at the cached
    /// tier, and skips its prefill latency. Membership is decided at
    /// admission time on the virtual clock — the same contract as
    /// single-flight — so which requests share a batch (and therefore every
    /// cost/latency) is byte-stable across runs and worker counts. Note the
    /// window deadline is *observed* at the next arrival (or Drain): virtual
    /// time only advances when something arrives, so a lone tail request
    /// waits for the next event, not a wall-clock timer. Completion text is
    /// unchanged by batching; only cost, latency and the batch/prefix
    /// ledgers differ.
    bool batching = false;
    /// Batch size at which the open batch closes immediately.
    size_t max_batch = 8;
    /// Virtual ms after the open batch's first member during which later
    /// admissions join it.
    double batch_window_vms = 20.0;
    /// Attach an obs::TraceContext to every executed request (published on
    /// Response::trace). Costs one small allocation tree per request; off by
    /// default.
    bool tracing = false;
    /// Metrics registry for the server's instruments. Null gives the server
    /// a private registry (stats() stays per-instance); inject one registry
    /// per server to aggregate a stack (two servers sharing a registry share
    /// series).
    obs::Registry* registry = nullptr;
    /// Periodic maintenance driven by *virtual* time: when interval > 0 and
    /// a hook is set, admission fires the hook synchronously (on the
    /// submitting thread, under the admission lock, in arrival order) when a
    /// request's arrival_vms reaches the next interval boundary — once per
    /// submission however many boundaries the arrival crossed; the next
    /// boundary is then the first one past the arrival. The deterministic
    /// home for durability checkpoints / WAL compaction — the same workload
    /// fires maintenance at the same points regardless of thread count or
    /// wall-clock speed. Keep the hook bounded: it blocks admission while it
    /// runs.
    double maintenance_interval_vms = 0.0;
    std::function<void()> maintenance_hook;
    /// Admission-time batched cache probe, consulted by SubmitBatch() before
    /// admission. Runs once per batch on the submitting thread, so hit/miss
    /// decisions stay in arrival order and are as deterministic as admission
    /// itself. Hits are answered immediately (status Ok, zero cost, one
    /// virtual ms of service); misses fall through to the normal Submit()
    /// path. Null (the default) makes SubmitBatch() a plain loop over
    /// Submit(). Wire a SemanticCache in with optimize::MakeBatchCacheProbe.
    BatchCacheProbe batch_probe;
    /// Completion sink for push-style consumers (the network front door):
    /// called exactly once per response — shed refusals included, so offered
    /// load == sink calls — after the response's metrics are recorded.
    /// Sheds, cache-probe hits and followers of an already-finished flight
    /// invoke it on the submitting thread under the admission lock;
    /// completions, and the followers attached to them, on the leader's
    /// worker thread. Every call runs under the results lock, so calls never
    /// overlap, and set_response_sink() waits out a call in progress. The
    /// sink must be thread-safe, bounded, and must never call back into
    /// Submit()/Drain(). Also settable after construction via
    /// set_response_sink(): net::NetServer's sink encodes the response and
    /// writes it to a non-blocking socket right there, leaving whatever the
    /// socket does not take to its event loop.
    std::function<void(const Response&)> response_sink;
    /// Retain every response for Drain(). A long-running server draining
    /// responses through response_sink instead sets this false so memory
    /// stays bounded by in-flight work; Drain() then returns only what was
    /// retained (nothing) and percentile stats come from the registry
    /// histograms alone.
    bool retain_responses = true;
    /// Multi-tenant QoS: configuring at least one tenant switches admission
    /// from the single shared queue to per-tenant token-bucket quotas +
    /// weighted-fair (deficit-round-robin) queuing with priority aging —
    /// see qos.h and the class comment. In QoS mode shed_policy is never
    /// consulted and queue_depth only sizes the derived tenant queue shares:
    /// a request sheds only on its tenant's queue share, then its quota.
    QosOptions qos;
  };

  /// `model` serves primaries; `hedge_model` (defaults to `model`) serves
  /// hedge attempts — typically the fallback-chain/cheaper endpoint.
  /// Workers start immediately.
  Server(std::shared_ptr<llm::LlmModel> model, const Options& options,
         std::shared_ptr<llm::LlmModel> hedge_model = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admission control + enqueue. Must be called in non-decreasing
  /// `arrival_vms` order (one submitting thread, or external ordering).
  /// Shed requests are answered immediately; admitted ones complete on a
  /// worker thread. Not callable after Drain().
  void Submit(const Request& request);

  /// Batched submission: when Options::batch_probe is set, probes the whole
  /// batch once, before admitting any of it, answers hits immediately at
  /// zero cost, and Submit()s the misses in arrival order. Without a probe
  /// this is exactly a loop over Submit(). The same ordering contract
  /// applies: batches (and the requests within them) must arrive in
  /// non-decreasing `arrival_vms` order.
  void SubmitBatch(const std::vector<Request>& batch);

  /// Waits for all admitted work, stops the workers, and returns every
  /// response sorted by request id. Call once.
  std::vector<Response> Drain();

  /// Installs (or replaces) the completion sink after construction. Must be
  /// called before the first Submit(); the sink is read under the results
  /// lock, so a quiesced server may also swap it between workloads.
  void set_response_sink(std::function<void(const Response&)> sink);

  /// Aggregate metrics; stable only after Drain().
  ServerStats stats() const;

  /// Per-tenant metrics in configuration order (the catch-all "default"
  /// tenant last when it was synthesized); empty when QoS is off. Stable
  /// only after Drain().
  std::vector<TenantStats> tenant_stats() const;

  /// Committed usage across all winning attempts (thread-safe itself).
  const llm::UsageMeter& meter() const { return meter_; }

  /// Single-flight groups currently held: flights that could still absorb
  /// a later arrival. For tests of the expiry bound.
  size_t inflight_flights() const;

  /// Distinct estimated service times in the hedge history. For tests of
  /// its bound.
  size_t hedge_history_entries() const;

  /// The registry holding the server's instruments (the injected one, or
  /// the private per-instance registry).
  obs::Registry* registry() const { return registry_; }

 private:
  struct TenantState;

  /// Shared state of one coalesced flight. `skill`, `input` and
  /// `est_finish_vms` are written once at flight registration under
  /// admission_mu_. Under `mu`, admission attaches followers until the
  /// leader's worker publishes; from then on the outcome fields are fixed
  /// and read without the lock.
  struct FlightGroup {
    /// A request riding the flight, answered when the leader publishes.
    struct Follower {
      Request request;
      TenantState* tenant_state = nullptr;
    };

    /// The leader's call. A follower must match both exactly: the flight
    /// key is only a hash of them.
    std::string skill;
    std::string input;
    double est_finish_vms = 0.0;  // leader est_start + est_service

    std::mutex mu;
    bool done = false;
    std::vector<Follower> followers;  // attached while !done
    common::Status status;            // leader's final status
    std::string text;
    std::string model;
    double finish_vms = 0.0;  // leader's actual virtual finish
  };

  /// A registered flight awaiting expiry. It erases its key only if the map
  /// still holds its group: a QoS dispatch may already have replaced it
  /// with a newer flight for the same key.
  struct FlightExpiry {
    double est_finish_vms = 0.0;
    uint64_t key = 0;
    std::shared_ptr<FlightGroup> group;
    bool operator>(const FlightExpiry& other) const {
      return est_finish_vms > other.est_finish_vms;
    }
  };

  /// Per-tenant instrument handles + admission state (QoS mode). The bucket
  /// is only touched in Admit() under admission_mu_; the counters are
  /// written from admission (under the lock) and completion (worker
  /// threads) sides — commutative integer adds, like the global metrics.
  struct TenantState {
    size_t index = 0;  // scheduler tenant index
    TokenBucket bucket;
    size_t queue_limit = 0;
    obs::Counter* submitted = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* coalesced = nullptr;
    obs::Counter* cache_probe_hits = nullptr;
    obs::Counter* shed_quota = nullptr;
    obs::Counter* shed_queue = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* deadline_missed = nullptr;
    obs::Counter* spend_micros = nullptr;
    obs::Histogram* latency_vms = nullptr;

    TenantState(double rate, double burst) : bucket(rate, burst) {}
  };

  /// Admitted work. In QoS mode it waits in pending_qos_ (est_start unset)
  /// until the fair dispatcher starts it.
  struct Work {
    Request request;
    double est_start_vms = 0.0;
    double est_service_vms = 0.0;
    double queue_wait_vms = 0.0;
    double hedge_trigger_vms = 0.0;  // service latency that launches a hedge
    /// Single-flight: the flight this work leads. Null when coalescing is
    /// off.
    std::shared_ptr<FlightGroup> group;
    /// QoS mode: the tenant this work bills to (stable pointer, owned by
    /// tenants_). Null when QoS is off.
    TenantState* tenant_state = nullptr;
    /// Continuous batching: when set, this queue entry is a whole closed
    /// batch (members in admission order, executed by one worker through a
    /// single CompleteBatch call) and the per-request fields above are
    /// unused.
    std::shared_ptr<std::vector<Work>> batch;
  };

  /// The open (accumulating) batch, under admission_mu_.
  struct OpenBatch {
    double close_vms = 0.0;  // first member's arrival + batch_window_vms
    std::vector<Work> members;
  };

  /// Instrument handles; ServerStats is a read-time view over these (plus
  /// the per-response scan for percentiles/goodput), so a registry export
  /// and the legacy struct always agree.
  struct Metrics {
    obs::Counter* submitted = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* coalesced = nullptr;
    obs::Counter* cache_probe_hits = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* deadline_missed = nullptr;
    obs::Counter* hedges_launched = nullptr;
    obs::Counter* hedge_wins = nullptr;
    obs::Counter* hedge_cancelled_cost_micros = nullptr;
    obs::Counter* coalesce_saved_micros = nullptr;
    obs::Counter* maintenance_runs = nullptr;
    obs::Counter* batch_closed_size = nullptr;    // llmdm_batch_closed_total
    obs::Counter* batch_closed_window = nullptr;  //   {cause=...}
    obs::Counter* batch_closed_drain = nullptr;
    obs::Counter* batch_requests = nullptr;
    obs::Counter* batch_prefix_cached_tokens = nullptr;
    obs::Counter* batch_prefix_saved_micros = nullptr;
    obs::Gauge* max_queue_len = nullptr;
    obs::Histogram* queue_wait_vms = nullptr;
    obs::Histogram* latency_vms = nullptr;
    obs::Histogram* batch_occupancy = nullptr;
  };

  /// The one admission pipeline behind Submit() and SubmitBatch(), in
  /// stage order: drain check, maintenance tick, batch-window close, QoS
  /// dispatch + tenant, probe hit (quota, then answer), queue observation,
  /// single-flight follower, shed checks, start. `hit` is the request's
  /// batch-probe hit, or null.
  void Admit(const Request& request, const BatchProbeOutcome* hit);
  /// Refuses `request` at the door with a cause-specific retry hint
  /// (admission_mu_ held).
  void Shed(const Request& request, TenantState* tenant_state, ShedCause cause,
            double retry_after_vms, const std::string& reason);
  /// Starts admitted work at its virtual start: hedge trigger, flight
  /// registration, enqueue (admission_mu_ held). Called by the shared queue
  /// at admission and by the QoS dispatcher at dispatch.
  void StartWork(Work work);
  /// Plays virtual dispatch up to now_vms and starts every dispatched
  /// request (admission_mu_ held).
  void DispatchReadyQos(double now_vms);
  TenantState* ResolveTenant(const TenantId& id);
  double EstimateTokens(const Request& request) const;
  /// Routes admitted work to the worker queue, or parks it in the open
  /// batch when batching is on; a closed batch's carrier goes straight to
  /// the queue (admission_mu_ held).
  void EnqueueWork(Work work);
  /// Closes the open batch if `now_vms` crossed its window deadline
  /// (admission_mu_ held; called before each admission decision).
  void MaybeCloseBatch(double now_vms);
  /// Pushes the open batch (if any) to the workers as one queue entry,
  /// counting the close under `cause` (admission_mu_ held).
  void FlushOpenBatch(obs::Counter* cause);

  void WorkerLoop();
  /// Executes one queue entry: a closed batch (one CompleteBatch call over
  /// its members) or a single request (one CompleteMetered call), with the
  /// same per-member trace, queue-deadline and prompt setup and the same
  /// FinishExecute tail.
  void Execute(const Work& work);
  /// Post-model-call tail: hedge race, winner-commit metering, response
  /// assembly and publication. `r` arrives with id/tenant/queue_wait
  /// filled; `primary_finish` is the primary attempt's virtual service
  /// time.
  void FinishExecute(const Work& work, Response r,
                     const std::shared_ptr<obs::TraceContext>& trace,
                     const llm::Prompt& prompt,
                     common::Result<llm::Completion> primary,
                     double primary_finish, llm::UsageMeter& primary_meter);
  /// Closes the trace with `outcome`, advances the clock to `finish_vms`,
  /// pushes the response and, when the work leads a flight, fixes the
  /// flight's outcome and answers every follower attached to it.
  void Publish(const Work& work, Response r,
               const std::shared_ptr<obs::TraceContext>& trace,
               const char* outcome, double finish_vms);
  /// List price of `completion`'s tokens minus what it was billed: the
  /// prefix discount of a batched completion.
  common::Money PrefixSaved(const llm::Completion& completion) const;
  /// Answers a follower from its flight's published outcome: zero cost,
  /// virtual latency = leader finish - own arrival, the avoided call
  /// itemized in the meter. Called by the leader's Publish, or by Admit
  /// (admission_mu_ held) when the flight has already finished.
  void AnswerFollower(const FlightGroup& group, const Request& req,
                      TenantState* tenant_state);
  void PushResponse(Response response, TenantState* tenant_state = nullptr);

  std::shared_ptr<llm::LlmModel> model_;
  std::shared_ptr<llm::LlmModel> hedge_model_;
  Options options_;

  /// Private registry when Options::registry is null; registry_ always
  /// points at the registry in use. Declared before metrics_ so the
  /// instruments outlive every handle.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  Metrics metrics_;

  // Admission state: touched only under admission_mu_.
  // The admission counters (submitted/admitted/shed/coalesced) live in
  // metrics_; being written under admission_mu_ keeps them as deterministic
  // as the fields they replaced.
  mutable std::mutex admission_mu_;
  std::vector<double> slot_free_vms_;  // per virtual slot
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      pending_starts_;                  // est_start of not-yet-started work
  /// Hedging: every admitted estimate so far, as value -> count.
  /// Estimates are spec latency x estimated tokens, so there are few
  /// distinct values however many requests arrive; the trigger percentile
  /// reads the same ranks a sorted vector of all of them would.
  std::map<double, size_t> est_service_counts_;
  /// Next virtual-time boundary at which the maintenance hook fires.
  double next_maintenance_vms_ = 0.0;
  bool draining_ = false;
  /// Single-flight: latest flight per (skill, input) hash. Coalescing needs
  /// `arrival < est_finish_vms` and arrivals are non-decreasing, so a flight
  /// with est_finish_vms at or before the current arrival can absorb no
  /// later request: Admit drops it, soonest finish first, through
  /// flight_expiry_. The map holds only flights still open to followers,
  /// however many distinct keys the workload brings.
  std::unordered_map<uint64_t, std::shared_ptr<FlightGroup>> inflight_;
  /// Every registered flight, soonest est_finish_vms first (see
  /// FlightExpiry).
  std::priority_queue<FlightExpiry, std::vector<FlightExpiry>,
                      std::greater<FlightExpiry>>
      flight_expiry_;
  /// Continuous batching: the accumulating batch (null when none is open).
  std::unique_ptr<OpenBatch> open_batch_;

  // QoS mode (null/empty when Options::qos has no tenants). All admission
  // state under admission_mu_, like the legacy fields above.
  std::unique_ptr<WeightedFairScheduler> qos_scheduler_;
  std::vector<std::unique_ptr<TenantState>> tenants_;  // scheduler order
  std::unordered_map<TenantId, TenantState*> tenant_by_id_;
  TenantState* default_tenant_ = nullptr;  // catch-all for unknown ids
  /// Parked work, by the scheduler entry id Admit assigned it. The id is
  /// the server's own sequence number, not the request id: two parked
  /// requests may carry the same request id.
  std::unordered_map<uint64_t, Work> pending_qos_;
  uint64_t next_qos_entry_id_ = 0;

  // Worker pool.
  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<Work> work_queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  // Results + execution-side stats (hedge counters live in metrics_).
  mutable std::mutex results_mu_;
  std::vector<Response> responses_;
  std::function<void(const Response&)> response_sink_;  // under results_mu_

  llm::UsageMeter meter_;
  SimulatedClock clock_;
};

}  // namespace llmdm::serve

#endif  // LLMDM_SERVE_SERVER_H_
