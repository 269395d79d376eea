#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>

#include "common/hash.h"
#include "common/string_util.h"
#include "llm/deadline.h"
#include "llm/prompt.h"
#include "obs/trace.h"
#include "text/tokenizer.h"

namespace llmdm::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Virtual ms a failed attempt is deemed to have occupied its slot (timeouts
// and retry storms burn time even when nothing is returned).
constexpr double kFailedAttemptPenaltyMs = 1000.0;

/// Linearly interpolated percentile of `n` ascending values, the i-th read
/// through `at(i)`.
template <typename At>
double InterpolatedPercentile(size_t n, double p, const At& at) {
  if (n == 0) return 0.0;
  double rank = p * static_cast<double>(n - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, n - 1);
  double frac = rank - static_cast<double>(lo);
  const double lo_value = at(lo);
  return lo_value + frac * (at(hi) - lo_value);
}

double Percentile(const std::vector<double>& sorted, double p) {
  return InterpolatedPercentile(sorted.size(), p,
                                [&sorted](size_t i) { return sorted[i]; });
}

/// Percentile() of the multiset held in `counts` (value -> occurrences),
/// read off the map without expanding it: the same ranks and arithmetic,
/// so the result is bit-identical to Percentile() over the sorted values.
double CountedPercentile(const std::map<double, size_t>& counts, double p) {
  size_t n = 0;
  for (const auto& entry : counts) n += entry.second;
  return InterpolatedPercentile(n, p, [&counts](size_t pos) {
    for (const auto& [value, count] : counts) {
      if (pos < count) return value;
      pos -= count;
    }
    return 0.0;  // unreachable: pos < n
  });
}
}  // namespace

Server::Server(std::shared_ptr<llm::LlmModel> model, const Options& options,
               std::shared_ptr<llm::LlmModel> hedge_model)
    : model_(std::move(model)),
      hedge_model_(hedge_model != nullptr ? std::move(hedge_model) : model_),
      options_(options),
      slot_free_vms_(std::max<size_t>(1, options.virtual_concurrency), 0.0) {
  response_sink_ = options_.response_sink;
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  metrics_.submitted = registry_->GetCounter("llmdm_serve_submitted_total");
  metrics_.admitted = registry_->GetCounter("llmdm_serve_admitted_total");
  metrics_.shed = registry_->GetCounter("llmdm_serve_shed_total");
  metrics_.coalesced = registry_->GetCounter("llmdm_serve_coalesced_total");
  metrics_.cache_probe_hits =
      registry_->GetCounter("llmdm_serve_cache_probe_hits_total");
  metrics_.completed = registry_->GetCounter("llmdm_serve_completed_total");
  metrics_.failed = registry_->GetCounter("llmdm_serve_failed_total");
  metrics_.deadline_missed =
      registry_->GetCounter("llmdm_serve_deadline_missed_total");
  metrics_.hedges_launched =
      registry_->GetCounter("llmdm_serve_hedges_launched_total");
  metrics_.hedge_wins = registry_->GetCounter("llmdm_serve_hedge_wins_total");
  metrics_.hedge_cancelled_cost_micros =
      registry_->GetCounter("llmdm_serve_hedge_cancelled_cost_micros_total");
  metrics_.coalesce_saved_micros =
      registry_->GetCounter("llmdm_serve_coalesce_saved_micros_total");
  metrics_.maintenance_runs =
      registry_->GetCounter("llmdm_serve_maintenance_runs_total");
  metrics_.batch_closed_size =
      registry_->GetCounter("llmdm_batch_closed_total", {{"cause", "size"}});
  metrics_.batch_closed_window =
      registry_->GetCounter("llmdm_batch_closed_total", {{"cause", "window"}});
  metrics_.batch_closed_drain =
      registry_->GetCounter("llmdm_batch_closed_total", {{"cause", "drain"}});
  metrics_.batch_requests =
      registry_->GetCounter("llmdm_batch_requests_total");
  metrics_.batch_prefix_cached_tokens =
      registry_->GetCounter("llmdm_batch_prefix_cached_tokens_total");
  metrics_.batch_prefix_saved_micros =
      registry_->GetCounter("llmdm_batch_prefix_saved_micros_total");
  metrics_.max_queue_len = registry_->GetGauge("llmdm_serve_max_queue_len");
  next_maintenance_vms_ = options_.maintenance_interval_vms;
  metrics_.queue_wait_vms = registry_->GetHistogram(
      "llmdm_serve_queue_wait_vms", {}, obs::Histogram::LatencyBoundsVms());
  metrics_.latency_vms = registry_->GetHistogram(
      "llmdm_serve_latency_vms", {}, obs::Histogram::LatencyBoundsVms());
  // Occupancy buckets stop at max_batch's default scale; the +Inf bucket
  // catches configurations beyond it.
  metrics_.batch_occupancy = registry_->GetHistogram(
      "llmdm_batch_occupancy", {}, {1.0, 2.0, 4.0, 8.0, 16.0, 32.0});

  if (options_.qos.enabled()) {
    // Guarantee a catch-all tenant so a request with an unknown (or empty)
    // id degrades to a metered default share instead of crashing admission
    // or silently riding free.
    QosOptions qos = options_.qos;
    bool has_default = false;
    for (const TenantConfig& t : qos.tenants) {
      if (t.id == "default") has_default = true;
    }
    if (!has_default) {
      TenantConfig fallback;
      fallback.id = "default";
      qos.tenants.push_back(fallback);
    }
    qos_scheduler_ = std::make_unique<WeightedFairScheduler>(
        qos, std::max<size_t>(1, options_.virtual_concurrency));
    double total_weight = 0.0;
    for (size_t i = 0; i < qos_scheduler_->num_tenants(); ++i) {
      total_weight += qos_scheduler_->tenant_config(i).weight;
    }
    for (size_t i = 0; i < qos_scheduler_->num_tenants(); ++i) {
      const TenantConfig& cfg = qos_scheduler_->tenant_config(i);
      auto ts = std::make_unique<TenantState>(cfg.quota_tokens_per_vs,
                                              cfg.quota_burst_tokens);
      ts->index = i;
      ts->queue_limit =
          cfg.queue_limit > 0
              ? cfg.queue_limit
              : std::max<size_t>(
                    2, static_cast<size_t>(std::llround(
                           static_cast<double>(options_.queue_depth) *
                           cfg.weight / total_weight)));
      const obs::Labels labels = {{"tenant", cfg.id}};
      ts->submitted =
          registry_->GetCounter("llmdm_serve_tenant_submitted_total", labels);
      ts->admitted =
          registry_->GetCounter("llmdm_serve_tenant_admitted_total", labels);
      ts->coalesced =
          registry_->GetCounter("llmdm_serve_tenant_coalesced_total", labels);
      ts->cache_probe_hits = registry_->GetCounter(
          "llmdm_serve_tenant_cache_probe_hits_total", labels);
      ts->shed_quota = registry_->GetCounter(
          "llmdm_serve_tenant_shed_total",
          {{"tenant", cfg.id}, {"cause", "quota"}});
      ts->shed_queue = registry_->GetCounter(
          "llmdm_serve_tenant_shed_total",
          {{"tenant", cfg.id}, {"cause", "queue"}});
      ts->completed =
          registry_->GetCounter("llmdm_serve_tenant_completed_total", labels);
      ts->failed =
          registry_->GetCounter("llmdm_serve_tenant_failed_total", labels);
      ts->deadline_missed = registry_->GetCounter(
          "llmdm_serve_tenant_deadline_missed_total", labels);
      ts->spend_micros = registry_->GetCounter(
          "llmdm_serve_tenant_spend_micros_total", labels);
      ts->latency_vms =
          registry_->GetHistogram("llmdm_serve_tenant_latency_vms", labels,
                                  obs::Histogram::LatencyBoundsVms());
      tenant_by_id_[cfg.id] = ts.get();
      if (cfg.id == "default") default_tenant_ = ts.get();
      tenants_.push_back(std::move(ts));
    }
  }

  size_t n = std::max<size_t>(1, options_.worker_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

double Server::EstimateTokens(const Request& request) const {
  // The same information a real admission controller has before the call:
  // exact input token count, configured output-length guess. This is also
  // the unit tenant quotas are charged in.
  llm::Prompt prompt = llm::MakePrompt(request.skill, request.input);
  return static_cast<double>(prompt.CountInputTokens() +
                             options_.est_output_tokens);
}

void Server::Submit(const Request& request) { Admit(request, nullptr); }

void Server::SubmitBatch(const std::vector<Request>& batch) {
  // Probe the whole batch once, on the submitting thread, before any
  // admission decision: hit/miss outcomes are fixed in arrival order, so
  // the downstream admission sequence (and every virtual-clock decision it
  // makes) is identical across runs and worker counts.
  std::vector<BatchProbeOutcome> outcomes;
  if (options_.batch_probe && !batch.empty()) {
    std::vector<const Request*> ptrs;
    ptrs.reserve(batch.size());
    for (const Request& request : batch) ptrs.push_back(&request);
    outcomes = options_.batch_probe(ptrs);
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    const bool hit = i < outcomes.size() && outcomes[i].hit;
    Admit(batch[i], hit ? &outcomes[i] : nullptr);
  }
}

void Server::Admit(const Request& request, const BatchProbeOutcome* hit) {
  std::lock_guard<std::mutex> lock(admission_mu_);
  if (draining_) return;  // late submissions after Drain() are dropped
  metrics_.submitted->Add(1);
  const double now = request.arrival_vms;

  // Virtual-clock maintenance, before this request's own admission, so the
  // decision sequence is identical for every run of the same workload. One
  // run per submission however many boundaries the arrival crossed: the
  // hook runs under the admission lock, and arrivals come from clients, so
  // the work one submission can trigger must not grow with the gap.
  const double interval = options_.maintenance_interval_vms;
  if (interval > 0 && options_.maintenance_hook &&
      now >= next_maintenance_vms_) {
    options_.maintenance_hook();
    metrics_.maintenance_runs->Add(1);
    next_maintenance_vms_ +=
        interval * (std::floor((now - next_maintenance_vms_) / interval) + 1);
  }

  // Continuous batching: this arrival is the only thing that advances the
  // virtual clock, so it is also the event that observes (and closes) an
  // open batch whose window deadline has passed — before its own admission,
  // so batch membership is fixed in arrival order.
  MaybeCloseBatch(now);

  TenantState* ts = nullptr;
  if (qos_scheduler_ != nullptr) {
    // Play the fair dispatcher up to this arrival first: queue lengths and
    // bucket levels must reflect everything that virtually started before
    // this request showed up.
    DispatchReadyQos(now);
    ts = ResolveTenant(request.tenant);
    ts->submitted->Add(1);
  }

  Work work;
  work.request = request;
  work.tenant_state = ts;
  double est_tokens = 0.0;
  size_t slot = 0;  // shared queue: the virtual slot this request takes
  // A probe hit never enters the virtual queue: it takes no slot, adds no
  // load and coalesces with nothing, so it skips straight to the quota.
  if (hit == nullptr) {
    // Retire virtual work that has started by this arrival; what remains
    // is the waiting queue the new request would join.
    if (ts == nullptr) {
      while (!pending_starts_.empty() && pending_starts_.top() <= now) {
        pending_starts_.pop();
      }
    }
    const size_t queue_len = ts == nullptr ? pending_starts_.size()
                                           : qos_scheduler_->TotalQueued();
    metrics_.max_queue_len->SetMax(static_cast<int64_t>(queue_len));

    // Single-flight: an identical call still in flight (by the virtual
    // queue model — the leader's estimated finish is after this arrival)
    // absorbs the request. The follower takes no slot, joins no queue, takes
    // no worker and cannot be shed: it adds no load. Decided here, in
    // arrival order, so coalescing is deterministic across runs and worker
    // counts; only which thread answers it depends on real timing.
    if (options_.single_flight) {
      while (!flight_expiry_.empty() &&
             flight_expiry_.top().est_finish_vms <= now) {
        const FlightExpiry& expired = flight_expiry_.top();
        auto it = inflight_.find(expired.key);
        if (it != inflight_.end() && it->second == expired.group) {
          inflight_.erase(it);
        }
        flight_expiry_.pop();
      }
      auto it = inflight_.find(
          common::Fnv1a(request.input, common::Fnv1a(request.skill)));
      if (it != inflight_.end() && now < it->second->est_finish_vms &&
          it->second->skill == request.skill &&
          it->second->input == request.input) {
        metrics_.admitted->Add(1);
        metrics_.coalesced->Add(1);
        if (ts != nullptr) {
          ts->admitted->Add(1);
          ts->coalesced->Add(1);
        }
        FlightGroup& group = *it->second;
        {
          // Lock order: admission_mu_, then group.mu. The leader's Publish
          // takes only group.mu, so it attaches or finds `done`, never both.
          std::lock_guard<std::mutex> flight_lock(group.mu);
          if (!group.done) {
            group.followers.push_back({request, ts});
            return;
          }
        }
        AnswerFollower(group, request, ts);
        return;
      }
    }

    est_tokens = EstimateTokens(request);
    work.est_service_vms =
        model_->spec().latency_ms_per_1k_tokens * est_tokens / 1000.0;
    if (ts == nullptr) {
      double earliest_free = kInf;
      for (size_t i = 0; i < slot_free_vms_.size(); ++i) {
        if (slot_free_vms_[i] < earliest_free) {
          earliest_free = slot_free_vms_[i];
          slot = i;
        }
      }
      work.est_start_vms = std::max(now, earliest_free);
      const double queue_wait = work.est_start_vms - now;
      const double retry = std::max(0.0, earliest_free - now);
      if (options_.shed_policy != ShedPolicy::kNone &&
          queue_len >= options_.queue_depth) {
        Shed(request, ts, ShedCause::kQueue, retry,
             common::StrFormat("queue full (%zu waiting, limit %zu)",
                               queue_len, options_.queue_depth));
        return;
      }
      if (options_.shed_policy == ShedPolicy::kDeadlineAware &&
          request.deadline_ms > 0.0 && queue_wait >= request.deadline_ms) {
        Shed(request, ts, ShedCause::kDeadline, retry,
             common::StrFormat("estimated wait %.0fms exceeds %.0fms deadline",
                               queue_wait, request.deadline_ms));
        return;
      }
    } else if (qos_scheduler_->QueueLen(ts->index) >= ts->queue_limit) {
      // Queue share before quota — a full tenant queue refuses before any
      // quota is spent, so a shed request never burns rate budget it got
      // nothing for.
      Shed(request, ts, ShedCause::kQueue,
           std::max(0.0, qos_scheduler_->EarliestSlotFreeVms() - now),
           common::StrFormat("tenant queue share full (%zu waiting, limit %zu)",
                             qos_scheduler_->QueueLen(ts->index),
                             ts->queue_limit));
      return;
    }
  } else if (ts != nullptr) {
    est_tokens = EstimateTokens(request);
  }

  // Quota, for hits and misses alike: a hit is still a consumed admission —
  // answering it free of quota would let a cache-hot tenant burst unmetered
  // past its rate. The refusal hint comes from this tenant's own bucket:
  // retrying before it has refilled is guaranteed to be refused again,
  // regardless of how empty the global queue is.
  double quota_retry_vms = 0.0;
  if (ts != nullptr &&
      !ts->bucket.TryTake(now, est_tokens, &quota_retry_vms)) {
    Shed(request, ts, ShedCause::kQuota, quota_retry_vms,
         common::StrFormat(
             "tenant quota exhausted (%.0f tokens needed, %.0f available)",
             est_tokens, ts->bucket.level()));
    return;
  }

  metrics_.admitted->Add(1);
  if (ts != nullptr) ts->admitted->Add(1);
  if (hit != nullptr) {
    metrics_.cache_probe_hits->Add(1);
    if (ts != nullptr) ts->cache_probe_hits->Add(1);
    Response r;
    r.id = request.id;
    r.tenant = request.tenant;
    r.text = hit->response;
    r.model = hit->model;
    // One virtual ms of service: a probe hit is near-instant next to a
    // model call but not free, and a nonzero latency keeps the response
    // inside every deadline/percentile computation downstream.
    r.service_vms = 1.0;
    r.latency_vms = 1.0;
    clock_.AdvanceTo(now + r.latency_vms);
    PushResponse(std::move(r), ts);
    return;
  }
  if (ts == nullptr) {
    slot_free_vms_[slot] = work.est_start_vms + work.est_service_vms;
    pending_starts_.push(work.est_start_vms);
    StartWork(std::move(work));
    return;
  }
  WeightedFairScheduler::Entry entry;
  entry.id = next_qos_entry_id_++;
  entry.arrival_vms = now;
  entry.cost_tokens = est_tokens;
  entry.service_vms = work.est_service_vms;
  pending_qos_.emplace(entry.id, std::move(work));
  qos_scheduler_->Enqueue(ts->index, entry);
  // A free slot at `now` starts the request immediately.
  DispatchReadyQos(now);
}

void Server::Shed(const Request& request, TenantState* tenant_state,
                  ShedCause cause, double retry_after_vms,
                  const std::string& reason) {
  metrics_.shed->Add(1);
  if (tenant_state != nullptr) {
    (cause == ShedCause::kQuota ? tenant_state->shed_quota
                                : tenant_state->shed_queue)
        ->Add(1);
  }
  Response r;
  r.id = request.id;
  r.tenant = request.tenant;
  r.shed = true;
  r.shed_cause = cause;
  r.status = common::Status::ResourceExhausted("shed: " + reason);
  r.retry_after_vms = retry_after_vms;
  PushResponse(std::move(r));
}

void Server::StartWork(Work work) {
  work.queue_wait_vms = work.est_start_vms - work.request.arrival_vms;
  if (options_.hedging) {
    ++est_service_counts_[work.est_service_vms];
    work.hedge_trigger_vms =
        CountedPercentile(est_service_counts_, options_.hedge_percentile);
  }
  if (options_.single_flight) {
    // This request leads a new flight; later identical arrivals inside
    // [arrival, est_finish) will ride it. It replaces any older group for
    // the key, and Admit drops it once an arrival reaches est_finish.
    auto group = std::make_shared<FlightGroup>();
    group->skill = work.request.skill;
    group->input = work.request.input;
    group->est_finish_vms = work.est_start_vms + work.est_service_vms;
    const uint64_t key = common::Fnv1a(work.request.input,
                                       common::Fnv1a(work.request.skill));
    inflight_[key] = group;
    flight_expiry_.push(FlightExpiry{group->est_finish_vms, key, group});
    work.group = std::move(group);
  }
  EnqueueWork(std::move(work));
}

Server::TenantState* Server::ResolveTenant(const TenantId& id) {
  auto it = tenant_by_id_.find(id);
  return it != tenant_by_id_.end() ? it->second : default_tenant_;
}

void Server::DispatchReadyQos(double now_vms) {
  std::vector<WeightedFairScheduler::Dispatch> dispatched;
  qos_scheduler_->AdvanceTo(now_vms, &dispatched);
  for (const WeightedFairScheduler::Dispatch& d : dispatched) {
    auto it = pending_qos_.find(d.id);
    Work work = std::move(it->second);
    pending_qos_.erase(it);
    work.est_start_vms = d.start_vms;
    StartWork(std::move(work));
  }
}

void Server::EnqueueWork(Work work) {
  if (options_.batching && work.batch == nullptr) {
    if (open_batch_ == nullptr) {
      open_batch_ = std::make_unique<OpenBatch>();
      open_batch_->close_vms =
          work.request.arrival_vms + options_.batch_window_vms;
    }
    open_batch_->members.push_back(std::move(work));
    if (open_batch_->members.size() >=
        std::max<size_t>(1, options_.max_batch)) {
      FlushOpenBatch(metrics_.batch_closed_size);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> wl(work_mu_);
    work_queue_.push_back(std::move(work));
  }
  work_cv_.notify_one();
}

void Server::MaybeCloseBatch(double now_vms) {
  if (open_batch_ != nullptr && now_vms >= open_batch_->close_vms) {
    FlushOpenBatch(metrics_.batch_closed_window);
  }
}

void Server::FlushOpenBatch(obs::Counter* cause) {
  if (open_batch_ == nullptr) return;
  std::unique_ptr<OpenBatch> batch = std::move(open_batch_);
  cause->Add(1);
  metrics_.batch_requests->Add(batch->members.size());
  metrics_.batch_occupancy->Observe(
      static_cast<double>(batch->members.size()));
  Work carrier;
  carrier.batch = std::make_shared<std::vector<Work>>(
      std::move(batch->members));
  EnqueueWork(std::move(carrier));
}

void Server::WorkerLoop() {
  for (;;) {
    Work work;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock,
                    [this] { return stopping_ || !work_queue_.empty(); });
      if (work_queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      work = std::move(work_queue_.front());
      work_queue_.pop_front();
    }
    Execute(work);
  }
}

void Server::Execute(const Work& work) {
  // A closed batch runs its members through one CompleteBatch call. Anything
  // else is a batch of one that keeps CompleteMetered: CompleteBatch is
  // unmetered, so a resilient endpoint's retry and fallback spend would
  // leave the ledgers.
  const bool batched = work.batch != nullptr;
  const std::span<const Work> members =
      batched ? std::span<const Work>(*work.batch)
              : std::span<const Work>(&work, 1);

  // Per-member setup first, so queue-deadline deaths drop out before the
  // model sees the batch — a dead request never ran prefill, so it must not
  // seed the prefix trie for later members either.
  struct Member {
    const Work* work = nullptr;
    Response r;
    std::shared_ptr<obs::TraceContext> trace;
    obs::Span* attempt_span = nullptr;
    llm::Prompt prompt;
  };
  std::vector<Member> live;
  live.reserve(members.size());
  for (const Work& member : members) {
    const Request& req = member.request;
    Member m;
    m.work = &member;
    m.r.id = req.id;
    m.r.tenant = req.tenant;
    m.r.queue_wait_vms = member.queue_wait_vms;

    // Span times are anchored in the request's virtual-time frame (arrival,
    // estimated start, estimated start + service), so the tree is as
    // deterministic as the workload itself.
    if (options_.tracing) {
      m.trace = std::make_shared<obs::TraceContext>("request", req.arrival_vms);
      m.trace->SetAttr(nullptr, "id", std::to_string(req.id));
      m.trace->SetAttr(nullptr, "skill", req.skill);
      if (!req.tenant.empty()) m.trace->SetAttr(nullptr, "tenant", req.tenant);
      obs::Span* queue_span =
          m.trace->StartSpan("queue", req.arrival_vms, nullptr);
      m.trace->EndSpan(queue_span, member.est_start_vms);
    }

    // Under kNone/kQueueFull a request can be admitted into a wait longer
    // than its whole budget; it dies in the queue without costing a call.
    if (req.deadline_ms > 0.0 && member.queue_wait_vms >= req.deadline_ms) {
      m.r.status = common::Status::Timeout(common::StrFormat(
          "deadline %.0fms expired after %.0fms in queue", req.deadline_ms,
          member.queue_wait_vms));
      m.r.deadline_missed = true;
      m.r.latency_vms = member.queue_wait_vms;
      Publish(member, std::move(m.r), m.trace, "queue_deadline",
              member.est_start_vms);
      continue;
    }

    m.prompt = llm::MakePrompt(req.skill, req.input);
    // Per-request salt: two requests with identical text are still
    // independent draws, and reruns of the same id reproduce exactly.
    m.prompt.sample_salt = req.id * 1000003ull + 7;
    m.prompt.tenant_id = req.tenant;
    if (req.deadline_ms > 0.0) {
      m.prompt.deadline = std::make_shared<llm::Deadline>(
          req.deadline_ms - member.queue_wait_vms);
    }
    if (m.trace != nullptr) {
      m.attempt_span =
          m.trace->StartSpan("attempt", member.est_start_vms, nullptr);
      m.prompt.trace = m.trace;
      m.prompt.trace_parent = m.attempt_span;
    }
    live.push_back(std::move(m));
  }

  std::vector<common::Result<llm::Completion>> results;
  if (batched) {
    // One model invocation for the whole batch: the endpoint prices each
    // member's shared prompt prefix at the cached tier (SimulatedLlm), or
    // degrades to per-call behaviour (base LlmModel).
    std::vector<llm::Prompt> prompts;
    prompts.reserve(live.size());
    for (const Member& m : live) prompts.push_back(m.prompt);
    results = model_->CompleteBatch(prompts);
    meter_.RecordBatchClose(model_->spec().name, live.size());
  }
  for (size_t i = 0; i < live.size(); ++i) {
    Member& m = live[i];
    llm::UsageMeter primary_meter;
    common::Result<llm::Completion> primary =
        !batched ? model_->CompleteMetered(m.prompt, &primary_meter)
        : i < results.size()
            ? std::move(results[i])
            : common::Result<llm::Completion>(
                  common::Status::Internal("batch result missing"));
    double primary_finish =
        primary.ok() ? primary->latency_ms : kFailedAttemptPenaltyMs;
    if (m.attempt_span != nullptr) {
      m.trace->SetAttr(m.attempt_span, "result", primary.ok() ? "ok" : "error");
      m.trace->EndSpan(m.attempt_span, m.work->est_start_vms + primary_finish);
    }
    if (batched && primary.ok()) {
      // Batched calls come back unmetered: meter this member into its own
      // scratch ledger, prefix discount itemized, so the winner-commit hedge
      // accounting in FinishExecute stays per request. The registry
      // counters are bumped at commit time (FinishExecute), so ledger and
      // counters agree even when a hedge steals this member's win.
      primary_meter.Record(primary->model, primary->input_tokens,
                           primary->output_tokens, primary->cost,
                           primary->latency_ms);
      if (primary->prefix_cached_tokens > 0) {
        primary_meter.RecordPrefixReuse(primary->model,
                                        primary->prefix_cached_tokens,
                                        PrefixSaved(*primary));
      }
    }
    FinishExecute(*m.work, std::move(m.r), m.trace, m.prompt,
                  std::move(primary), primary_finish, primary_meter);
  }
}

void Server::FinishExecute(const Work& work, Response r,
                           const std::shared_ptr<obs::TraceContext>& trace,
                           const llm::Prompt& prompt,
                           common::Result<llm::Completion> primary,
                           double primary_finish,
                           llm::UsageMeter& primary_meter) {
  const Request& req = work.request;
  std::optional<common::Result<llm::Completion>> hedged;
  llm::UsageMeter hedge_meter;
  r.service_vms = primary_finish;
  if (options_.hedging &&
      (!primary.ok() || primary_finish > work.hedge_trigger_vms)) {
    // Hedge: in virtual time the second attempt launched when the primary
    // crossed the trigger (or failed, whichever came first) and the two
    // raced; the earliest virtual finish wins and the loser is cancelled —
    // too late to recover its spend, which is the price of tail-cutting.
    double hedge_start = std::min(work.hedge_trigger_vms, primary_finish);
    llm::Prompt hedge_prompt = prompt;
    hedge_prompt.sample_salt = prompt.sample_salt + 1;
    obs::Span* hedge_span = nullptr;
    if (trace != nullptr) {
      hedge_span =
          trace->StartSpan("hedge", work.est_start_vms + hedge_start, nullptr);
      hedge_prompt.trace = trace;
      hedge_prompt.trace_parent = hedge_span;
    }
    hedged = hedge_model_->CompleteMetered(hedge_prompt, &hedge_meter);
    double hedge_finish =
        hedge_start +
        (hedged->ok() ? (*hedged)->latency_ms : kFailedAttemptPenaltyMs);
    if (hedge_span != nullptr) {
      trace->SetAttr(hedge_span, "result", hedged->ok() ? "ok" : "error");
      trace->EndSpan(hedge_span, work.est_start_vms + hedge_finish);
    }
    double p_score = primary.ok() ? primary_finish : kInf;
    double h_score = hedged->ok() ? hedge_finish : kInf;
    r.hedged = true;
    r.hedge_won = h_score < p_score;
    r.service_vms = primary.ok() || hedged->ok()
                        ? std::min(p_score, h_score)
                        : std::max(primary_finish, hedge_finish);
    metrics_.hedges_launched->Add(1);
    if (r.hedge_won) metrics_.hedge_wins->Add(1);
    const llm::UsageMeter& loser_meter =
        r.hedge_won ? primary_meter : hedge_meter;
    metrics_.hedge_cancelled_cost_micros->Add(
        static_cast<uint64_t>(loser_meter.cost().micros()));
  }

  // Only the winner's spend is committed. When neither attempt succeeded
  // the primary counts as the winner, so its status is the one returned.
  const common::Result<llm::Completion>& winner =
      r.hedge_won ? *hedged : primary;
  meter_.MergeFrom(r.hedge_won ? hedge_meter : primary_meter);
  if (!r.hedge_won && primary.ok() && primary->prefix_cached_tokens > 0) {
    // Booked at commit time, not batch-execution time, so the
    // llmdm_batch_prefix_* counters equal the meter's winner-committed
    // BatchStats ledger even when a hedge steals the member's win.
    metrics_.batch_prefix_cached_tokens->Add(primary->prefix_cached_tokens);
    metrics_.batch_prefix_saved_micros->Add(
        static_cast<uint64_t>(PrefixSaved(*primary).micros()));
  }
  r.status = winner.status();
  if (winner.ok()) {
    r.text = winner->text;
    r.model = winner->model;
    r.cost = winner->cost;
  }
  r.latency_vms = work.queue_wait_vms + r.service_vms;
  r.deadline_missed = req.deadline_ms > 0.0 && r.latency_vms > req.deadline_ms;
  const double finish_vms = work.est_start_vms + r.service_vms;
  Publish(work, std::move(r), trace, winner.ok() ? "ok" : "error",
          finish_vms);
}

void Server::Publish(const Work& work, Response r,
                     const std::shared_ptr<obs::TraceContext>& trace,
                     const char* outcome, double finish_vms) {
  if (trace != nullptr) {
    trace->SetAttr(nullptr, "outcome", outcome);
    if (r.hedged) {
      trace->SetAttr(nullptr, "hedge_won", r.hedge_won ? "true" : "false");
    }
    trace->EndSpan(nullptr, finish_vms);
    r.trace = trace;
  }
  clock_.AdvanceTo(finish_vms);
  FlightGroup* group = work.group.get();
  std::vector<FlightGroup::Follower> followers;
  if (group != nullptr) {
    // Fix the flight's outcome and take the followers attached so far; any
    // later one finds `done` and is answered by admission itself.
    std::lock_guard<std::mutex> lock(group->mu);
    group->done = true;
    group->status = r.status;
    group->text = r.text;
    group->model = r.model;
    group->finish_vms = finish_vms;
    followers.swap(group->followers);
  }
  PushResponse(std::move(r), work.tenant_state);
  for (const FlightGroup::Follower& f : followers) {
    AnswerFollower(*group, f.request, f.tenant_state);
  }
}

common::Money Server::PrefixSaved(const llm::Completion& completion) const {
  // Exact by construction: re-pricing the same token counts at list makes
  // discounted cost + saved == the unbatched call's cost.
  return llm::PriceTokens(model_->spec().input_price_per_1k,
                          completion.input_tokens) +
         llm::PriceTokens(model_->spec().output_price_per_1k,
                          completion.output_tokens) -
         completion.cost;
}

void Server::AnswerFollower(const FlightGroup& group, const Request& req,
                            TenantState* tenant_state) {
  const common::Status& status = group.status;
  const double finish_vms = group.finish_vms;
  Response r;
  r.id = req.id;
  r.tenant = req.tenant;
  r.coalesced = true;
  r.status = status;
  if (status.ok()) {
    r.text = group.text;
    r.model = group.model + "+coalesced";
    r.cost = common::Money::Zero();
  }
  // In virtual time the follower arrived mid-flight and finished when the
  // leader did; it never queued, so its whole latency is that overlap.
  r.service_vms = std::max(0.0, finish_vms - req.arrival_vms);
  r.latency_vms = r.service_vms;
  r.deadline_missed = req.deadline_ms > 0.0 && r.latency_vms > req.deadline_ms;

  // Itemize the avoided call in the meter. The input side mirrors what
  // admission knew (input tokens at the primary model's *effective* input
  // price — under batching the avoided call would have been an exact
  // duplicate of the leader's prompt in a batch, so its whole input would
  // have billed at the cached tier, not list); the output side prices the
  // answer the follower got for free — the leader's actual text, so the
  // credit is exact and deterministic, not a guess.
  llm::Prompt prompt = llm::MakePrompt(req.skill, req.input);
  common::Money saved = llm::PriceTokens(
      llm::EffectiveInputPrice(model_->spec(), options_.batching),
      prompt.CountInputTokens());
  if (status.ok()) {
    saved += llm::PriceTokens(model_->spec().output_price_per_1k,
                              text::CountTokens(r.text));
  }
  metrics_.coalesce_saved_micros->Add(static_cast<uint64_t>(saved.micros()));
  meter_.RecordCoalesced(status.ok() ? group.model : model_->spec().name,
                         saved);

  if (options_.tracing) {
    // A follower arriving after its leader finished waits for nothing: its
    // spans end at its own arrival, never before it.
    const double end_vms = std::max(req.arrival_vms, finish_vms);
    auto trace =
        std::make_shared<obs::TraceContext>("request", req.arrival_vms);
    trace->SetAttr(nullptr, "id", std::to_string(req.id));
    trace->SetAttr(nullptr, "skill", req.skill);
    if (!req.tenant.empty()) trace->SetAttr(nullptr, "tenant", req.tenant);
    trace->SetAttr(nullptr, "outcome", "coalesced");
    obs::Span* wait = trace->StartSpan("coalesce_wait", req.arrival_vms,
                                       nullptr);
    trace->EndSpan(wait, end_vms);
    trace->EndSpan(nullptr, end_vms);
    r.trace = trace;
  }

  clock_.AdvanceTo(finish_vms);
  PushResponse(std::move(r), tenant_state);
}

void Server::PushResponse(Response response, TenantState* tenant_state) {
  if (!response.shed) {
    if (response.status.ok()) {
      metrics_.completed->Add(1);
    } else {
      metrics_.failed->Add(1);
    }
    if (response.deadline_missed) metrics_.deadline_missed->Add(1);
    metrics_.queue_wait_vms->Observe(response.queue_wait_vms);
    metrics_.latency_vms->Observe(response.latency_vms);
    if (tenant_state != nullptr) {
      // Completion-side tenant ledger: commutative adds from worker
      // threads, exactly like the global counters above.
      if (response.status.ok()) {
        tenant_state->completed->Add(1);
      } else {
        tenant_state->failed->Add(1);
      }
      if (response.deadline_missed) tenant_state->deadline_missed->Add(1);
      tenant_state->spend_micros->Add(
          static_cast<uint64_t>(response.cost.micros()));
      tenant_state->latency_vms->Observe(response.latency_vms);
    }
  }
  std::lock_guard<std::mutex> lock(results_mu_);
  if (response_sink_) response_sink_(response);
  if (options_.retain_responses) responses_.push_back(std::move(response));
}

void Server::set_response_sink(std::function<void(const Response&)> sink) {
  std::lock_guard<std::mutex> lock(results_mu_);
  response_sink_ = std::move(sink);
}

std::vector<Response> Server::Drain() {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    draining_ = true;
    // Flush every parked QoS request to the workers before stopping them:
    // advancing the virtual dispatcher to +infinity plays out the fair
    // schedule for all remaining queued work.
    if (qos_scheduler_ != nullptr) {
      DispatchReadyQos(std::numeric_limits<double>::infinity());
    }
    // Whatever is still accumulating goes out as the final (possibly
    // partial) batch — after the QoS flush above, so late-dispatched work
    // rides it instead of being stranded.
    FlushOpenBatch(metrics_.batch_closed_drain);
  }
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  std::lock_guard<std::mutex> lock(results_mu_);
  std::sort(responses_.begin(), responses_.end(),
            [](const Response& a, const Response& b) { return a.id < b.id; });
  return responses_;
}

size_t Server::inflight_flights() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return inflight_.size();
}

size_t Server::hedge_history_entries() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return est_service_counts_.size();
}

ServerStats Server::stats() const {
  // A view over the registry counters: the legacy struct and a registry
  // export always agree by construction. Percentiles still come from the
  // retained responses (histograms only keep bucketed counts).
  ServerStats s;
  s.submitted = metrics_.submitted->value();
  s.admitted = metrics_.admitted->value();
  s.shed = metrics_.shed->value();
  s.coalesced = metrics_.coalesced->value();
  s.cache_probe_hits = metrics_.cache_probe_hits->value();
  s.batches_closed = metrics_.batch_closed_size->value() +
                     metrics_.batch_closed_window->value() +
                     metrics_.batch_closed_drain->value();
  s.batched_requests = metrics_.batch_requests->value();
  s.prefix_cached_tokens = metrics_.batch_prefix_cached_tokens->value();
  s.prefix_saved = common::Money::FromMicros(
      static_cast<int64_t>(metrics_.batch_prefix_saved_micros->value()));
  s.max_queue_len = static_cast<double>(metrics_.max_queue_len->value());
  s.hedges_launched = metrics_.hedges_launched->value();
  s.hedge_wins = metrics_.hedge_wins->value();
  s.hedge_cancelled_cost = common::Money::FromMicros(
      static_cast<int64_t>(metrics_.hedge_cancelled_cost_micros->value()));
  s.completed = metrics_.completed->value();
  s.failed = metrics_.failed->value();
  s.deadline_missed = metrics_.deadline_missed->value();
  std::lock_guard<std::mutex> lock(results_mu_);
  std::vector<double> latencies;
  size_t good = 0;
  for (const Response& r : responses_) {
    if (r.shed) continue;
    latencies.push_back(r.latency_vms);
    if (r.status.ok() && !r.deadline_missed) ++good;
  }
  std::sort(latencies.begin(), latencies.end());
  s.p50_latency_vms = Percentile(latencies, 0.5);
  s.p99_latency_vms = Percentile(latencies, 0.99);
  double span_vs = clock_.NowMs() / 1000.0;
  s.goodput_per_vs = span_vs > 0.0 ? static_cast<double>(good) / span_vs : 0.0;
  return s;
}

std::vector<TenantStats> Server::tenant_stats() const {
  std::vector<TenantStats> out;
  if (qos_scheduler_ == nullptr) return out;
  out.resize(tenants_.size());
  for (const auto& ts : tenants_) {
    TenantStats& t = out[ts->index];
    t.tenant = qos_scheduler_->tenant_config(ts->index).id;
    t.submitted = ts->submitted->value();
    t.admitted = ts->admitted->value();
    t.coalesced = ts->coalesced->value();
    t.cache_probe_hits = ts->cache_probe_hits->value();
    t.shed_quota = ts->shed_quota->value();
    t.shed_queue = ts->shed_queue->value();
    t.completed = ts->completed->value();
    t.failed = ts->failed->value();
    t.deadline_missed = ts->deadline_missed->value();
    t.spend =
        common::Money::FromMicros(static_cast<int64_t>(ts->spend_micros->value()));
  }
  // SLO attainment and percentiles come from the retained responses, like
  // ServerStats: good = completed OK within deadline, over everything the
  // tenant submitted (sheds count against attainment — a refused request is
  // a missed SLO from the tenant's point of view).
  std::vector<std::vector<double>> latencies(out.size());
  std::vector<size_t> good(out.size(), 0);
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    for (const Response& r : responses_) {
      auto it = tenant_by_id_.find(r.tenant);
      TenantState* ts = it != tenant_by_id_.end() ? it->second : default_tenant_;
      if (ts == nullptr) continue;
      if (r.shed) continue;
      latencies[ts->index].push_back(r.latency_vms);
      if (r.status.ok() && !r.deadline_missed) ++good[ts->index];
    }
  }
  for (size_t i = 0; i < out.size(); ++i) {
    std::sort(latencies[i].begin(), latencies[i].end());
    out[i].p99_latency_vms = Percentile(latencies[i], 0.99);
    out[i].slo_attainment =
        out[i].submitted > 0
            ? static_cast<double>(good[i]) / static_cast<double>(out[i].submitted)
            : 1.0;
  }
  return out;
}

}  // namespace llmdm::serve
