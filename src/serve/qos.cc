#include "serve/qos.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/string_util.h"
#include "serve/server.h"

namespace llmdm::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Weight floor: every configured tenant owns a real share (see
// TenantConfig::weight).
constexpr double kMinWeight = 0.01;
// "No tenant" for PickTenant's aged-head search.
constexpr size_t kNpos = static_cast<size_t>(-1);
}  // namespace

TokenBucket::TokenBucket(double tokens_per_vs, double burst_tokens) {
  if (tokens_per_vs > 0.0) {
    rate_per_vms_ = tokens_per_vs / 1000.0;
    burst_ = burst_tokens > 0.0 ? burst_tokens : tokens_per_vs;
    level_ = burst_;  // a fresh tenant may spend its full burst immediately
  }
}

bool TokenBucket::TryTake(double now_vms, double cost,
                          double* retry_after_vms) {
  if (rate_per_vms_ <= 0.0) return true;
  if (now_vms > last_refill_vms_) {
    level_ = std::min(burst_, level_ + (now_vms - last_refill_vms_) *
                                           rate_per_vms_);
    last_refill_vms_ = now_vms;
  }
  if (level_ >= cost) {
    level_ -= cost;
    return true;
  }
  if (retry_after_vms != nullptr) {
    // Time until the bucket holds `cost` tokens. A cost above the burst
    // capacity can never be taken; report the time to full instead of an
    // infinity that would read as "retry never".
    double target = std::min(cost, burst_);
    *retry_after_vms = (target - level_) / rate_per_vms_;
  }
  return false;
}

WeightedFairScheduler::WeightedFairScheduler(const QosOptions& options,
                                             size_t num_slots)
    : slot_free_vms_(std::max<size_t>(1, num_slots), 0.0),
      quantum_tokens_(std::max(1.0, options.quantum_tokens)),
      aging_threshold_vms_(options.aging_threshold_vms) {
  tenants_.reserve(options.tenants.size());
  for (const TenantConfig& config : options.tenants) {
    TenantQueue q;
    q.config = config;
    q.config.weight = std::max(kMinWeight, config.weight);
    tenants_.push_back(std::move(q));
  }
}

void WeightedFairScheduler::Enqueue(size_t tenant_idx, const Entry& entry) {
  tenants_[tenant_idx].fifo.push_back(entry);
  ++total_queued_;
}

size_t WeightedFairScheduler::QueueLen(size_t tenant_idx) const {
  return tenants_[tenant_idx].fifo.size();
}

double WeightedFairScheduler::EarliestSlotFreeVms() const {
  double earliest = kInf;
  for (double t : slot_free_vms_) earliest = std::min(earliest, t);
  return earliest;
}

size_t WeightedFairScheduler::PickTenant(double u) {
  // Aging escape hatch: a head that has waited past the threshold runs now,
  // oldest first (ties broken by tenant index, so the choice is total).
  size_t aged = kNpos;
  for (size_t i = 0; i < tenants_.size(); ++i) {
    const TenantQueue& q = tenants_[i];
    if (q.fifo.empty() || q.fifo.front().arrival_vms > u) continue;
    if (u - q.fifo.front().arrival_vms < aging_threshold_vms_) continue;
    if (aged == kNpos ||
        q.fifo.front().arrival_vms < tenants_[aged].fifo.front().arrival_vms) {
      aged = i;
    }
  }
  if (aged != kNpos) return aged;

  // Classic DRR. A queue is credited quantum * weight once per *visit* of
  // the cursor (fresh_visit_), then serves heads while the deficit lasts;
  // when the deficit no longer covers the head, the cursor moves on. Each
  // full ring cycle credits every runnable tenant once, so the loop
  // terminates in at most ceil(max_cost / (quantum * min_weight)) cycles.
  for (;;) {
    TenantQueue& q = tenants_[rr_];
    bool runnable = !q.fifo.empty() && q.fifo.front().arrival_vms <= u;
    if (runnable) {
      if (fresh_visit_) {
        q.deficit += quantum_tokens_ * q.config.weight;
        fresh_visit_ = false;
      }
      if (q.deficit >= q.fifo.front().cost_tokens) return rr_;
    }
    rr_ = (rr_ + 1) % tenants_.size();
    fresh_visit_ = true;
  }
}

void WeightedFairScheduler::AdvanceTo(double now_vms,
                                      std::vector<Dispatch>* out) {
  while (total_queued_ > 0) {
    // Earliest moment a slot and some queued work are both ready.
    size_t slot = 0;
    for (size_t i = 1; i < slot_free_vms_.size(); ++i) {
      if (slot_free_vms_[i] < slot_free_vms_[slot]) slot = i;
    }
    double earliest_arrival = kInf;
    for (const TenantQueue& q : tenants_) {
      if (!q.fifo.empty()) {
        earliest_arrival =
            std::min(earliest_arrival, q.fifo.front().arrival_vms);
      }
    }
    double u = std::max(slot_free_vms_[slot], earliest_arrival);
    if (u > now_vms) break;

    size_t t = PickTenant(u);
    TenantQueue& q = tenants_[t];
    Entry entry = q.fifo.front();
    q.fifo.pop_front();
    --total_queued_;
    q.deficit -= entry.cost_tokens;  // aged dispatches may go negative
    if (q.fifo.empty()) q.deficit = 0.0;

    slot_free_vms_[slot] = u + entry.service_vms;
    out->push_back(Dispatch{entry.id, t, u});
  }
}

double JainFairnessIndex(const std::vector<double>& values) {
  double sum = 0.0, sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (values.empty() || sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(values.size()) * sum_sq);
}

std::vector<Request> GeneratePopulation(const PopulationOptions& options) {
  common::Rng rng(options.seed);
  const size_t n_tenants = std::max<size_t>(1, options.tenants);

  std::vector<Request> requests;
  requests.reserve(options.requests +
                   options.hot_tenants *
                       (options.requests == 0
                            ? 0
                            : static_cast<size_t>(options.burst_size)));

  auto make_request = [&](size_t tenant, double arrival) {
    Request req;
    req.tenant = common::StrFormat("t%02zu", tenant);
    req.arrival_vms = arrival;
    req.deadline_ms = options.deadline_ms;
    // Queries repeat within a tenant (inputs_per_tenant distinct texts) but
    // never across tenants — tenant isolation must not be confused with
    // cache/coalescing effects.
    size_t variant =
        options.inputs_per_tenant == 0
            ? 0
            : rng.NextBelow(options.inputs_per_tenant);
    req.input = common::StrFormat("tenant %02zu query %zu about data systems",
                                  tenant, variant);
    return req;
  };

  // Base traffic: exponential gaps modulated by the diurnal curve, tenant
  // picked per request from the zipf popularity distribution.
  double t = 0.0;
  for (size_t i = 0; i < options.requests; ++i) {
    double modulation = 1.0;
    if (options.diurnal_period_vms > 0.0) {
      modulation =
          1.0 + 0.5 * std::sin(2.0 * M_PI * t / options.diurnal_period_vms);
    }
    t += rng.Exponential(1.0) * options.mean_gap_vms / modulation;
    requests.push_back(make_request(rng.Zipf(n_tenants, 1.1), t));
  }
  const double horizon = t;

  // Bursts: each hot tenant fires a tight cluster on a fixed cadence, with a
  // seeded phase so hot tenants do not all burst in lockstep.
  for (size_t h = 0; h < std::min(options.hot_tenants, n_tenants); ++h) {
    if (options.burst_every_vms <= 0.0 || options.burst_size == 0) break;
    double phase = rng.Uniform(0.0, options.burst_every_vms);
    for (double start = phase; start < horizon;
         start += options.burst_every_vms) {
      for (size_t b = 0; b < options.burst_size; ++b) {
        requests.push_back(make_request(h, start + static_cast<double>(b)));
      }
    }
  }

  // One stream, in arrival order, ids assigned densely. stable_sort keeps
  // the generation order of equal arrivals, so the stream is fully
  // deterministic.
  std::stable_sort(requests.begin(), requests.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival_vms < b.arrival_vms;
                   });
  for (size_t i = 0; i < requests.size(); ++i) requests[i].id = i;
  return requests;
}

}  // namespace llmdm::serve
