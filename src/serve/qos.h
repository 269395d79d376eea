#ifndef LLMDM_SERVE_QOS_H_
#define LLMDM_SERVE_QOS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace llmdm::serve {

struct Request;  // see serve/server.h

/// Identifies *who* is asking. Tenants are the unit of isolation in the
/// serving layer: quotas, queue shares, spend ledgers and metric labels are
/// all keyed by this id. The empty string maps to the catch-all "default"
/// tenant.
using TenantId = std::string;

/// Per-tenant resource policy. A tenant's weight buys it a proportional
/// share of the virtual model slots (deficit-round-robin, see
/// WeightedFairScheduler); its quota bounds the *rate* it may inject work
/// regardless of how idle the rest of the system is.
struct TenantConfig {
  TenantId id;
  /// Relative share of service capacity under contention. Clamped to a
  /// small positive floor so every configured tenant owns a nonzero share —
  /// a zero weight would reintroduce starvation by configuration.
  double weight = 1.0;
  /// Token-bucket refill rate in estimated tokens per virtual second
  /// (input + estimated output, the same estimate admission prices service
  /// time with). 0 means unmetered: the tenant is bounded only by its queue
  /// share.
  double quota_tokens_per_vs = 0.0;
  /// Bucket capacity — the burst a tenant may inject after sitting idle.
  /// 0 with a nonzero rate defaults to one virtual second of refill.
  double quota_burst_tokens = 0.0;
  /// Waiting-request bound for this tenant. 0 derives a share of the
  /// server's queue_depth proportional to weight (at least 2).
  size_t queue_limit = 0;
};

/// Scheduler-wide QoS knobs. QoS is enabled on a Server by configuring at
/// least one tenant.
struct QosOptions {
  std::vector<TenantConfig> tenants;
  /// Deficit credited per round-robin visit per unit of weight, in the same
  /// token units as TenantConfig quotas. One quantum should cover a typical
  /// request so a weight-1 tenant advances every round.
  double quantum_tokens = 64.0;
  /// Priority aging: once a tenant's head-of-queue request has waited this
  /// many virtual ms, the tenant bypasses the deficit order entirely (oldest
  /// head first). This is the starvation bound — however skewed the weights,
  /// no queued request waits more than this plus one service time before it
  /// is dispatched.
  double aging_threshold_vms = 2000.0;

  bool enabled() const { return !tenants.empty(); }
};

/// Deterministic token bucket on the virtual clock. All refill arithmetic is
/// a pure function of (config, the sequence of TryTake calls), so identical
/// workloads drain identical buckets on every run and worker count.
class TokenBucket {
 public:
  /// rate <= 0 builds an unmetered bucket: TryTake always succeeds.
  TokenBucket(double tokens_per_vs, double burst_tokens);

  /// Refills to `now_vms`, then takes `cost` tokens if the bucket holds
  /// them. On refusal, *retry_after_vms (when non-null) is set to the
  /// virtual ms until the bucket will have refilled enough — the
  /// cause-specific hint a quota-shed response should carry.
  bool TryTake(double now_vms, double cost, double* retry_after_vms);

  double level() const { return level_; }
  bool metered() const { return rate_per_vms_ > 0.0; }

 private:
  double rate_per_vms_ = 0.0;  // tokens per virtual *ms*
  double burst_ = 0.0;
  double level_ = 0.0;
  double last_refill_vms_ = 0.0;
};

/// Weighted-fair dispatcher over per-tenant FIFO queues: deficit round-robin
/// with priority aging, simulated entirely in virtual time. The serving
/// layer enqueues admitted requests here (in arrival order, under its
/// admission lock) and calls AdvanceTo, which plays the dispatch decisions a
/// real fair scheduler would have made as slots freed — so which request
/// starts when is a pure function of the workload, byte-identical across
/// runs and worker counts.
///
/// Dispatch rule, each time the earliest-free virtual slot and at least one
/// queued request are both ready at u <= now:
///   1. aged tenants first — any tenant whose head has waited >=
///      aging_threshold_vms at u runs immediately, oldest head first (the
///      anti-starvation escape hatch; the charge still hits its deficit, so
///      an aged tenant borrows against its own future share, not the
///      others');
///   2. otherwise classic DRR — visit tenants round-robin, credit
///      quantum * weight per visit, dispatch while the head's cost fits the
///      accumulated deficit. A tenant's deficit resets when its queue
///      drains (no hoarding while idle).
class WeightedFairScheduler {
 public:
  struct Entry {
    uint64_t id = 0;             // caller's handle, returned as Dispatch::id
    double arrival_vms = 0.0;
    double cost_tokens = 0.0;    // DRR charge (estimated tokens)
    double service_vms = 0.0;    // estimated service time, occupies the slot
  };

  struct Dispatch {
    uint64_t id = 0;
    size_t tenant = 0;
    double start_vms = 0.0;  // assigned virtual start (>= arrival)
  };

  WeightedFairScheduler(const QosOptions& options, size_t num_slots);

  /// Appends to tenant `tenant_idx`'s FIFO. Depth policy is the caller's
  /// (check QueueLen first); the scheduler itself never refuses work.
  void Enqueue(size_t tenant_idx, const Entry& entry);

  /// Dispatches every queued entry whose virtual start is <= now_vms,
  /// appending the decisions in dispatch order. Pass +infinity to flush.
  void AdvanceTo(double now_vms, std::vector<Dispatch>* out);

  size_t QueueLen(size_t tenant_idx) const;
  size_t TotalQueued() const { return total_queued_; }
  /// When the earliest virtual slot frees — the (global) retry hint for
  /// queue-shed responses.
  double EarliestSlotFreeVms() const;
  size_t num_tenants() const { return tenants_.size(); }
  const TenantConfig& tenant_config(size_t idx) const {
    return tenants_[idx].config;
  }

 private:
  struct TenantQueue {
    TenantConfig config;
    std::deque<Entry> fifo;
    double deficit = 0.0;
  };

  /// Picks the tenant to run at virtual time u among those whose head has
  /// arrived. Requires at least one such tenant.
  size_t PickTenant(double u);

  std::vector<TenantQueue> tenants_;
  std::vector<double> slot_free_vms_;
  double quantum_tokens_;
  double aging_threshold_vms_;
  size_t rr_ = 0;           // round-robin cursor
  bool fresh_visit_ = true;  // credit tenants_[rr_] once on arrival of cursor
  size_t total_queued_ = 0;
};

/// Jain's fairness index over a vector of non-negative allocations:
/// (sum x)^2 / (n * sum x^2). 1.0 is perfectly fair; 1/n is maximally
/// unfair. Empty or all-zero input returns 1.0 (nothing to be unfair
/// about).
double JainFairnessIndex(const std::vector<double>& values);

/// Synthetic multi-tenant population: zipf-skewed tenant sizes (exponent
/// 1.1, tenant 0 the biggest), a diurnal arrival-rate curve, and designated
/// hot tenants that add clustered bursts on top of their base traffic.
/// Entirely seeded — the same options produce the same request stream byte
/// for byte.
struct PopulationOptions {
  size_t tenants = 16;
  /// Base (non-burst) requests to generate.
  size_t requests = 2000;
  /// Mean aggregate inter-arrival gap in virtual ms (exponential draws).
  double mean_gap_vms = 10.0;
  /// Diurnal modulation: instantaneous rate = base * (1 + 0.5 *
  /// sin(2*pi*t/period)); a period of 0 turns it off.
  double diurnal_period_vms = 20000.0;
  /// The first `hot_tenants` tenants additionally emit a burst of
  /// `burst_size` requests (1 virtual ms apart) every burst_every_vms.
  size_t hot_tenants = 1;
  double burst_every_vms = 8000.0;
  size_t burst_size = 32;
  /// Deadline stamped on every request (0 = none).
  double deadline_ms = 1000.0;
  /// Distinct query texts per tenant (queries repeat with this period).
  size_t inputs_per_tenant = 25;
  uint64_t seed = 1;
};

/// Tenant ids are "t00".."tNN" in popularity order. Requests come back
/// sorted by arrival_vms with ids 0..n-1 assigned in that order — ready to
/// Submit() directly.
std::vector<Request> GeneratePopulation(const PopulationOptions& options);

}  // namespace llmdm::serve

#endif  // LLMDM_SERVE_QOS_H_
