#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace llmdm::obs {
namespace {

/// Sorted `key="value"` join — the canonical identity/export form of a label
/// set. Values are escaped for the Prometheus exposition format.
std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

Labels Canonicalize(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::string LabelString(const Labels& canonical) {
  std::string out;
  for (const auto& [k, v] : canonical) {
    if (!out.empty()) out.push_back(',');
    out += k;
    out += "=\"";
    out += EscapeLabelValue(v);
    out += "\"";
  }
  return out;
}

/// Compact float rendering for bucket bounds: "1", "2.5", "1e+06".
std::string FormatBound(double v) { return common::StrFormat("%g", v); }

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += common::StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonLabels(const Labels& canonical) {
  std::string out = "{";
  for (size_t i = 0; i < canonical.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += common::StrFormat("\"%s\":\"%s\"",
                             JsonEscape(canonical[i].first).c_str(),
                             JsonEscape(canonical[i].second).c_str());
  }
  out.push_back('}');
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  size_t b = std::upper_bound(bounds_.begin(), bounds_.end(), value) -
             bounds_.begin();
  // upper_bound finds the first bound > value, but Prometheus buckets are
  // `le` (inclusive): back up when the value sits exactly on an edge.
  if (b > 0 && bounds_[b - 1] == value) --b;
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(static_cast<int64_t>(std::llround(value * 1e6)),
                        std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.buckets.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_micros = sum_micros_.load(std::memory_order_relaxed);
  return snap;
}

std::vector<double> Histogram::LatencyBoundsVms() {
  return {1,    2,    5,    10,   20,    50,    100,   200,
          500,  1000, 2000, 5000, 10000, 20000, 50000, 100000};
}

Registry::Instrument* Registry::GetOrCreate(const std::string& name,
                                            const Labels& labels, Kind kind,
                                            std::vector<double> bounds) {
  Labels canonical = Canonicalize(labels);
  Key key{name, LabelString(canonical)};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = instruments_.find(key);
  if (it != instruments_.end()) {
    // Re-registering under a different kind is a caller bug; surface it as
    // a null instrument rather than silently aliasing.
    return it->second.kind == kind ? &it->second : nullptr;
  }
  Instrument inst;
  inst.kind = kind;
  inst.labels = std::move(canonical);
  switch (kind) {
    case Kind::kCounter:
      inst.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      inst.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      inst.histogram = std::make_unique<Histogram>(std::move(bounds));
      break;
  }
  return &instruments_.emplace(std::move(key), std::move(inst)).first->second;
}

Counter* Registry::GetCounter(const std::string& name, const Labels& labels) {
  Instrument* inst = GetOrCreate(name, labels, Kind::kCounter, {});
  return inst == nullptr ? nullptr : inst->counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, const Labels& labels) {
  Instrument* inst = GetOrCreate(name, labels, Kind::kGauge, {});
  return inst == nullptr ? nullptr : inst->gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name, const Labels& labels,
                                  std::vector<double> bounds) {
  Instrument* inst =
      GetOrCreate(name, labels, Kind::kHistogram, std::move(bounds));
  return inst == nullptr ? nullptr : inst->histogram.get();
}

size_t Registry::instrument_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return instruments_.size();
}

std::string Registry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  const std::string* last_name = nullptr;
  for (const auto& [key, inst] : instruments_) {
    const std::string& name = key.first;
    const std::string& label_str = key.second;
    if (last_name == nullptr || *last_name != name) {
      const char* type = inst.kind == Kind::kCounter    ? "counter"
                         : inst.kind == Kind::kGauge    ? "gauge"
                                                        : "histogram";
      out += common::StrFormat("# TYPE %s %s\n", name.c_str(), type);
      last_name = &name;
    }
    auto series = [&](const std::string& suffix, const std::string& extra) {
      std::string s = name + suffix;
      std::string merged = label_str;
      if (!extra.empty()) {
        if (!merged.empty()) merged += ",";
        merged += extra;
      }
      if (!merged.empty()) s += "{" + merged + "}";
      return s;
    };
    switch (inst.kind) {
      case Kind::kCounter:
        out += common::StrFormat("%s %llu\n", series("", "").c_str(),
                                 static_cast<unsigned long long>(
                                     inst.counter->value()));
        break;
      case Kind::kGauge:
        out += common::StrFormat(
            "%s %lld\n", series("", "").c_str(),
            static_cast<long long>(inst.gauge->value()));
        break;
      case Kind::kHistogram: {
        Histogram::Snapshot snap = inst.histogram->TakeSnapshot();
        uint64_t cumulative = 0;
        for (size_t b = 0; b < snap.buckets.size(); ++b) {
          cumulative += snap.buckets[b];
          std::string le = b < snap.bounds.size()
                               ? FormatBound(snap.bounds[b])
                               : "+Inf";
          out += common::StrFormat(
              "%s %llu\n",
              series("_bucket", "le=\"" + le + "\"").c_str(),
              static_cast<unsigned long long>(cumulative));
        }
        out += common::StrFormat("%s %.6f\n", series("_sum", "").c_str(),
                                 snap.sum());
        out += common::StrFormat(
            "%s %llu\n", series("_count", "").c_str(),
            static_cast<unsigned long long>(snap.count));
        break;
      }
    }
  }
  return out;
}

std::string Registry::JsonSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& [key, inst] : instruments_) {
    if (!first) out.push_back(',');
    first = false;
    out += common::StrFormat("{\"name\":\"%s\",\"labels\":%s",
                             JsonEscape(key.first).c_str(),
                             JsonLabels(inst.labels).c_str());
    switch (inst.kind) {
      case Kind::kCounter:
        out += common::StrFormat(
            ",\"type\":\"counter\",\"value\":%llu}",
            static_cast<unsigned long long>(inst.counter->value()));
        break;
      case Kind::kGauge:
        out += common::StrFormat(
            ",\"type\":\"gauge\",\"value\":%lld}",
            static_cast<long long>(inst.gauge->value()));
        break;
      case Kind::kHistogram: {
        Histogram::Snapshot snap = inst.histogram->TakeSnapshot();
        out += ",\"type\":\"histogram\",\"bounds\":[";
        for (size_t b = 0; b < snap.bounds.size(); ++b) {
          if (b > 0) out.push_back(',');
          out += FormatBound(snap.bounds[b]);
        }
        out += "],\"buckets\":[";
        for (size_t b = 0; b < snap.buckets.size(); ++b) {
          if (b > 0) out.push_back(',');
          out += common::StrFormat(
              "%llu", static_cast<unsigned long long>(snap.buckets[b]));
        }
        out += common::StrFormat(
            "],\"count\":%llu,\"sum_micros\":%lld}",
            static_cast<unsigned long long>(snap.count),
            static_cast<long long>(snap.sum_micros));
        break;
      }
    }
  }
  out += "]}";
  return out;
}

}  // namespace llmdm::obs
