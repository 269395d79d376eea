#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>

#include "embed/embedder.h"
#include "vectordb/kernels.h"

namespace perfbench {

namespace llm = llmdm::llm;
namespace net = llmdm::net;
namespace common = llmdm::common;
namespace kernels = llmdm::vectordb::kernels;

namespace {
constexpr int64_t kReplayNs = 100'000'000;  // 100 ms of timed work per replay
constexpr size_t kProbeWidth = 4;           // SemanticCache's lookup top-k
}  // namespace

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values->size()));
  return (*values)[std::min(idx, values->size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double MiddleMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t drop = values.size() / 4;
  return Mean(std::vector<double>(values.begin() + drop, values.end() - drop));
}

namespace {
// A "Name:   1234 kB" line of /proc/self/status, in MiB.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.compare(0, field.size(), field) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}
}  // namespace

double ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return StatusMb("VmRSS:");
}

double PeakRssMb() { return StatusMb("VmHWM:"); }

WallStats SegmentedWallStats(const std::vector<Sample>& samples,
                             int64_t start_ns, int64_t end_ns) {
  constexpr size_t kSegments = 12;
  const double window_ns =
      std::max<double>(1.0, static_cast<double>(end_ns - start_ns) / kSegments);
  std::vector<std::vector<double>> latencies(kSegments);
  for (const Sample& s : samples) {
    const size_t k = std::min<size_t>(
        kSegments - 1,
        static_cast<size_t>(std::max<double>(0.0, (s.done_ns - start_ns) / window_ns)));
    latencies[k].push_back(s.latency_us);
  }
  std::vector<double> rps, p50, p90;
  for (std::vector<double>& window : latencies) {
    if (window.empty()) continue;
    rps.push_back(window.size() / (window_ns / 1e9));
    p50.push_back(Percentile(&window, 0.50));
    p90.push_back(Percentile(&window, 0.90));
  }
  return WallStats{MiddleMean(rps), MiddleMean(p50), MiddleMean(p90)};
}

void Report::Fail(const std::string& note) {
  ++failed;
  if (failure_notes.size() < 8) failure_notes.push_back(note);
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

double TokenCacheHitRatio(const llmdm::text::TokenCountCacheStats& before) {
  const llmdm::text::TokenCountCacheStats now =
      llmdm::text::GetTokenCountCacheStats();
  const double lookups = static_cast<double>(now.hits + now.misses -
                                             before.hits - before.misses);
  return lookups == 0 ? 0.0 : (now.hits - before.hits) / lookups;
}

// ---- TimingLlm ----

void TimingLlm::Record(int64_t t0,
                       const common::Result<llm::Completion>& result) {
  const uint64_t ns = static_cast<uint64_t>(NowNs() - t0);
  times_->calls.fetch_add(1, std::memory_order_relaxed);
  times_->ns.fetch_add(ns, std::memory_order_relaxed);
  if (result.ok() && EndsWith(result->model, "+cache")) {
    times_->hit_calls.fetch_add(1, std::memory_order_relaxed);
    times_->hit_ns.fetch_add(ns, std::memory_order_relaxed);
  }
}

common::Result<llm::Completion> TimingLlm::Complete(const llm::Prompt& prompt) {
  const int64_t t0 = NowNs();
  auto result = inner_->Complete(prompt);
  Record(t0, result);
  return result;
}

common::Result<llm::Completion> TimingLlm::CompleteMetered(
    const llm::Prompt& prompt, llm::UsageMeter* meter) {
  const int64_t t0 = NowNs();
  auto result = inner_->CompleteMetered(prompt, meter);
  Record(t0, result);
  return result;
}

std::vector<common::Result<llm::Completion>> TimingLlm::CompleteBatch(
    const std::vector<llm::Prompt>& prompts) {
  const int64_t t0 = NowNs();
  auto results = inner_->CompleteBatch(prompts);
  times_->calls.fetch_add(prompts.size(), std::memory_order_relaxed);
  times_->ns.fetch_add(static_cast<uint64_t>(NowNs() - t0),
                       std::memory_order_relaxed);
  times_->batch_calls.fetch_add(1, std::memory_order_relaxed);
  return results;
}

// ---- Offline replays ----

double CodecNsPerFrame(const std::vector<net::WireRequest>& requests) {
  if (requests.empty()) return 0.0;
  uint64_t frames = 0;
  int64_t spent = 0;
  std::string stream;
  net::Frame frame;
  while (spent < kReplayNs) {
    const int64_t t0 = NowNs();
    stream.clear();
    for (const net::WireRequest& r : requests) {
      stream += net::EncodeRequestFrame(r);
    }
    net::FrameDecoder decoder;
    // Feed in socket-read-sized pieces, as the server's loop does.
    for (size_t off = 0; off < stream.size(); off += 65536) {
      if (!decoder.Feed(std::string_view(stream).substr(off, 65536)).ok()) {
        return -1.0;
      }
      while (decoder.Next(&frame)) {
        if (!net::DecodeRequest(frame.payload).ok()) return -1.0;
        ++frames;
      }
    }
    spent += NowNs() - t0;
  }
  return static_cast<double>(spent) / static_cast<double>(frames);
}

double EmbedUs(const std::vector<std::string>& texts) {
  if (texts.empty()) return 0.0;
  llmdm::embed::HashingEmbedder embedder;
  llmdm::embed::Vector out;
  uint64_t items = 0;
  int64_t spent = 0;
  while (spent < kReplayNs) {
    const int64_t t0 = NowNs();
    for (const std::string& text : texts) embedder.EmbedInto(text, &out);
    spent += NowNs() - t0;
    items += texts.size();
  }
  return static_cast<double>(spent) / 1e3 / static_cast<double>(items);
}

double ScanUs(const std::vector<std::string>& arena_texts, size_t rows,
              const std::vector<std::string>& queries) {
  if (arena_texts.empty() || queries.empty() || rows == 0) return 0.0;
  llmdm::embed::HashingEmbedder embedder;
  const size_t dim = embedder.dimension();
  std::vector<float> arena(rows * dim);
  for (size_t r = 0; r < rows; ++r) {
    embedder.EmbedInto(arena_texts[r % arena_texts.size()],
                       arena.data() + r * dim);
  }
  std::vector<float> qs(queries.size() * dim);
  for (size_t q = 0; q < queries.size(); ++q) {
    embedder.EmbedInto(queries[q], qs.data() + q * dim);
  }
  std::vector<float> scores(rows);
  uint64_t scans = 0;
  int64_t spent = 0;
  float sink = 0.0f;
  while (spent < kReplayNs) {
    const int64_t t0 = NowNs();
    for (size_t q = 0; q < queries.size(); ++q) {
      kernels::DotBatch(qs.data() + q * dim, arena.data(), rows, dim,
                        scores.data());
      kernels::TopKSelector top(kProbeWidth);
      for (size_t r = 0; r < rows; ++r) top.Offer(scores[r], r);
      sink += top.TakeSorted().front().score;
    }
    spent += NowNs() - t0;
    scans += queries.size();
  }
  if (sink == 12345.0f) std::fputc(' ', stderr);  // keep the scan observable
  return static_cast<double>(spent) / 1e3 / static_cast<double>(scans);
}

}  // namespace perfbench
