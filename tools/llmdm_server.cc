// llmdm_server — the network front door as a deployable binary.
//
// Stands up the simulated model ladder behind a serve::Server (bounded
// admission and load shedding) and serves the llmdm wire protocol on a TCP
// port via net::NetServer. SIGINT/SIGTERM triggers a graceful drain: stop
// accepting, refuse new requests with kUnavailable error frames, flush every
// in-flight response, then exit — bounded by --drain-deadline-ms of wall
// time.
//
//   ./build/tools/llmdm_server --port=7421 --workers=8 --queue-depth=64
//
// Talk to it with net::Client (see examples/net_client.cc) or the loadgen
// (bench_net_loadgen --port=...).
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "llm/simulated.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace {

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true); }

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t len = strlen(name);
  if (strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace llmdm;

  uint16_t port = 7421;
  size_t workers = 8;
  size_t queue_depth = 64;
  std::string shed_policy = "queue";
  double drain_deadline_ms = 10000.0;
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--port", &value)) {
      port = static_cast<uint16_t>(atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--workers", &value)) {
      workers = static_cast<size_t>(atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--queue-depth", &value)) {
      queue_depth = static_cast<size_t>(atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--shed-policy", &value)) {
      shed_policy = value;  // none | queue | deadline
    } else if (ParseFlag(argv[i], "--drain-deadline-ms", &value)) {
      drain_deadline_ms = atof(value.c_str());
    } else if (ParseFlag(argv[i], "--metrics-out", &value)) {
      metrics_out = value;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port=N] [--workers=N] [--queue-depth=N] "
                   "[--shed-policy=none|queue|deadline] "
                   "[--drain-deadline-ms=MS] [--metrics-out=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  // One registry aggregates both layers: llmdm_serve_* (admission,
  // shedding, latency) and llmdm_net_* (transport) series side by side.
  obs::Registry registry;
  auto models = llm::CreatePaperModelLadder(nullptr, 2024);

  serve::Server::Options serve_options;
  serve_options.worker_threads = workers;
  serve_options.virtual_concurrency = workers;
  serve_options.queue_depth = queue_depth;
  serve_options.shed_policy = shed_policy == "none"
                                  ? serve::ShedPolicy::kNone
                                  : (shed_policy == "deadline"
                                         ? serve::ShedPolicy::kDeadlineAware
                                         : serve::ShedPolicy::kQueueFull);
  serve_options.registry = &registry;
  // Long-running: responses leave through the network sink; retaining them
  // all for Drain() would grow without bound.
  serve_options.retain_responses = false;
  serve::Server backend(models[2], serve_options);

  net::NetServer::Options net_options;
  net_options.port = port;
  net_options.drain_deadline_ms = drain_deadline_ms;
  net_options.registry = &registry;
  net::NetServer server(&backend, net_options);
  common::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "llmdm_server: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "llmdm_server: listening on %u (workers=%zu, depth=%zu, shed=%s)\n",
               server.port(), workers, queue_depth, shed_policy.c_str());

  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  while (!g_shutdown.load()) {
    usleep(100 * 1000);
  }

  std::fprintf(stderr, "llmdm_server: draining...\n");
  server.Shutdown();
  (void)backend.Drain();

  net::NetStats net_stats = server.stats();
  serve::ServerStats serve_stats = backend.stats();
  std::fprintf(stderr,
               "llmdm_server: done. conns=%llu requests=%llu responses=%llu "
               "shed=%llu forced_closes=%llu | submitted=%zu "
               "completed=%zu failed=%zu\n",
               static_cast<unsigned long long>(net_stats.connections_accepted),
               static_cast<unsigned long long>(net_stats.requests_rx),
               static_cast<unsigned long long>(net_stats.responses_tx),
               static_cast<unsigned long long>(net_stats.shed_tx),
               static_cast<unsigned long long>(net_stats.drain_forced_closes),
               serve_stats.submitted, serve_stats.completed,
               serve_stats.failed);
  if (!metrics_out.empty()) {
    std::string prom = registry.PrometheusText();
    FILE* f = fopen(metrics_out.c_str(), "w");
    if (f != nullptr) {
      fwrite(prom.data(), 1, prom.size(), f);
      fclose(f);
    }
  }
  return 0;
}
