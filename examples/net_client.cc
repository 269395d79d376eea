// Network quickstart: drive the wire protocol over loopback with
// net::Client — the three moves a remote caller makes.
//  1. stand up a serve::Server behind net::NetServer on an ephemeral port;
//  2. make one call: the response frame carries the whole completion and
//     its metadata;
//  3. overload the tiny admission queue, get shed with a cause-specific
//     retry_after_vms hint on the error frame, and retry when it says to.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/example_net_client
#include <cstdio>

#include "llm/simulated.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/server.h"

int main() {
  using namespace llmdm;

  // 1. The backend: a deliberately tiny server (1 virtual slot, queue depth
  //    2) so step 3 can trip the shed path on demand. Port 0 = ephemeral.
  auto models = llm::CreatePaperModelLadder(nullptr, 2024);
  serve::Server::Options serve_options;
  serve_options.worker_threads = 2;
  serve_options.virtual_concurrency = 1;
  serve_options.queue_depth = 2;
  serve_options.shed_policy = serve::ShedPolicy::kQueueFull;
  serve_options.retain_responses = false;
  serve::Server backend(models[0], serve_options);

  net::NetServer::Options net_options;
  net_options.port = 0;
  net::NetServer server(&backend, net_options);
  if (common::Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("server listening on 127.0.0.1:%u\n", server.port());

  net::Client client;
  net::Client::Options copts;
  copts.port = server.port();
  if (common::Status s = client.Connect(copts); !s.ok()) {
    std::fprintf(stderr, "connect: %s\n", s.ToString().c_str());
    return 1;
  }

  // 2. One call: the whole completion comes back in one response frame.
  net::WireRequest request;
  request.id = 1;
  request.skill = "freeform";
  request.input = "Summarize the stadium concert attendance trends.";
  request.arrival_vms = 0.0;
  auto answer = client.Call(request);
  if (!answer.ok()) {
    std::fprintf(stderr, "call: %s\n", answer.status().ToString().c_str());
    return 1;
  }
  std::printf("answered by %s (%zu bytes, %.1f vms)\n\n",
              answer->model.c_str(), answer->text.size(),
              answer->latency_vms);

  // 3. Shed + retry: burst past the queue depth at one virtual instant.
  //    The refused requests come back as error frames carrying the shed
  //    cause and the earliest virtual time a retry can succeed — so the
  //    client retries *at* the hint instead of hammering the door.
  double arrival = 100.0;
  std::vector<net::WireRequest> burst;
  for (uint64_t id = 10; id < 18; ++id) {
    net::WireRequest r;
    r.id = id;
    r.input = "burst question #" + std::to_string(id);
    r.arrival_vms = arrival;  // all at once: the queue model must refuse some
    burst.push_back(r);
  }
  auto results = client.CallBatch(burst);
  if (!results.ok()) {
    std::fprintf(stderr, "batch: %s\n", results.status().ToString().c_str());
    return 1;
  }
  size_t shed = 0;
  for (const net::ClientResult& r : *results) {
    if (!r.shed) continue;
    ++shed;
    std::printf("  id %llu shed (cause %d): retry after %.0f vms\n",
                static_cast<unsigned long long>(r.id),
                static_cast<int>(r.shed_cause), r.retry_after_vms);
    // The retry loop: resubmit at the hinted virtual time.
    net::WireRequest retry;
    retry.id = r.id + 100;
    retry.input = "burst question #" + std::to_string(r.id);
    retry.arrival_vms = arrival + r.retry_after_vms;
    auto again = client.Call(retry);
    if (again.ok() && again->status.ok()) {
      std::printf("    retry at %.0f vms: ok (%s)\n", retry.arrival_vms,
                  again->model.c_str());
    } else if (again.ok()) {
      std::printf("    retry at %.0f vms: %s\n", retry.arrival_vms,
                  again->status.ToString().c_str());
    }
  }
  std::printf("burst of %zu: %zu shed and retried\n", burst.size(), shed);

  client.Close();
  server.Shutdown();
  (void)backend.Drain();
  return 0;
}
