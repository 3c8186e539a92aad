// Ablation A9: queue-depth sensitivity of the backpressure machinery.
//
// The incast workload synchronizes worker responses into one aggregator, so
// the NSM->VM direction bursts hard. With deep rings (the 4096 default) the
// overflow stages stay idle; shrinking the rings to 64 and then 8 slots
// forces every layer — ServiceLib out-rings, CoreEngine staging, GuestLib
// job deferral — to absorb the burst instead. The invariant under test:
// whatever the depth, no huge-page chunk leaks and no nqe vanishes without
// being counted (deferred-and-delivered, or dropped and traced). Exits
// nonzero when any depth's audit() is not clean or fails to complete every
// query.
#include <cstdio>
#include <fstream>
#include <string>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"

namespace {

using namespace nk;
using apps::side;

constexpr int queries = 20;

struct outcome {
  int completed = 0;
  double p99_us = 0;
  double deferred = 0;     // staged anywhere in the pipeline, both hosts
  double dropped = 0;      // discarded at the overflow cap, both hosts
  double unroutable = 0;   // arrived for a torn-down mapping, both hosts
  double traced_drops = 0; // what the tracer saw vanish, both hosts
  core::audit_report books;  // chunk + drop accounting, both hosts
};

outcome run(std::size_t depth, std::uint64_t seed) {
  auto params = apps::datacenter_params(seed);
  params.wire.rate = data_rate::gbps(10);
  params.wire.queue.capacity_bytes = 512 * 1024;
  params.netkernel.channel.queues.depth = depth;
  // Trace every nqe so the accounting cross-check below is exact.
  params.netkernel.trace.enabled = true;
  params.netkernel.trace.sample_rate = 1.0;
  params.netkernel.trace.max_active = 1 << 16;
  params.netkernel.trace.max_spans = 1 << 17;
  apps::testbed bed{params};

  core::nsm_config nsm_cfg;
  nsm_cfg.cc = tcp::cc_algorithm::dctcp;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::dctcp);
  nsm_cfg.cores = 2;

  virt::vm_config vm_cfg;
  vm_cfg.name = "workers-vm";
  nsm_cfg.name = "nsm-workers";
  auto workers = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "aggregator-vm";
  nsm_cfg.name = "nsm-agg";
  auto agg = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::incast_config icfg;
  icfg.fanout = 16;
  icfg.response_size = 32 * 1024;
  icfg.queries = queries;
  apps::incast_worker_service service{*workers.api, 7000, icfg.response_size};
  service.start();
  apps::incast_aggregator aggregator{
      *agg.api, bed.sim(), {workers.module->config().address, 7000}, icfg};
  aggregator.start();

  bed.run_for(seconds(5));

  outcome out;
  out.completed = aggregator.completed();
  out.p99_us = aggregator.query_us().percentile(99);
  for (auto* ce : {&bed.netkernel(side::a), &bed.netkernel(side::b)}) {
    const auto& m = ce->metrics();
    out.deferred += m.value_of("engine_nqes_deferred").value_or(0.0);
    out.dropped += m.value_of("engine_nqes_dropped").value_or(0.0);
    out.unroutable += m.value_of("engine_unroutable_nqes").value_or(0.0);
    out.traced_drops += m.value_of("nqe_traces_dropped").value_or(0.0);
    out.books += ce->audit();
  }
  return out;
}

}  // namespace

int main() {
  std::printf(
      "Ablation A9: incast (fanout 16 x 32 KB) across nqe ring depths\n"
      "(every nqe traced; leaked = chunks not back in the pool,\n"
      " unaccounted = losses invisible to the tracer — both must be 0)\n\n");
  std::printf("%-8s %10s %12s %10s %10s %12s %8s %12s\n", "depth", "queries",
              "query p99", "deferred", "dropped", "unroutable", "leaked",
              "unaccounted");

  std::string json = "[\n";
  bool first = true;
  bool ok = true;
  for (const std::size_t depth : {8, 64, 4096}) {
    const outcome o = run(depth, 900 + depth);
    const long long leaked = o.books.leaked();
    const auto unaccounted =
        static_cast<unsigned long long>(o.books.unaccounted());
    std::printf("%-8zu %10d %9.0f us %10.0f %10.0f %12.0f %8lld %12llu\n",
                depth, o.completed, o.p99_us, o.deferred, o.dropped,
                o.unroutable, leaked, unaccounted);
    std::fputs(o.books.violations().c_str(), stderr);
    if (!o.books.clean() || o.completed < queries) {
      std::fprintf(stderr, "FAIL: depth %zu: %d of %d queries, audit %s\n",
                   depth, o.completed, queries,
                   o.books.clean() ? "clean" : "not clean");
      ok = false;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  {\"depth\": %zu, \"completed\": %d, \"p99_us\": %.1f, "
                  "\"deferred\": %.0f, \"dropped\": %.0f, "
                  "\"unroutable\": %.0f, \"traced_drops\": %.0f, "
                  "\"chunks_total\": %zu, \"chunks_free\": %zu, "
                  "\"leaked\": %lld, \"unaccounted_drops\": %llu}",
                  depth, o.completed, o.p99_us, o.deferred, o.dropped,
                  o.unroutable, o.traced_drops, o.books.chunks(),
                  o.books.chunks_free(), leaked, unaccounted);
    json += first ? "" : ",\n";
    json += buf;
    first = false;
  }
  json += "\n]\n";
  std::ofstream out{"ablate_backpressure.json"};
  out << json;
  std::printf("\nper-depth snapshots: ablate_backpressure.json\n");
  return ok ? 0 : 1;
}
