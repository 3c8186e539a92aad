// Ablation A6 (paper §2.1): the provider can "dynamically scale up the
// network stack module with more dedicated cores; or scale out with more
// modules to support higher throughput."
//
// A deliberately CPU-starved NSM (expensive per-byte stack) serves a
// tenant; we scale up (1 -> 2 -> 4 cores) and scale out (a second NSM for
// a second flow set) and report the tenant's aggregate throughput.
//
// Ablation A13 (DESIGN.md §13): engine sharding. Here the *CoreEngine*
// (not the stack) is made the bottleneck by inflating the per-nqe copy
// cost; sweeping the shard count at fixed NSM cores shows the multi-queue
// engine scaling near-linearly while a shards=1 engine saturates one core.
// `--smoke` runs the A13 sweep plus a depth-8 backpressure stress as a CI
// gate: 4 shards must deliver >= 3x the 1-shard throughput, the per-shard
// and aggregate drop-accounting invariants must hold, and no huge-page
// chunk may leak.
#include <cstdio>
#include <cstring>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"

namespace {

using namespace nk;
using apps::side;

// A heavy stack: one core worth of this processing tops out around 8 Gb/s,
// so core count is the binding resource.
core::nsm_config heavy_nsm(const char* name, int cores) {
  core::nsm_config cfg;
  cfg.name = name;
  cfg.cores = cores;
  cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  cfg.tx_cost = stack::processing_cost{nanoseconds(200), 0.5};
  cfg.rx_cost = stack::processing_cost{nanoseconds(200), 0.5};
  return cfg;
}

double run_scale_up(int cores) {
  apps::testbed bed{apps::datacenter_params(31)};
  virt::vm_config vm_cfg;
  vm_cfg.name = "tx-vm";
  auto tx = bed.add_netkernel_vm(side::a, vm_cfg, heavy_nsm("nsm-a", cores));
  vm_cfg.name = "rx-vm";
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, heavy_nsm("nsm-b", cores));

  apps::bulk_sink sink{*rx.api, 5001, false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = cores;  // enough flows to use every core
  scfg.bytes_per_flow = 0;
  scfg.patterned = false;
  apps::bulk_sender sender{*tx.api, {rx.module->config().address, 5001},
                           scfg};
  sender.start();

  bed.run_for(milliseconds(100));
  const std::uint64_t warm = sink.total_bytes();
  bed.run_for(milliseconds(300));
  return rate_of(sink.total_bytes() - warm, milliseconds(300)).bps() / 1e9;
}

double run_scale_out(int nsms) {
  apps::testbed bed{apps::datacenter_params(32)};
  virt::vm_config vm_cfg;
  vm_cfg.name = "rx-vm";
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg,
                                 heavy_nsm("nsm-rx", 2 * nsms));
  apps::bulk_sink sink{*rx.api, 5001, false};
  sink.start();

  std::vector<apps::nk_tenant> tenants;
  std::vector<std::unique_ptr<apps::bulk_sender>> senders;
  for (int i = 0; i < nsms; ++i) {
    vm_cfg.name = "tx-vm-" + std::to_string(i);
    tenants.push_back(bed.add_netkernel_vm(
        side::a, vm_cfg,
        heavy_nsm(("nsm-" + std::to_string(i)).c_str(), 1)));
    apps::bulk_sender_config scfg;
    scfg.flows = 1;
    scfg.bytes_per_flow = 0;
    scfg.patterned = false;
    senders.push_back(std::make_unique<apps::bulk_sender>(
        *tenants.back().api,
        net::socket_addr{rx.module->config().address, 5001}, scfg));
    senders.back()->start();
  }

  bed.run_for(milliseconds(100));
  const std::uint64_t warm = sink.total_bytes();
  bed.run_for(milliseconds(300));
  return rate_of(sink.total_bytes() - warm, milliseconds(300)).bps() / 1e9;
}

// --- A13: engine sharding ----------------------------------------------------

struct shard_outcome {
  double gbps = 0;
  std::size_t busy_shards = 0;        // shards that forwarded at least once
  std::uint64_t forwarded = 0;        // aggregate, tx-side engine
  bool stats_sum_matches = false;     // per-shard partitions sum to aggregate
};

// A light stack for the A13 runs: the engine must be the only bottleneck.
core::nsm_config light_nsm(const char* name, int cores) {
  core::nsm_config cfg;
  cfg.name = name;
  cfg.cores = cores;
  cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  return cfg;
}

// The engine is the binding resource: an exaggerated 6 us per nqe copy caps
// one engine core around 5 Gb/s of 8 KB chunks (job + completion per chunk),
// far below the 40 Gb/s wire and the default-cost 4-core NSM stacks on
// either side.
shard_outcome run_engine_shards(std::size_t shards) {
  auto params = apps::datacenter_params(41);
  params.netkernel.shards = shards;
  params.netkernel.costs.nqe_copy = microseconds(6);
  // Bound per-lane chunk hoarding: a saturated lane with 4096-deep rings
  // (the default) can park most of the shared huge-page pool in its own
  // receive ring, starving every other shard's flows of chunks. With
  // 256-slot rings and a 256-nqe stage, one hot lane holds at most ~512
  // chunks of the 10k pool.
  params.netkernel.channel.queues.depth = 256;
  params.netkernel.overflow_limit = 256;
  apps::testbed bed{params};

  virt::vm_config vm_cfg;
  vm_cfg.name = "tx-vm";
  auto tx = bed.add_netkernel_vm(side::a, vm_cfg, light_nsm("nsm-a", 4));
  vm_cfg.name = "rx-vm";
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, light_nsm("nsm-b", 4));

  apps::bulk_sink sink{*rx.api, 5001, false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 128;  // enough flows that hashing skew across shards stays small
  scfg.bytes_per_flow = 0;
  scfg.patterned = false;
  apps::bulk_sender sender{*tx.api, {rx.module->config().address, 5001},
                           scfg};
  sender.start();

  bed.run_for(milliseconds(100));
  const std::uint64_t warm = sink.total_bytes();
  bed.run_for(milliseconds(300));

  shard_outcome out;
  out.gbps = rate_of(sink.total_bytes() - warm, milliseconds(300)).bps() / 1e9;
  auto& ce = bed.netkernel(side::a);
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < ce.shards(); ++s) {
    const auto fwd = ce.shard_stats(s).nqes_forwarded;
    sum += fwd;
    if (fwd > 0) ++out.busy_shards;
  }
  out.forwarded = ce.stats().nqes_forwarded;
  out.stats_sum_matches = sum == out.forwarded;
  return out;
}

// Depth-8 rings at shards=4 under the same engine-bound load: every lane's
// overflow machinery engages. With every nqe traced, each engine-side loss
// (unroutable, capped, stale) must retire a live trace in the shard that
// discarded it, and every huge-page chunk must come home.
struct stress_outcome {
  core::audit_report books;   // both hosts
  std::uint64_t dropped = 0;  // engine drops, both hosts
};

stress_outcome run_shard_backpressure() {
  auto params = apps::datacenter_params(42);
  params.netkernel.shards = 4;
  params.netkernel.costs.nqe_copy = microseconds(6);
  params.netkernel.channel.queues.depth = 8;
  params.netkernel.overflow_limit = 64;
  params.netkernel.trace.enabled = true;
  params.netkernel.trace.sample_rate = 1.0;
  params.netkernel.trace.max_active = 1 << 16;
  params.netkernel.trace.max_spans = 1 << 17;
  apps::testbed bed{params};

  virt::vm_config vm_cfg;
  vm_cfg.name = "tx-vm";
  auto tx = bed.add_netkernel_vm(side::a, vm_cfg, light_nsm("nsm-a", 4));
  vm_cfg.name = "rx-vm";
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, light_nsm("nsm-b", 4));

  apps::bulk_sink sink{*rx.api, 5001, false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 16;
  scfg.bytes_per_flow = 256 * 1024;
  scfg.patterned = false;
  apps::bulk_sender sender{*tx.api, {rx.module->config().address, 5001},
                           scfg};
  sender.start();
  bed.run_for(seconds(5));

  stress_outcome out;
  for (auto* ce : {&bed.netkernel(side::a), &bed.netkernel(side::b)}) {
    out.books += ce->audit();
    out.dropped += ce->stats().nqes_dropped;
  }
  return out;
}

int run_smoke() {
  std::printf("A13 smoke: engine-sharding gates\n");
  const shard_outcome one = run_engine_shards(1);
  const shard_outcome four = run_engine_shards(4);
  const double speedup = one.gbps > 0 ? four.gbps / one.gbps : 0;
  std::printf("  1 shard:  %6.2f Gb/s (%zu busy)\n", one.gbps,
              one.busy_shards);
  std::printf("  4 shards: %6.2f Gb/s (%zu busy) -> speedup %.2fx\n",
              four.gbps, four.busy_shards, speedup);
  const stress_outcome st = run_shard_backpressure();
  std::printf(
      "  depth-8 stress: per-shard invariant %s, aggregate %s, "
      "leaked %lld, engine drops %llu\n",
      st.books.shards_balanced() ? "ok" : "VIOLATED",
      st.books.pipeline_balanced() ? "ok" : "VIOLATED", st.books.leaked(),
      static_cast<unsigned long long>(st.dropped));
  std::fputs(st.books.violations().c_str(), stderr);

  int failures = 0;
  if (speedup < 3.0) {
    std::printf("  FAIL: 4-shard speedup %.2fx < 3x\n", speedup);
    ++failures;
  }
  if (!one.stats_sum_matches || !four.stats_sum_matches) {
    std::printf("  FAIL: shard partitions do not sum to aggregate stats\n");
    ++failures;
  }
  if (four.busy_shards < 4) {
    std::printf("  FAIL: only %zu of 4 shards forwarded nqes\n",
                four.busy_shards);
    ++failures;
  }
  if (!st.books.shards_balanced() || !st.books.pipeline_balanced()) {
    std::printf("  FAIL: drop-accounting invariant violated\n");
    ++failures;
  }
  if (st.books.leaked() != 0) {
    std::printf("  FAIL: %lld chunks leaked under backpressure\n",
                st.books.leaked());
    ++failures;
  }
  std::printf(failures == 0 ? "  PASS\n" : "  %d gate(s) failed\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();
  std::printf(
      "Ablation A6: SLA scaling of NSMs (paper §2.1 scale-up / scale-out)\n"
      "deliberately heavy stack: ~1 core per ~8 Gb/s\n\n");
  std::printf("scale-up (cores per NSM):\n");
  for (const int cores : {1, 2, 4}) {
    std::printf("  %d core(s): %7.2f Gb/s\n", cores, run_scale_up(cores));
  }
  std::printf("\nscale-out (one-core NSMs, one flow each):\n");
  for (const int nsms : {1, 2, 4}) {
    std::printf("  %d NSM(s):  %7.2f Gb/s\n", nsms, run_scale_out(nsms));
  }
  return 0;
}
