// Tenant quotas at the ServiceLib boundary (DESIGN.md §15): cycle budgets
// and chunk-pool caps are pure backpressure — observable through stats,
// quota_log, monitor alerts, and vmN gauges — and never lose work.
#include <gtest/gtest.h>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"
#include "core/monitor.hpp"

namespace {

using namespace nk;
using apps::side;

struct quota_bed {
  apps::testbed bed;
  apps::nk_tenant tx;
  apps::nk_tenant rx;

  explicit quota_bed(core::tenant_quota_config quota, std::uint64_t seed = 5)
      : bed{[&] {
          auto params = apps::datacenter_params(seed);
          params.netkernel.quota = quota;
          return params;
        }()} {
    const auto cc = tcp::cc_algorithm::cubic;
    core::nsm_config nsm_cfg;
    nsm_cfg.cc = cc;
    nsm_cfg.tcp = apps::datacenter_tcp(cc);
    virt::vm_config vm_cfg;
    vm_cfg.name = "tx-vm";
    nsm_cfg.name = "nsm-tx";
    tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
    vm_cfg.name = "rx-vm";
    nsm_cfg.name = "nsm-rx";
    rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);
  }
};

// Bulk writes burn far past a small cycle budget: the ServiceLib must
// throttle (rising-edge quota_log entries, cycle_throttles), the monitor
// must alert with a flight-recorder snapshot, the gauges must be live —
// and every byte must still arrive (backpressure, not loss).
TEST(tenant_quota, cycle_hog_is_throttled_alerted_and_lossless) {
  core::tenant_quota_config quota;
  quota.enabled = true;
  quota.cycle_budget = microseconds(10);
  quota.period = milliseconds(1);
  quota_bed q{quota};

  core::core_engine& ce = q.bed.netkernel(side::a);
  core::monitor_config mcfg;
  mcfg.interval = milliseconds(1);
  core::health_monitor mon{ce, mcfg};
  mon.start();

  apps::bulk_sink sink{*q.rx.api, 5001, /*validate=*/true};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 1;
  scfg.bytes_per_flow = 1 << 20;
  apps::bulk_sender sender{*q.tx.api,
                           {q.rx.module->config().address, 5001}, scfg};
  sender.start();

  for (int i = 0; i < 4000 && sink.flows_finished() < 1; ++i) {
    q.bed.run_for(milliseconds(1));
  }
  q.bed.run_for(milliseconds(20));

  // Backpressure, never loss: the full megabyte landed intact, just late.
  EXPECT_EQ(sink.flows_finished(), 1u);
  EXPECT_EQ(sink.total_bytes(), std::uint64_t{1} << 20);
  EXPECT_TRUE(sink.pattern_ok());

  auto* svc = ce.service_of(q.tx.module->id());
  ASSERT_NE(svc, nullptr);
  EXPECT_GT(svc->stats().cycle_throttles, 0u);
  ASSERT_FALSE(svc->quota_log().empty());
  const virt::vm_id vm = q.tx.vm->id();
  for (const auto& ev : svc->quota_log()) {
    EXPECT_EQ(ev.vm, vm);
    EXPECT_TRUE(ev.cycles);
    EXPECT_GE(ev.observed, ev.limit);
  }

  bool alerted = false;
  for (const auto& a : mon.alerts()) {
    if (a.kind == core::alert_kind::tenant_quota_exceeded && a.vm == vm) {
      alerted = true;
      EXPECT_EQ(a.module, q.tx.module->id());
      EXPECT_NE(a.detail.find("cycle budget"), std::string::npos);
    }
  }
  EXPECT_TRUE(alerted);
  ASSERT_TRUE(mon.quota_snapshots().count(vm));
  EXPECT_FALSE(mon.quota_snapshots().at(vm).empty());

  // Gauges registered per VM (live values depend on when the period last
  // rolled; existence and non-negativity are the contract).
  const auto cycles =
      ce.metrics().value_of("vm" + std::to_string(vm) + "_cycle_budget_used");
  const auto chunks =
      ce.metrics().value_of("vm" + std::to_string(vm) + "_chunk_quota_used");
  ASSERT_TRUE(cycles.has_value());
  ASSERT_TRUE(chunks.has_value());
  EXPECT_GE(*cycles, 0.0);
  EXPECT_GE(*chunks, 0.0);
}

// A tiny chunk quota stalls reads while the guest sits on undrained data;
// the transfer still completes once the guest frees chunks.
TEST(tenant_quota, chunk_cap_backpressures_reads_without_loss) {
  core::tenant_quota_config quota;
  quota.enabled = true;
  quota.cycle_budget = milliseconds(1);  // effectively uncapped
  quota.period = milliseconds(1);
  quota.chunk_quota = 4;
  quota_bed q{quota};

  apps::bulk_sink sink{*q.rx.api, 5001, /*validate=*/true};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 1;
  scfg.bytes_per_flow = 512 << 10;
  apps::bulk_sender sender{*q.tx.api,
                           {q.rx.module->config().address, 5001}, scfg};
  sender.start();

  for (int i = 0; i < 4000 && sink.flows_finished() < 1; ++i) {
    q.bed.run_for(milliseconds(1));
  }
  q.bed.run_for(milliseconds(20));

  EXPECT_EQ(sink.flows_finished(), 1u);
  EXPECT_EQ(sink.total_bytes(), std::uint64_t{512} << 10);
  EXPECT_TRUE(sink.pattern_ok());

  // The receive side (side b) is where chunks pile up against the cap.
  auto* svc = q.bed.netkernel(side::b).service_of(q.rx.module->id());
  ASSERT_NE(svc, nullptr);
  EXPECT_GT(svc->stats().chunk_quota_stalls, 0u);
  bool saw_chunk_event = false;
  for (const auto& ev : svc->quota_log()) {
    if (!ev.cycles) {
      saw_chunk_event = true;
      EXPECT_EQ(ev.limit, 4u);
    }
  }
  EXPECT_TRUE(saw_chunk_event);
}

// Quotas off (the default): nothing throttles, the log stays empty, and
// the gauges still exist reading zero / raw occupancy.
TEST(tenant_quota, disabled_quota_never_throttles) {
  core::tenant_quota_config quota;  // enabled = false
  quota_bed q{quota};

  apps::bulk_sink sink{*q.rx.api, 5001, false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 1;
  scfg.bytes_per_flow = 256 << 10;
  apps::bulk_sender sender{*q.tx.api,
                           {q.rx.module->config().address, 5001}, scfg};
  sender.start();
  for (int i = 0; i < 2000 && sink.flows_finished() < 1; ++i) {
    q.bed.run_for(milliseconds(1));
  }

  auto* svc = q.bed.netkernel(side::a).service_of(q.tx.module->id());
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(svc->stats().cycle_throttles, 0u);
  EXPECT_EQ(svc->stats().quota_stalls, 0u);
  EXPECT_EQ(svc->stats().chunk_quota_stalls, 0u);
  EXPECT_TRUE(svc->quota_log().empty());
}

// Throttling must not bend the accounting identity or leak chunks: audit
// both engines at quiescence after a throttled run.
TEST(tenant_quota, invariants_hold_under_throttling) {
  core::tenant_quota_config quota;
  quota.enabled = true;
  quota.cycle_budget = microseconds(10);
  quota.period = milliseconds(1);
  quota_bed q{quota};

  apps::bulk_sink sink{*q.rx.api, 5001, false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 2;
  scfg.bytes_per_flow = 256 << 10;
  apps::bulk_sender sender{*q.tx.api,
                           {q.rx.module->config().address, 5001}, scfg};
  sender.start();
  for (int i = 0; i < 4000 && sink.flows_finished() < 2; ++i) {
    q.bed.run_for(milliseconds(1));
  }
  q.bed.run_for(milliseconds(50));
  EXPECT_EQ(sink.flows_finished(), 2u);

  for (auto* engine : {&q.bed.netkernel(side::a), &q.bed.netkernel(side::b)}) {
    EXPECT_EQ(engine->audit().violations(), "");
  }
}

}  // namespace
