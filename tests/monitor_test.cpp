// Centralized management tests: health sampling, overload alerts, channel
// stall detection, and the scale-up autoscaler (paper §5 / §2.1).
#include <gtest/gtest.h>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"
#include "core/hostile.hpp"
#include "core/monitor.hpp"

namespace nk::core {
namespace {

using apps::side;
using apps::testbed;

TEST(health_monitor, samples_every_nsm_periodically) {
  testbed bed{apps::datacenter_params(21)};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "t1";
  auto t1 = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);

  monitor_config mcfg;
  mcfg.interval = milliseconds(5);
  health_monitor mon{bed.netkernel(side::a), mcfg};
  mon.start();
  bed.run_for(milliseconds(52));

  EXPECT_EQ(mon.ticks(), 10u);
  EXPECT_EQ(mon.history_of(t1.module->id()).size(), 10u);
  EXPECT_TRUE(mon.alerts().empty());  // idle NSM: no overload
  EXPECT_NE(mon.report().find("util="), std::string::npos);
  mon.stop();
  bed.run_for(milliseconds(50));
  EXPECT_EQ(mon.ticks(), 10u);  // stopped monitors stop ticking
}

TEST(health_monitor, overload_alert_fires_under_saturation) {
  testbed bed{apps::datacenter_params(22)};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  // A heavy stack guarantees the single NSM core saturates.
  nsm_cfg.tx_cost = stack::processing_cost{nanoseconds(300), 0.6};
  virt::vm_config vm_cfg;
  vm_cfg.name = "tx";
  auto tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "rx";
  nsm_cfg.name = "nsm-rx";
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::bulk_sink sink{*rx.api, 5001, false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 2;
  scfg.bytes_per_flow = 0;
  scfg.patterned = false;
  apps::bulk_sender sender{*tx.api, {rx.module->config().address, 5001},
                           scfg};
  sender.start();

  monitor_config mcfg;
  mcfg.interval = milliseconds(5);
  health_monitor mon{bed.netkernel(side::a), mcfg};
  mon.start();
  bed.run_for(milliseconds(200));

  bool overloaded = false;
  for (const auto& a : mon.alerts()) {
    if (a.kind == alert_kind::nsm_overloaded &&
        a.module == tx.module->id()) {
      overloaded = true;
    }
  }
  EXPECT_TRUE(overloaded);
}

TEST(health_monitor, stalled_channel_detected) {
  // Batched-interrupt mode with a hand-pushed nqe and no doorbell: the job
  // queue holds data but nothing drains it — a wedged channel.
  auto params = apps::datacenter_params(23);
  params.netkernel.notification.kind =
      notify_config::mode::batched_interrupt;
  testbed bed{params};
  nsm_config nsm_cfg;
  virt::vm_config vm_cfg;
  vm_cfg.name = "t1";
  auto t1 = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);

  auto* ch = bed.netkernel(side::a).channel_of(t1.vm->id());
  shm::nqe junk;
  junk.op = shm::nqe_op::req_send;
  junk.handle = 424242;
  ASSERT_TRUE(ch->vm_q().job.push(junk));  // no doorbell rung

  monitor_config mcfg;
  mcfg.interval = milliseconds(5);
  health_monitor mon{bed.netkernel(side::a), mcfg};
  mon.start();
  bed.run_for(milliseconds(100));

  bool stalled = false;
  for (const auto& a : mon.alerts()) {
    if (a.kind == alert_kind::channel_stalled && a.vm == t1.vm->id()) {
      stalled = true;
    }
  }
  EXPECT_TRUE(stalled);
}

TEST(failure_detection, crashed_nsm_is_silent_and_monitor_flags_it) {
  testbed bed{apps::datacenter_params(25)};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "client";
  auto client = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "server";
  nsm_cfg.name = "nsm-b";
  auto server = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  // Server listener + a connected tenant socket.
  auto& gs = *server.glib;
  const auto lfd = gs.nk_socket().value();
  ASSERT_TRUE(gs.nk_bind(lfd, 7000).ok());
  ASSERT_TRUE(gs.nk_listen(lfd).ok());
  auto& gc = *client.glib;
  const auto fd = gc.nk_socket().value();
  bool connected = false;
  errc tenant_error = errc::ok;
  gc.set_event_handler([&](std::uint32_t f, stack::socket_event_type t,
                           errc e) {
    if (f != fd) return;
    if (t == stack::socket_event_type::connected) connected = true;
    if (t == stack::socket_event_type::error) tenant_error = e;
  });
  ASSERT_TRUE(
      gc.nk_connect(fd, {server.module->config().address, 7000}).ok());
  bed.run_for(milliseconds(50));
  ASSERT_TRUE(connected);

  monitor_config mcfg;
  mcfg.interval = milliseconds(5);
  health_monitor mon{bed.netkernel(side::a), mcfg};
  mon.start();

  // The client-side NSM dies. A crashed stack says no goodbyes: without a
  // supervisor there is no replacement, so the tenant hears nothing.
  bed.netkernel(side::a).service_of(client.module->id())->fail();
  bed.run_for(milliseconds(50));
  EXPECT_EQ(tenant_error, errc::ok);

  // The monitor sees the crash flag within one tick.
  bool flagged = false;
  for (const auto& a : mon.alerts()) {
    if (a.kind == alert_kind::nsm_failed && a.module == client.module->id()) {
      flagged = true;
      EXPECT_NE(a.detail.find("crashed"), std::string::npos);
    }
  }
  EXPECT_TRUE(flagged);

  // New work toward the dead module queues without progress — the stall
  // detector flags the wedged channel too.
  const auto fd2 = gc.nk_socket().value();
  (void)gc.nk_connect(fd2, {server.module->config().address, 7000});
  bed.run_for(milliseconds(200));
  bool stalled = false;
  for (const auto& a : mon.alerts()) {
    if (a.kind == alert_kind::channel_stalled && a.vm == client.vm->id()) {
      stalled = true;
    }
  }
  EXPECT_TRUE(stalled);
}

TEST(failure_detection, frozen_nsm_detected_within_deadline) {
  // freeze() wedges the drain loop without setting the failed flag — the
  // watchdog must catch the silence via missed heartbeats, and must honor
  // the configured deadline (no alert before it, one soon after).
  testbed bed{apps::datacenter_params(26)};
  nsm_config nsm_cfg;
  virt::vm_config vm_cfg;
  vm_cfg.name = "t1";
  auto t1 = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  bed.run_for(milliseconds(10));  // module boots, heartbeat starts

  bed.netkernel(side::a).service_of(t1.module->id())->freeze();
  const sim_time frozen_at = bed.sim().now();
  // Queued-but-undrained work is what distinguishes "idle" from "wedged".
  (void)t1.glib->nk_socket();

  monitor_config mcfg;
  mcfg.interval = milliseconds(2);
  mcfg.failure_deadline = milliseconds(20);
  health_monitor mon{bed.netkernel(side::a), mcfg};
  mon.start();

  bed.run_for(milliseconds(15));  // inside the deadline: no verdict yet
  for (const auto& a : mon.alerts()) {
    EXPECT_NE(a.kind, alert_kind::nsm_failed);
  }

  bed.run_for(milliseconds(35));
  const alert* failure = nullptr;
  for (const auto& a : mon.alerts()) {
    if (a.kind == alert_kind::nsm_failed && a.module == t1.module->id()) {
      failure = &a;
    }
  }
  ASSERT_NE(failure, nullptr);
  EXPECT_NE(failure->detail.find("unresponsive"), std::string::npos);
  EXPECT_GE(failure->at - frozen_at, mcfg.failure_deadline);
  EXPECT_LE(failure->at - frozen_at, mcfg.failure_deadline + milliseconds(10));
}

TEST(failure_detection, supervisor_replaces_nsm_and_listener_resumes) {
  testbed bed{apps::datacenter_params(27)};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "client";
  auto client = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "server";
  nsm_cfg.name = "nsm-b";
  nsm_cfg.form = nsm_form::container;  // 60 ms boot keeps the test brisk
  auto server = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  auto& gs = *server.glib;
  const auto lfd = gs.nk_socket().value();
  ASSERT_TRUE(gs.nk_bind(lfd, 7000).ok());
  ASSERT_TRUE(gs.nk_listen(lfd).ok());
  int accepts = 0;
  errc listener_error = errc::ok;
  errc child_error = errc::ok;
  gs.set_event_handler([&](std::uint32_t f, stack::socket_event_type t,
                           errc e) {
    if (t == stack::socket_event_type::accept_ready && f == lfd) ++accepts;
    if (t == stack::socket_event_type::error) {
      (f == lfd ? listener_error : child_error) = e;
    }
  });

  auto& gc = *client.glib;
  const auto fd = gc.nk_socket().value();
  bool connected = false;
  gc.set_event_handler([&](std::uint32_t f, stack::socket_event_type t,
                           errc) {
    if (f == fd && t == stack::socket_event_type::connected) connected = true;
  });
  ASSERT_TRUE(
      gc.nk_connect(fd, {server.module->config().address, 7000}).ok());
  bed.run_for(milliseconds(50));
  ASSERT_TRUE(connected);
  ASSERT_EQ(accepts, 1);

  core_engine& ce = bed.netkernel(side::b);
  monitor_config mcfg;
  mcfg.interval = milliseconds(5);
  health_monitor mon{ce, mcfg};
  nsm_supervisor sup{ce, mon};
  mon.start();

  const nsm_id dead_id = server.module->id();
  ce.service_of(dead_id)->fail();
  bed.run_for(milliseconds(200));  // detect + 60 ms boot + switchover

  // The supervisor spawned exactly one replacement and retired the corpse.
  EXPECT_EQ(sup.failovers(), 1);
  EXPECT_EQ(ce.service_of(dead_id), nullptr);
  nsm* fresh = ce.nsm_by_id(sup.last_replacement());
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->config().address, server.module->config().address);

  // Established state died with the module; the listener was replayed.
  EXPECT_EQ(child_error, errc::nsm_reset);
  EXPECT_EQ(listener_error, errc::ok);
  EXPECT_GE(ce.metrics().value_of("sockets_recovered").value_or(0.0), 1.0);
  EXPECT_GE(ce.metrics().value_of("sockets_aborted").value_or(0.0), 1.0);
  EXPECT_EQ(ce.metrics().value_of("nsm_failures").value_or(0.0), 1.0);
  EXPECT_EQ(ce.metrics().get_histogram("failover_time_ns").count(), 1u);

  // The replayed listener accepts brand-new connections on the new module.
  const auto fd2 = gc.nk_socket().value();
  bool reconnected = false;
  gc.set_event_handler([&](std::uint32_t f, stack::socket_event_type t,
                           errc) {
    if (f == fd2 && t == stack::socket_event_type::connected) {
      reconnected = true;
    }
  });
  ASSERT_TRUE(
      gc.nk_connect(fd2, {server.module->config().address, 7000}).ok());
  bed.run_for(milliseconds(100));
  EXPECT_TRUE(reconnected);
  EXPECT_EQ(accepts, 2);
}

TEST(failure_detection, connect_times_out_against_dead_nsm) {
  auto params = apps::datacenter_params(28);
  params.netkernel.guest.connect_timeout = milliseconds(10);
  params.netkernel.guest.connect_retries = 1;
  testbed bed{params};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "client";
  auto client = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "server";
  nsm_cfg.name = "nsm-b";
  auto server = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);
  bed.run_for(milliseconds(10));

  auto& gc = *client.glib;
  const auto fd = gc.nk_socket().value();
  bed.run_for(milliseconds(5));  // fd exists before the module dies
  bed.netkernel(side::a).service_of(client.module->id())->fail();

  errc err = errc::ok;
  bool connected = false;
  gc.set_event_handler([&](std::uint32_t f, stack::socket_event_type t,
                           errc e) {
    if (f != fd) return;
    if (t == stack::socket_event_type::connected) connected = true;
    if (t == stack::socket_event_type::error) err = e;
  });
  ASSERT_TRUE(
      gc.nk_connect(fd, {server.module->config().address, 7000}).ok());
  bed.run_for(milliseconds(60));

  // Instead of hanging forever the op retried once, then timed out.
  EXPECT_FALSE(connected);
  EXPECT_EQ(err, errc::timed_out);
  EXPECT_EQ(gc.stats().ops_retried, 1u);
  EXPECT_EQ(gc.stats().ops_timed_out, 1u);
}

TEST(failure_detection, accounting_invariant_holds_across_failover) {
  // Mid-stream failover with tracing at sample rate 1.0: every nqe the
  // pipeline discards — unroutable, overflow-dropped, or stale-epoch — must
  // be visible to the tracer. Nothing vanishes silently.
  auto params = apps::datacenter_params(29);
  params.netkernel.trace.enabled = true;
  params.netkernel.trace.sample_rate = 1.0;
  testbed bed{params};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "tx";
  auto tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "rx";
  nsm_cfg.name = "nsm-rx";
  nsm_cfg.form = nsm_form::container;
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::bulk_sink sink{*rx.api, 5001, false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 2;
  scfg.bytes_per_flow = 0;
  scfg.patterned = false;
  apps::bulk_sender sender{*tx.api, {rx.module->config().address, 5001},
                           scfg};
  sender.start();
  bed.run_for(milliseconds(100));

  core_engine& ce = bed.netkernel(side::b);
  monitor_config mcfg;
  mcfg.interval = milliseconds(5);
  health_monitor mon{ce, mcfg};
  nsm_supervisor sup{ce, mon};
  mon.start();

  ce.service_of(rx.module->id())->fail();  // mid-stream, rings full of data
  bed.run_for(milliseconds(300));
  ASSERT_EQ(sup.failovers(), 1);

  // The pipeline-wide half of the books needs the trace hooks compiled in;
  // audit() checks it exactly when they are.
  for (auto* engine : {&bed.netkernel(side::a), &bed.netkernel(side::b)}) {
    const audit_report books = engine->audit();
    EXPECT_TRUE(books.shards_balanced() && books.pipeline_balanced())
        << books.violations();
  }
}

TEST(autoscaler, grants_cores_to_overloaded_nsm) {
  testbed bed{apps::datacenter_params(24)};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  nsm_cfg.tx_cost = stack::processing_cost{nanoseconds(300), 0.6};
  virt::vm_config vm_cfg;
  vm_cfg.name = "tx";
  auto tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "rx";
  nsm_cfg.name = "nsm-rx";
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::bulk_sink sink{*rx.api, 5001, false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 3;
  scfg.bytes_per_flow = 0;
  scfg.patterned = false;
  apps::bulk_sender sender{*tx.api, {rx.module->config().address, 5001},
                           scfg};
  sender.start();

  monitor_config mcfg;
  mcfg.interval = milliseconds(5);
  health_monitor mon{bed.netkernel(side::a), mcfg};
  autoscaler scaler{bed.netkernel(side::a), bed.host(side::a), mon,
                    /*max_cores=*/3};
  mon.start();

  const auto cores_before = tx.module->cores().size();
  bed.run_for(milliseconds(400));

  EXPECT_GT(scaler.scale_ups(), 0);
  EXPECT_GT(tx.module->cores().size(), cores_before);
  EXPECT_LE(tx.module->cores().size(), 3u);
}

TEST(health_monitor, quarantine_raises_alert_with_flight_snapshot) {
  auto params = apps::datacenter_params(27);
  // Tight escalation so a short storm crosses warn -> throttle -> quarantine.
  params.netkernel.firewall.violations_per_sec = 1.0;
  params.netkernel.firewall.violation_burst = 4;
  params.netkernel.firewall.quarantine_threshold = 8;
  params.netkernel.firewall.probation = sim_time::zero();
  testbed bed{params};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "rogue";
  auto rogue = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  core_engine& ce = bed.netkernel(side::a);
  const virt::vm_id vm = rogue.vm->id();
  const nsm_id module = rogue.module->id();

  monitor_config mcfg;
  mcfg.interval = milliseconds(1);
  health_monitor mon{ce, mcfg};
  mon.start();

  hostile_guest attacker{ce, vm, 5};
  for (int i = 0; i < 50 && !ce.quarantined(vm); ++i) {
    attacker.storm(20);
    bed.run_for(milliseconds(1));
  }
  ASSERT_TRUE(ce.quarantined(vm));
  bed.run_for(milliseconds(5));  // at least one monitor tick past the event

  // The monitor turned the engine's quarantine record into an alert...
  const alert* found = nullptr;
  for (const auto& a : mon.alerts()) {
    if (a.kind == alert_kind::vm_quarantined && a.vm == vm) found = &a;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->module, module);
  EXPECT_NE(found->detail.find("quarantined"), std::string::npos);
  EXPECT_NE(found->detail.find("violations"), std::string::npos);

  // ...and captured the serving NSM's flight-recorder ring as of the
  // decision: the throttle and quarantine notes are both in the snapshot.
  auto it = mon.quarantine_snapshots().find(vm);
  ASSERT_NE(it, mon.quarantine_snapshots().end());
  EXPECT_NE(it->second.find("throttled: violation budget dry"),
            std::string::npos);
  EXPECT_NE(it->second.find("quarantined: violation budget exhausted"),
            std::string::npos);

  // Each quarantine decision is reported exactly once.
  std::size_t count = 0;
  for (const auto& a : mon.alerts()) {
    if (a.kind == alert_kind::vm_quarantined) ++count;
  }
  EXPECT_EQ(count, 1u);
}

}  // namespace
}  // namespace nk::core
