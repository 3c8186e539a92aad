// Ablation A16: the tenant-facing observability plane under hostile load.
//
// Three tenants share a side-a CoreEngine: a tcp tenant and an nkq tenant
// pouring mice flows at per-transport sinks on side b (distinct remote
// ports, so a leaked row is detectable by inspection), and a hostile VM
// forging nqes — including directed req_stat_refresh forgeries — until the
// abuse escalator quarantines it. A seeded chaos_schedule samples every
// tenant's stat page throughout (before, during and after the quarantine)
// and, in the stats-on run, drives the publish path hard: the engine
// timeseries cadence plus per-tenant refresh storms.
//
// Gates (the claims of DESIGN.md §16):
//   * isolation: no stat page ever contains another VM's flow — every
//     sampled row carries the owning tenant's transport and remote port;
//   * freshness: req_stat_refresh lands a snapshot stamped at the refresh,
//     not a stale cadence tick;
//   * NK_TCP_INFO is live for BOTH transports (srtt/cwnd from tcp and nkq);
//   * failover visibility: replacing a tenant's NSM republishes its page
//     under the bumped epoch; quarantine freezes the hostile page with
//     stat_frozen and the frozen snapshot never advances again;
//   * cost: publishing is off the data path — the tcp tenant's mice p99
//     FCT with the full publish load stays within 2% of the stats-off run;
//   * the PR 8 invariants survive: zero chunk leaks anywhere (including
//     the retired hostile channel) and exact per-shard drop accounting.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "apps/flowgen.hpp"
#include "apps/scenario.hpp"
#include "apps/workloads.hpp"
#include "core/hostile.hpp"
#include "core/monitor.hpp"
#include "sim/chaos.hpp"

namespace {

using namespace nk;
using apps::side;

struct outcome {
  double tcp_p99_us = 0;  // tcp tenant, mice FCT
  int tcp_flows = 0;
  int nkq_flows = 0;
  int flows_offered = 0;
  // Stat-page sampling (host-side reads; zero sim cost).
  std::uint64_t samples = 0;
  std::uint64_t rows_seen = 0;
  std::uint64_t isolation_violations = 0;
  std::uint64_t torn_reads = 0;
  // Point checks after the measured window.
  long long freshness_ns = -1;
  bool tcp_info_ok = false;
  bool nkq_info_ok = false;
  std::uint64_t epoch_after_failover = 0;
  bool hostile_frozen = false;
  bool frozen_stable = false;
  bool quarantined = false;
  bool clean_ok = false;
  double publishes = 0;
  double rejected = 0;
  double rej_sum = 0;
  std::uint64_t injected = 0;
  long long leaked = 0;
  bool accounting_ok = true;
};

outcome run(bool stats_on, std::uint64_t seed, bool smoke) {
  auto params = apps::datacenter_params(seed);
  params.netkernel.trace.enabled = true;
  params.netkernel.trace.sample_rate = 1.0;
  params.netkernel.trace.max_active = 1 << 16;
  params.netkernel.trace.max_spans = 1 << 17;
  params.netkernel.shards = 2;
  // Bench-tuned escalation: the hostile storm crosses warn -> throttled ->
  // quarantined within the run, in both arms (the attack is identical, so
  // the stats-on/off FCT delta is attributable to publishing alone).
  params.netkernel.firewall.violations_per_sec = 50.0;
  params.netkernel.firewall.violation_burst = 32;
  params.netkernel.firewall.quarantine_threshold = 64;
  params.netkernel.firewall.probation = sim_time::zero();
  apps::testbed bed{params};

  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  nsm_cfg.cc = tcp::cc_algorithm::cubic;
  virt::vm_config vm_cfg;

  vm_cfg.name = "tcp-vm";
  nsm_cfg.name = "nsm-tcp";
  auto tcp_t = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "nkq-vm";
  nsm_cfg.name = "nsm-nkq";
  nsm_cfg.transport = "nkq";
  auto nkq_t = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "hostile-vm";
  nsm_cfg.name = "nsm-hostile";
  nsm_cfg.transport = "tcp";
  auto rogue = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);

  vm_cfg.name = "sink-tcp-vm";
  nsm_cfg.name = "nsm-sink-tcp";
  auto rx_tcp = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);
  vm_cfg.name = "sink-nkq-vm";
  nsm_cfg.name = "nsm-sink-nkq";
  nsm_cfg.transport = "nkq";
  auto rx_nkq = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  // Mice flows per transport; distinct remote ports make a cross-tenant row
  // leak detectable by looking at any single row.
  apps::flow_sink sink_tcp{*rx_tcp.api, 7000};
  sink_tcp.sim = &bed.sim();
  sink_tcp.start();
  apps::flow_sink sink_nkq{*rx_nkq.api, 7001};
  sink_nkq.sim = &bed.sim();
  sink_nkq.start();
  apps::flowgen_config fcfg;
  fcfg.mix = apps::flow_mix::uniform;
  fcfg.flows = smoke ? 120 : 400;
  fcfg.arrivals_per_sec = 4000;
  fcfg.seed = seed;
  apps::flow_generator gen_tcp{*tcp_t.api, bed.sim(),
                               {rx_tcp.module->config().address, 7000}, fcfg};
  gen_tcp.start();
  fcfg.seed = seed ^ 0xabcdu;
  apps::flow_generator gen_nkq{*nkq_t.api, bed.sim(),
                               {rx_nkq.module->config().address, 7001}, fcfg};
  gen_nkq.start();

  // One long-lived probe flow per tenant (distinct ports again) so the
  // pages always hold at least one established row to sample and to pull
  // NK_TCP_INFO from after the mice drain. Hand-managed (not bulk_sender)
  // so the probes can be closed before the leak audit.
  apps::bulk_sink bsink_tcp{*rx_tcp.api, 7010, /*validate=*/false};
  bsink_tcp.start();
  apps::bulk_sink bsink_nkq{*rx_nkq.api, 7011, /*validate=*/false};
  bsink_nkq.start();
  auto open_probe = [](apps::socket_api& api, net::socket_addr to) {
    const auto s = api.open().value();
    api.on_event(s, [&api](apps::app_socket sock, apps::app_event ev, errc) {
      if (ev == apps::app_event::connected) {
        (void)api.send(sock, buffer::zeroed(256 * 1024));
      }
    });
    (void)api.connect(s, to);
    return s;
  };
  const auto probe_tcp =
      open_probe(*tcp_t.api, {rx_tcp.module->config().address, 7010});
  const auto probe_nkq =
      open_probe(*nkq_t.api, {rx_nkq.module->config().address, 7011});

  core::core_engine& ce = bed.netkernel(side::a);
  core::monitor_config mcfg;
  mcfg.interval = milliseconds(1);
  core::health_monitor mon{ce, mcfg};
  mon.start();

  const virt::vm_id vm_h = rogue.vm->id();
  core::channel* hch = ce.channel_of(vm_h);
  core::channel* tch = ce.channel_of(tcp_t.vm->id());
  core::channel* qch = ce.channel_of(nkq_t.vm->id());
  core::hostile_guest attacker{ce, vm_h, seed ^ 0x9e3779b97f4a7c15ull};

  outcome out;
  out.flows_offered = fcfg.flows;

  // Validates one tenant page: every row must belong to that tenant (its
  // transport, its two remote ports) — anything else is a leaked flow.
  auto check_page = [&out](core::channel* ch, const char* transport,
                           std::uint32_t p1, std::uint32_t p2) {
    if (ch == nullptr || !ch->stats.ever_published()) return;
    shm::stat_snapshot snap;
    if (!ch->stats.read(snap)) {
      ++out.torn_reads;
      return;
    }
    ++out.samples;
    for (std::size_t i = 0; i < snap.vm.sockets && i < snap.rows.size();
         ++i) {
      ++out.rows_seen;
      const auto& r = snap.rows[i];
      if (std::strcmp(r.transport, transport) != 0 ||
          (r.remote_port != p1 && r.remote_port != p2)) {
        ++out.isolation_violations;
        std::fprintf(stderr,
                     "ISOLATION: %s page row fd=%llu transport=%s port=%u\n",
                     transport, static_cast<unsigned long long>(r.fd),
                     r.transport, r.remote_port);
      }
    }
  };

  sim::chaos_schedule chaos{bed.sim(), seed};
  // The hostile storm: the five classic forgery categories plus directed
  // req_stat_refresh forgeries (forged owner/epoch, smuggled descriptor).
  const std::size_t shots = smoke ? 250 : 600;
  chaos.storm("hostile-injection", milliseconds(10), milliseconds(20), shots,
              [&attacker](std::size_t i) {
                (void)(i % 4 == 0 ? attacker.inject(
                                        core::hostile_guest::attack::stat_forge)
                                  : attacker.inject());
              });
  // Page sampling runs in BOTH arms (host-side reads cost no sim time) and
  // spans the quarantine: storm start 6 ms, hostile storm 10 ms, sampling
  // until 106 ms.
  chaos.storm("stat-sampler", milliseconds(6), milliseconds(1), 100,
              [&](std::size_t) {
                check_page(tch, "tcp", 7000, 7010);
                check_page(qch, "nkq", 7001, 7011);
              });
  if (stats_on) {
    // The always-on publish load: the engine timeseries cadence publishes
    // every attachment's page each tick for the whole measured window.
    ce.series().start();
  }
  chaos.arm();

  for (int i = 0;
       i < 4000 && (sink_tcp.completed() < fcfg.flows ||
                    sink_nkq.completed() < fcfg.flows);
       ++i) {
    bed.run_for(milliseconds(1));
  }
  bed.run_for(milliseconds(50));

  out.tcp_p99_us = sink_tcp.fct_us(apps::size_class::mice).p99();
  out.tcp_flows = sink_tcp.completed();
  out.nkq_flows = sink_nkq.completed();
  out.quarantined = ce.quarantined(vm_h);
  out.injected = attacker.stats().injected;
  out.publishes = ce.metrics().value_of("engine_stat_publishes").value_or(0.0);
  out.rejected = ce.metrics().value_of("engine_nqes_rejected").value_or(0.0);
  for (const char* r : {"badop", "badfd", "badchunk", "badepoch"}) {
    out.rej_sum += ce.metrics()
                       .value_of(std::string{"engine_nqes_rejected_"} + r)
                       .value_or(0.0);
  }

  // Freshness: a refresh must land a snapshot stamped at (or just after)
  // the request, not a stale cadence tick.
  const long long t0 = bed.sim().now().count();
  (void)tcp_t.glib->nk_stat_refresh();
  bed.run_for(milliseconds(2));
  shm::stat_snapshot snap;
  if (tcp_t.glib->nk_stat_snapshot(snap)) {
    out.freshness_ns = static_cast<long long>(snap.vm.published_ns) - t0;
  }

  // NK_TCP_INFO, both transports, off the long-lived bulk flows.
  auto probe_info = [](core::guest_lib& glib, const char* transport) {
    shm::stat_snapshot s;
    if (!glib.nk_stat_snapshot(s) || s.vm.sockets == 0) return false;
    for (std::size_t i = 0; i < s.vm.sockets && i < s.rows.size(); ++i) {
      const auto info = glib.nk_getsockopt(
          static_cast<std::uint32_t>(s.rows[i].fd), core::nk_option::tcp_info);
      if (info.ok() && std::strcmp(info.value().transport, transport) == 0 &&
          info.value().srtt_ns > 0 && info.value().cwnd_bytes > 0) {
        return true;
      }
    }
    return false;
  };
  (void)nkq_t.glib->nk_stat_refresh();
  bed.run_for(milliseconds(2));
  out.tcp_info_ok = probe_info(*tcp_t.glib, "tcp");
  out.nkq_info_ok = probe_info(*nkq_t.glib, "nkq");
  // With the pages freshly republished (probe flows still open), audit the
  // rows once more — in the stats-off arm this is where rows appear at all.
  check_page(tch, "tcp", 7000, 7010);
  check_page(qch, "nkq", 7001, 7011);
  // The clean tenants' legitimate refreshes never cost them standing.
  out.clean_ok = !ce.quarantined(tcp_t.vm->id()) &&
                 !ce.quarantined(nkq_t.vm->id()) &&
                 ce.abuse_level_of(tcp_t.vm->id()) == core::abuse_level::ok &&
                 ce.abuse_level_of(nkq_t.vm->id()) == core::abuse_level::ok;

  // Quarantine froze the hostile page, terminally.
  if (hch->stats.ever_published() && hch->stats.read(snap)) {
    out.hostile_frozen = (snap.vm.flags & shm::stat_frozen) != 0;
    const auto frozen_seq = snap.vm.publish_seq;
    bed.run_for(milliseconds(20));
    shm::stat_snapshot again;
    out.frozen_stable = hch->stats.read(again) &&
                        again.vm.publish_seq == frozen_seq &&
                        (again.vm.flags & shm::stat_frozen) != 0;
  }

  // Quiesce the probe flows so the leak audit below sees a drained system.
  (void)tcp_t.api->close(probe_tcp);
  (void)nkq_t.api->close(probe_nkq);
  bed.run_for(milliseconds(50));

  // Failover visibility: replace the nkq tenant's NSM; the page must come
  // back under the bumped attachment epoch, unfrozen.
  const core::nsm_id dead = nkq_t.module->id();
  ce.service_of(dead)->fail();
  core::nsm_config fresh = nkq_t.module->config();
  fresh.name = "nsm-nkq-2";
  fresh.form = core::nsm_form::container;
  ce.replace_nsm(dead, fresh);
  bed.run_for(milliseconds(200));
  if (const auto vs = nkq_t.glib->nk_stack_stats(); vs.ok()) {
    out.epoch_after_failover = vs.value().epoch;
  }
  check_page(qch, "nkq", 7001, 7011);  // post-failover sample, still clean

  // Leak + accounting audit across both hosts: every shard, and every pool
  // (the quarantined hostile one is retired, and audited with the rest).
  core::audit_report books;
  for (auto* engine : {&bed.netkernel(side::a), &bed.netkernel(side::b)}) {
    books += engine->audit();
  }
  std::fputs(books.violations().c_str(), stderr);
  out.leaked = books.leaked();
  out.accounting_ok = books.shards_balanced() && books.pipeline_balanced();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf(
      "Ablation A16: tenant-facing stat pages under hostile load\n"
      "(tcp + nkq tenants vs a forging co-tenant; pages sampled before,\n"
      " during and after its quarantine: no page may ever hold another\n"
      " VM's flow, refreshes must be fresh, NK_TCP_INFO live on both\n"
      " transports, failover bumps the epoch, quarantine freezes, and the\n"
      " full publish load costs <= 2%% of mice p99 FCT)\n\n");

  const std::uint64_t seed = 42;
  const outcome off = run(/*stats_on=*/false, seed, smoke);
  const outcome on = run(/*stats_on=*/true, seed, smoke);

  const double ratio = off.tcp_p99_us > 0 ? on.tcp_p99_us / off.tcp_p99_us
                                          : 0.0;

  std::printf("%-26s %12s %12s\n", "", "stats-off", "stats-on");
  std::printf("%-26s %12.1f %12.1f\n", "tcp mice p99 FCT (us)",
              off.tcp_p99_us, on.tcp_p99_us);
  std::printf("%-26s %9d+%-3d %9d+%-3d\n", "flows done (tcp+nkq)",
              off.tcp_flows, off.nkq_flows, on.tcp_flows, on.nkq_flows);
  std::printf("%-26s %12.0f %12.0f\n", "stat publishes", off.publishes,
              on.publishes);
  std::printf("%-26s %12llu %12llu\n", "pages sampled",
              static_cast<unsigned long long>(off.samples),
              static_cast<unsigned long long>(on.samples));
  std::printf("%-26s %12llu %12llu\n", "rows inspected",
              static_cast<unsigned long long>(off.rows_seen),
              static_cast<unsigned long long>(on.rows_seen));
  std::printf("%-26s %12llu %12llu\n", "isolation violations",
              static_cast<unsigned long long>(off.isolation_violations),
              static_cast<unsigned long long>(on.isolation_violations));
  std::printf("%-26s %12lld %12lld\n", "refresh freshness (ns)",
              off.freshness_ns, on.freshness_ns);
  std::printf("%-26s %12s %12s\n", "tcp_info tcp/nkq",
              off.tcp_info_ok && off.nkq_info_ok ? "live" : "DEAD",
              on.tcp_info_ok && on.nkq_info_ok ? "live" : "DEAD");
  std::printf("%-26s %12llu %12llu\n", "epoch after failover",
              static_cast<unsigned long long>(off.epoch_after_failover),
              static_cast<unsigned long long>(on.epoch_after_failover));
  std::printf("%-26s %12s %12s\n", "hostile page frozen",
              off.hostile_frozen && off.frozen_stable ? "yes" : "NO",
              on.hostile_frozen && on.frozen_stable ? "yes" : "NO");
  std::printf("%-26s %12.0f %12.0f\n", "firewall rejections", off.rejected,
              on.rejected);
  std::printf("%-26s %12lld %12lld\n", "chunks leaked", off.leaked,
              on.leaked);
  std::printf("\npublish-overhead ratio (stats-on/off p99): %.4f\n", ratio);

  auto arm_ok = [](const outcome& o) {
    return o.tcp_flows == o.flows_offered && o.nkq_flows == o.flows_offered &&
           o.samples > 50 && o.rows_seen > 0 && o.isolation_violations == 0 &&
           o.torn_reads == 0 && o.freshness_ns >= 0 &&
           o.freshness_ns <= 2'000'000 && o.tcp_info_ok && o.nkq_info_ok &&
           o.epoch_after_failover == 1 && o.hostile_frozen &&
           o.frozen_stable && o.quarantined && o.clean_ok && o.injected > 0 &&
           o.rejected > 0 && o.rej_sum == o.rejected && o.leaked == 0 &&
           o.accounting_ok;
  };
  const bool ok = arm_ok(off) && arm_ok(on) &&
                  on.publishes > off.publishes && ratio <= 1.02;

  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"seed\": %llu,\n"
      "  \"stats_off\": {\"tcp_p99_us\": %.3f, \"samples\": %llu,\n"
      "    \"rows\": %llu, \"violations\": %llu, \"publishes\": %.0f,\n"
      "    \"freshness_ns\": %lld, \"leaked\": %lld},\n"
      "  \"stats_on\": {\"tcp_p99_us\": %.3f, \"samples\": %llu,\n"
      "    \"rows\": %llu, \"violations\": %llu, \"publishes\": %.0f,\n"
      "    \"freshness_ns\": %lld, \"leaked\": %lld,\n"
      "    \"tcp_info\": %s, \"nkq_info\": %s, \"epoch\": %llu,\n"
      "    \"frozen\": %s, \"rejected\": %.0f},\n"
      "  \"overhead_ratio\": %.4f,\n"
      "  \"pass\": %s\n"
      "}\n",
      static_cast<unsigned long long>(seed), off.tcp_p99_us,
      static_cast<unsigned long long>(off.samples),
      static_cast<unsigned long long>(off.rows_seen),
      static_cast<unsigned long long>(off.isolation_violations),
      off.publishes, off.freshness_ns, off.leaked, on.tcp_p99_us,
      static_cast<unsigned long long>(on.samples),
      static_cast<unsigned long long>(on.rows_seen),
      static_cast<unsigned long long>(on.isolation_violations), on.publishes,
      on.freshness_ns, on.leaked, on.tcp_info_ok ? "true" : "false",
      on.nkq_info_ok ? "true" : "false",
      static_cast<unsigned long long>(on.epoch_after_failover),
      on.hostile_frozen && on.frozen_stable ? "true" : "false", on.rejected,
      ratio, ok ? "true" : "false");
  std::ofstream jout{"ablate_tenant_stats.json"};
  jout << buf;
  std::printf("snapshot: ablate_tenant_stats.json\n");

  if (!ok) {
    std::printf("FAIL: a tenant-observability invariant was violated\n");
    return 1;
  }
  return 0;
}
