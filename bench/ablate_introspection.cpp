// Ablation A11: provider-side stack introspection (paper §5).
//
// Two bulk flows cross a lossy WAN path behind NetKernel while tracing runs
// at sample rate 1.0. The run then checks everything the introspection
// layer promises:
//
//   1. Flow table join — every row CoreEngine::flow_table() reports
//      (<VM, fd> -> <NSM, cID> + nk_flow_info) agrees with the
//      connection-mapping table (mapping_of), and the per-flow stats are
//      live: srtt measured, cwnd set, retransmits accumulating on a lossy
//      path, bytes moving between two samples.
//   2. Stage-pair attribution — completed traces feed the per-hop
//      nqe_attr_* histograms; the per-direction critical-path summary is
//      present in report_json(), and the tracer's accounting invariant
//      (unroutable + dropped + stale == traced drops) holds with
//      attribution enabled.
//   3. Flight recorder — killing the server NSM mid-stream makes the
//      health monitor snapshot the victim's ring before the supervisor
//      replaces it: flight_recorder_nsm<id>.json appears next to the
//      metrics, holding the module's last trace events and the crash note.
//
// Exit status is the assertion: 0 only when every invariant held.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"
#include "core/monitor.hpp"

namespace {

using namespace nk;
using apps::side;

struct outcome {
  std::size_t flows_seen = 0;
  bool join_consistent = false;  // every flow row matches mapping_of
  bool stats_live = false;       // srtt/cwnd measured, bytes advanced
  bool saw_retransmits = false;  // lossy path shows provider-visible loss
  bool critical_path_present = false;
  bool failed_over = false;
  bool recorder_dumped = false;  // file exists with trace events + crash note
  std::size_t recorder_events = 0;
  core::audit_report books;  // chunk + drop accounting, both engines
};

outcome run(bool smoke, std::uint64_t seed) {
  // A lossy datacenter path: retransmissions are guaranteed within a few
  // hundred milliseconds, so the flow table's retransmit and srtt columns
  // have something to show (the WAN profile's 350 ms RTT would need whole
  // simulated minutes for the same signal).
  auto params = apps::datacenter_params(seed);
  params.wire.loss_rate = 0.002;
  params.netkernel.trace.enabled = true;
  params.netkernel.trace.sample_rate = 1.0;
  params.netkernel.trace.max_active = 1 << 16;
  params.netkernel.trace.max_spans = 1 << 17;
  apps::testbed bed{params};

  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  nsm_cfg.cc = tcp::cc_algorithm::cubic;
  // Hypervisor-module form: the replacement boots in ~1 ms, keeping the
  // post-kill phase short (form-dependent recovery is A10's subject).
  nsm_cfg.form = core::nsm_form::hypervisor_module;

  virt::vm_config vm_cfg;
  vm_cfg.name = "sender-vm";
  nsm_cfg.name = "nsm-tx";
  auto tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "sink-vm";
  nsm_cfg.name = "nsm-rx";
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::bulk_sink sink{*rx.api, 7100, /*validate=*/false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 2;
  scfg.bytes_per_flow = 0;
  scfg.patterned = false;
  apps::bulk_sender sender{*tx.api, {rx.module->config().address, 7100},
                           scfg};
  sender.start();
  bed.run_for(milliseconds(smoke ? 200 : 500));

  outcome out;
  core::core_engine& tx_ce = bed.netkernel(side::a);
  core::core_engine& rx_ce = bed.netkernel(side::b);

  // --- 1. flow table vs connection-mapping table, and liveness ---------------
  const auto first_sample = tx_ce.flow_table();
  out.flows_seen = first_sample.size();
  out.join_consistent = !first_sample.empty();
  for (const auto& row : first_sample) {
    const auto mapped = tx_ce.mapping_of(row.vm, row.fd);
    if (!mapped.has_value() || mapped->first != row.nsm ||
        mapped->second != row.cid) {
      out.join_consistent = false;
      std::printf("JOIN MISMATCH: vm=%u fd=%u nsm=%u cid=%u\n",
                  static_cast<unsigned>(row.vm), row.fd,
                  static_cast<unsigned>(row.nsm), row.cid);
    }
  }
  bed.run_for(milliseconds(smoke ? 100 : 300));
  const auto second_sample = tx_ce.flow_table();
  if (out.join_consistent && !second_sample.empty()) {
    out.stats_live = true;
    for (std::size_t i = 0;
         i < first_sample.size() && i < second_sample.size(); ++i) {
      const auto& a = first_sample[i].info;
      const auto& b = second_sample[i].info;
      // Live telemetry: RTT measured, congestion window set, and the byte
      // counters moved between the two samples.
      if (b.srtt_ns == 0 || b.cwnd_bytes == 0 || b.bytes_out <= a.bytes_out) {
        out.stats_live = false;
      }
      if (b.retransmits > 0) out.saw_retransmits = true;
    }
  }

  // --- 2. stage-pair attribution surfaces in the monitor report --------------
  core::monitor_config mcfg;
  mcfg.interval = milliseconds(1);
  mcfg.failure_deadline = milliseconds(20);
  mcfg.flight_recorder_dir = ".";
  core::health_monitor mon{rx_ce, mcfg};
  core::nsm_supervisor sup{rx_ce, mon};
  mon.start();
  bed.run_for(milliseconds(10));
  const std::string report = mon.report_json();
  out.critical_path_present =
      report.find("\"critical_path\"") != std::string::npos &&
      report.find("\"flows\"") != std::string::npos;
  // The sender-side tracer must also have attributed hops by now.
  out.critical_path_present =
      out.critical_path_present &&
      tx_ce.tracer().critical_path_json().find("\"critical\"") !=
          std::string::npos;

  // --- 3. kill the server NSM; the monitor dumps its flight recorder ---------
  const core::nsm_id victim = rx.module->id();
  rx_ce.service_of(victim)->fail();
  auto& failover_hist = rx_ce.metrics().get_histogram("failover_time_ns");
  for (int i = 0; i < 500 && failover_hist.count() == 0; ++i) {
    bed.run_for(milliseconds(1));
  }
  out.failed_over = sup.failovers() == 1 && failover_hist.count() == 1;
  bed.run_for(milliseconds(100));  // let aborts and discards settle

  const std::string dump_path =
      "flight_recorder_nsm" + std::to_string(victim) + ".json";
  if (std::ifstream in{dump_path}) {
    std::ostringstream body;
    body << in.rdbuf();
    const std::string snap = body.str();
    out.recorder_dumped = snap.find("\"kind\":\"trace_") != std::string::npos &&
                          snap.find("crash") != std::string::npos;
    // Count the dumped events; the ring must be bounded by its capacity.
    std::size_t pos = 0;
    while ((pos = snap.find("\"at_ns\"", pos)) != std::string::npos) {
      ++out.recorder_events;
      ++pos;
    }
    if (out.recorder_events > 0) --out.recorder_events;  // top-level at_ns
    if (out.recorder_events > rx_ce.recorder().capacity()) {
      out.recorder_dumped = false;
    }
  }
  const auto& snaps = mon.crash_snapshots();
  out.recorder_dumped = out.recorder_dumped && snaps.count(victim) == 1;

  // --- accounting invariant + chunk-leak check across both engines -----------
  out.books += tx_ce.audit();
  out.books += rx_ce.audit();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf(
      "Ablation A11: provider-side introspection on a lossy link\n"
      "(flow table must match the connection-mapping table, stats must be\n"
      " live, stage-pair attribution must surface, and killing the server\n"
      " NSM must leave a flight-recorder dump behind)\n\n");

  const outcome o = run(smoke, smoke ? 42 : 4242);
  const long long leaked = o.books.leaked();
  const auto unaccounted =
      static_cast<unsigned long long>(o.books.unaccounted());

  std::printf("flows introspected      %zu\n", o.flows_seen);
  std::printf("join consistent         %s\n", o.join_consistent ? "yes" : "NO");
  std::printf("stats live              %s\n", o.stats_live ? "yes" : "NO");
  std::printf("retransmits visible     %s\n",
              o.saw_retransmits ? "yes" : "NO");
  std::printf("critical path present   %s\n",
              o.critical_path_present ? "yes" : "NO");
  std::printf("failed over             %s\n", o.failed_over ? "yes" : "NO");
  std::printf("flight recorder dumped  %s (%zu events)\n",
              o.recorder_dumped ? "yes" : "NO", o.recorder_events);
  std::printf("unaccounted drops       %llu\n", unaccounted);
  std::printf("chunks leaked           %lld\n", leaked);
  std::fputs(o.books.violations().c_str(), stderr);

  std::ofstream out{"ablate_introspection.json"};
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"flows\": %zu, \"join_consistent\": %s, \"stats_live\": %s, "
      "\"retransmits_visible\": %s, \"critical_path\": %s, "
      "\"failed_over\": %s, \"recorder_dumped\": %s, "
      "\"recorder_events\": %zu, \"unaccounted_drops\": %llu, "
      "\"leaked\": %lld}\n",
      o.flows_seen, o.join_consistent ? "true" : "false",
      o.stats_live ? "true" : "false", o.saw_retransmits ? "true" : "false",
      o.critical_path_present ? "true" : "false",
      o.failed_over ? "true" : "false", o.recorder_dumped ? "true" : "false",
      o.recorder_events, unaccounted, leaked);
  out << buf;
  std::printf("\nsummary: ablate_introspection.json\n");

  const bool ok = o.flows_seen >= 2 && o.join_consistent && o.stats_live &&
                  o.saw_retransmits && o.critical_path_present &&
                  o.failed_over && o.recorder_dumped && o.books.clean();
  if (!ok) {
    std::printf("FAIL: an introspection invariant was violated\n");
    return 1;
  }
  return 0;
}
