// Observability layer tests (ISSUE 1): metrics registry semantics,
// histogram bucket math, exporter formats, nqe lifecycle tracing through a
// full NetKernel testbed, and sampling determinism under a fixed seed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <set>
#include <string>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"
#include "core/monitor.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/cpu_core.hpp"

namespace nk::obs {
namespace {

using apps::side;
using apps::testbed;

// --- registry -----------------------------------------------------------------

TEST(metrics_registry, registration_and_lookup) {
  metrics_registry reg;
  counter& c = reg.get_counter("ops");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name -> same instrument; the reference stays stable across later
  // registrations (std::map nodes never move).
  EXPECT_EQ(&reg.get_counter("ops"), &c);
  for (int i = 0; i < 100; ++i) {
    (void)reg.get_counter("filler" + std::to_string(i));
  }
  EXPECT_EQ(&reg.get_counter("ops"), &c);
  EXPECT_EQ(reg.get_counter("ops").value(), 5u);

  gauge& g = reg.get_gauge("depth");
  g.set(3.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(reg.get_gauge("depth").value(), 4.0);

  reg.register_gauge_fn("answer", [] { return 42.0; });

  EXPECT_NE(reg.find_counter("ops"), nullptr);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_NE(reg.find_gauge("depth"), nullptr);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);

  EXPECT_EQ(reg.value_of("ops"), 5.0);
  EXPECT_EQ(reg.value_of("depth"), 4.0);
  EXPECT_EQ(reg.value_of("answer"), 42.0);
  EXPECT_FALSE(reg.value_of("missing").has_value());
}

TEST(metrics_registry, prom_and_json_exports) {
  metrics_registry reg;
  reg.get_counter("requests_total").inc(7);
  reg.get_gauge("queue_depth").set(2);
  histogram& h = reg.get_histogram("latency_ns");
  h.record(5);
  h.record(100);

  const std::string prom = reg.to_prom();
  EXPECT_NE(prom.find("# TYPE nk_requests_total counter"), std::string::npos);
  EXPECT_NE(prom.find("nk_requests_total 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE nk_queue_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE nk_latency_ns histogram"), std::string::npos);
  EXPECT_NE(prom.find("nk_latency_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("nk_latency_ns_sum 105"), std::string::npos);
  EXPECT_NE(prom.find("nk_latency_ns_count 2"), std::string::npos);

  const std::string json = reg.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"requests_total\":7"), std::string::npos);
  EXPECT_NE(json.find("\"latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
}

TEST(metrics_registry, json_escape_handles_specials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape(std::string_view{"\n", 1}), "\\u000a");
}

// --- histogram ----------------------------------------------------------------

TEST(histogram, bucket_boundaries) {
  // Values 0..15 are exact.
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(histogram::bucket_index(v), static_cast<int>(v));
    EXPECT_EQ(histogram::bucket_lower(static_cast<int>(v)), v);
  }
  // First log-linear octave: width-1 buckets for 16..31.
  EXPECT_EQ(histogram::bucket_index(16), 16);
  EXPECT_EQ(histogram::bucket_index(31), 31);
  EXPECT_EQ(histogram::bucket_index(32), 32);  // next octave starts
  EXPECT_EQ(histogram::bucket_index(33), 32);  // ...with width-2 buckets
  EXPECT_EQ(histogram::bucket_index(34), 33);

  // bucket_lower inverts bucket_index, and every value lands inside its
  // bucket's [lower, upper] range with <= 1/16 relative width.
  for (std::uint64_t v : {0ull, 1ull, 15ull, 16ull, 17ull, 31ull, 32ull,
                          100ull, 1000ull, 12345ull, 1ull << 20,
                          (1ull << 32) + 12345ull}) {
    const int idx = histogram::bucket_index(v);
    EXPECT_GE(v, histogram::bucket_lower(idx)) << v;
    EXPECT_LE(v, histogram::bucket_upper(idx)) << v;
    if (idx >= histogram::sub_buckets) {
      const auto lower = histogram::bucket_lower(idx);
      const auto width = histogram::bucket_upper(idx) - lower + 1;
      EXPECT_LE(width * histogram::sub_buckets, lower + width) << v;
    }
  }

  // Monotone across the whole range.
  int prev = -1;
  for (std::uint64_t v = 0; v < (1 << 12); ++v) {
    const int idx = histogram::bucket_index(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }

  // Overflow clamps into the final bucket instead of running off the array.
  EXPECT_EQ(histogram::bucket_index(~0ull), histogram::bucket_count - 1);
}

TEST(histogram, records_and_percentiles) {
  histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);

  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
  // Log-linear buckets: percentiles are within 6.25% of exact.
  EXPECT_NEAR(h.p50(), 500.0, 500.0 / 16.0 + 1);
  EXPECT_NEAR(h.p99(), 990.0, 990.0 / 16.0 + 1);
  EXPECT_NEAR(h.percentile(100), 1000.0, 0.0);  // clamped to recorded max

  histogram single;
  single.record_time(nanoseconds(77));
  EXPECT_DOUBLE_EQ(single.percentile(0), 77.0);
  EXPECT_DOUBLE_EQ(single.percentile(50), 77.0);
  EXPECT_DOUBLE_EQ(single.percentile(100), 77.0);

  histogram neg;
  neg.record_time(nanoseconds(-5));  // clamps, never underflows
  EXPECT_EQ(neg.count(), 1u);
  EXPECT_EQ(neg.max(), 0u);
}

// --- tracing through the full NetKernel path -----------------------------------

// Quickstart-shaped workload: one echo exchange between a client VM on side
// A and a server VM on side B, both NetKernel-attached.
std::size_t run_echo(testbed& bed, std::size_t bytes = 64 * 1024) {
  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "client-vm";
  auto client = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "server-vm";
  nsm_cfg.name = "nsm-b";
  auto server = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  core::guest_lib& srv = *server.glib;
  const std::uint32_t listener = srv.nk_socket().value();
  EXPECT_TRUE(srv.nk_bind(listener, 7777).ok());
  EXPECT_TRUE(srv.nk_listen(listener).ok());
  std::uint32_t conn = 0;
  srv.set_event_handler([&](std::uint32_t fd, stack::socket_event_type type,
                            errc) {
    if (fd == listener && type == stack::socket_event_type::accept_ready) {
      conn = srv.nk_accept(listener).value();
    } else if (fd == conn && type == stack::socket_event_type::readable) {
      while (auto data = srv.nk_recv(conn, 1 << 20)) {
        (void)srv.nk_send(conn, std::move(data).value());
      }
    }
  });

  core::guest_lib& cli = *client.glib;
  const std::uint32_t sock = cli.nk_socket().value();
  std::size_t echoed = 0;
  cli.set_event_handler([&](std::uint32_t fd, stack::socket_event_type type,
                            errc) {
    if (fd != sock) return;
    if (type == stack::socket_event_type::connected) {
      (void)cli.nk_send(sock, buffer::pattern(bytes, 0));
    } else if (type == stack::socket_event_type::readable) {
      while (auto data = cli.nk_recv(sock, 1 << 20)) {
        echoed += data.value().size();
      }
    }
  });
  EXPECT_TRUE(
      cli.nk_connect(sock, {server.module->config().address, 7777}).ok());
  bed.run_for(milliseconds(50));
  return echoed;
}

#ifndef NK_NO_TRACING  // these tests need the hooks compiled in

TEST(nqe_tracing, full_pipeline_stages_recorded) {
  auto params = apps::datacenter_params(42);
  params.netkernel.trace.enabled = true;
  params.netkernel.trace.sample_rate = 1.0;
  testbed bed{params};
  ASSERT_EQ(run_echo(bed), 64u * 1024u);

  core::core_engine& ce = bed.netkernel(side::a);
  const nqe_tracer& tracer = ce.tracer();
  EXPECT_GT(tracer.completed().size(), 0u);
  EXPECT_GT(ce.metrics().value_of("nqe_traces_sampled").value_or(0.0), 0.0);

  // Every data-path pipeline stage saw traffic on the client side: requests
  // walk the forward stages, completions/events the reverse ones. The
  // failover_replay stage only carries traffic during an NSM replacement.
  int stages_with_data = 0;
  for (int s = 0; s < nqe_stage_count; ++s) {
    if (static_cast<nqe_stage>(s) == nqe_stage::failover_replay) continue;
    const std::string name =
        "nqe_stage_" +
        std::string(to_string(static_cast<nqe_stage>(s))) + "_ns";
    const histogram* h = ce.metrics().find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    if (h->count() > 0) ++stages_with_data;
  }
  EXPECT_EQ(stages_with_data, nqe_stage_count - 1);

  // The acceptance bar: the prom dump carries per-stage nqe latency
  // histograms for at least 5 pipeline stages.
  const std::string prom = ce.metrics().to_prom();
  int stages_in_prom = 0;
  for (int s = 0; s < nqe_stage_count; ++s) {
    const std::string name =
        "nk_nqe_stage_" +
        std::string(to_string(static_cast<nqe_stage>(s))) + "_ns_count";
    if (prom.find(name) != std::string::npos) ++stages_in_prom;
  }
  EXPECT_GE(stages_in_prom, 5);

  // End-to-end latency histograms exist per VM and per NSM.
  EXPECT_NE(prom.find("nqe_total_vm"), std::string::npos);
  EXPECT_NE(prom.find("nqe_total_nsm"), std::string::npos);
}

TEST(nqe_tracing, engine_copy_latency_matches_cost_model) {
  auto params = apps::datacenter_params(42);
  params.netkernel.trace.enabled = true;
  params.netkernel.trace.sample_rate = 1.0;
  testbed bed{params};
  ASSERT_EQ(run_echo(bed), 64u * 1024u);

  // The engine_copy_fwd stage spans CoreEngine pop -> NSM-queue push: at
  // minimum one nqe_copy charge (12 ns, paper §4.2), more when copies queue
  // behind each other on the CE core.
  const auto& costs = apps::datacenter_params(42).netkernel.costs;
  const histogram* h =
      bed.netkernel(side::a).metrics().find_histogram(
          "nqe_stage_engine_copy_fwd_ns");
  ASSERT_NE(h, nullptr);
  ASSERT_GT(h->count(), 0u);
  EXPECT_GE(h->min(), static_cast<std::uint64_t>(costs.nqe_copy.count()));
  // An idle engine core executes at least one copy at the base cost.
  EXPECT_EQ(h->min(), static_cast<std::uint64_t>(costs.nqe_copy.count()));
}

TEST(nqe_tracing, chrome_trace_export_is_well_formed) {
  auto params = apps::datacenter_params(7);
  params.netkernel.trace.enabled = true;
  testbed bed{params};
  ASSERT_EQ(run_echo(bed), 64u * 1024u);

  const std::string json =
      bed.netkernel(side::a).tracer().to_chrome_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser.
  long braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(nqe_tracing, sampling_is_deterministic_under_fixed_seed) {
  auto make = [] {
    auto params = apps::datacenter_params(1234);
    params.netkernel.trace.enabled = true;
    params.netkernel.trace.sample_rate = 0.4;
    return params;
  };
  testbed bed1{make()};
  ASSERT_EQ(run_echo(bed1), 64u * 1024u);
  testbed bed2{make()};
  ASSERT_EQ(run_echo(bed2), 64u * 1024u);

  const nqe_tracer& t1 = bed1.netkernel(side::a).tracer();
  const nqe_tracer& t2 = bed2.netkernel(side::a).tracer();
  EXPECT_GT(t1.completed().size(), 0u);
  EXPECT_EQ(t1.completed().size(), t2.completed().size());
  // Identical seeds give byte-identical trace dumps — ids, ops, and every
  // timestamp — because sampling draws from the simulator-owned rng.
  EXPECT_EQ(t1.to_chrome_json(), t2.to_chrome_json());

  // And a different seed draws a different sample.
  auto other = make();
  other.seed = 4321;
  testbed bed3{other};
  ASSERT_EQ(run_echo(bed3), 64u * 1024u);
  EXPECT_NE(t1.to_chrome_json(),
            bed3.netkernel(side::a).tracer().to_chrome_json());
}

#endif  // NK_NO_TRACING

TEST(nqe_tracing, disabled_tracer_stays_silent) {
  testbed bed{apps::datacenter_params(9)};  // trace.enabled defaults false
  ASSERT_EQ(run_echo(bed), 64u * 1024u);
  const core::core_engine& ce = bed.netkernel(side::a);
  EXPECT_EQ(ce.tracer().completed().size(), 0u);
  EXPECT_EQ(ce.tracer().active_count(), 0u);
  EXPECT_EQ(ce.metrics().value_of("nqe_traces_sampled").value_or(-1.0), 0.0);
}

// --- health monitor on top of the registry -------------------------------------

TEST(health_monitor_json, report_json_reads_registry) {
  testbed bed{apps::datacenter_params(11)};
  core::monitor_config mcfg;
  mcfg.interval = milliseconds(5);
  core::health_monitor mon{bed.netkernel(side::a), mcfg};
  mon.start();
  ASSERT_EQ(run_echo(bed), 64u * 1024u);

  const std::string json = mon.report_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"nsms\":["), std::string::npos);
  EXPECT_NE(json.find("\"tx_packets\":"), std::string::npos);
  EXPECT_NE(json.find("\"alerts\":["), std::string::npos);
  // The plain report and the JSON read the same gauges.
  EXPECT_NE(mon.report().find("util="), std::string::npos);
}

// --- prom export hardening (ISSUE 5) -------------------------------------------

TEST(metrics_registry, prom_help_lines_are_escaped) {
  metrics_registry reg;
  reg.get_counter("ops_total").inc(3);
  reg.set_help("ops_total", "back\\slash\nand newline");
  EXPECT_EQ(reg.help_of("ops_total"), "back\\slash\nand newline");
  EXPECT_EQ(reg.help_of("missing"), "");

  const std::string prom = reg.to_prom();
  // Exposition format: backslash -> \\, newline -> \n, HELP before TYPE.
  EXPECT_NE(prom.find("# HELP nk_ops_total back\\\\slash\\nand newline\n"),
            std::string::npos);
  EXPECT_LT(prom.find("# HELP nk_ops_total"),
            prom.find("# TYPE nk_ops_total"));
  // The raw (unescaped) help text must not survive anywhere in the dump:
  // a literal newline inside a comment would corrupt the next line.
  EXPECT_EQ(prom.find("back\\slash\nand"), std::string::npos);
}

TEST(metrics_registry, prom_duplicate_names_are_deduped) {
  metrics_registry reg;
  // One name across all three instrument namespaces...
  reg.get_counter("shared").inc(1);
  reg.get_gauge("shared").set(2);
  reg.get_histogram("shared").record(3);
  // ...and two registry names that sanitize to the same exposition name.
  reg.get_counter("a.b").inc(1);
  reg.get_counter("a/b").inc(2);

  const std::string prom = reg.to_prom();
  const auto occurrences = [&prom](std::string_view needle) {
    std::size_t n = 0;
    for (std::size_t pos = 0;
         (pos = prom.find(needle, pos)) != std::string::npos;
         pos += needle.size()) {
      ++n;
    }
    return n;
  };
  // Counters export first, so the counter keeps the bare name; later
  // namespaces pick up _dup suffixes.
  EXPECT_EQ(occurrences("# TYPE nk_shared counter\n"), 1u);
  EXPECT_EQ(occurrences("# TYPE nk_shared_dup gauge\n"), 1u);
  EXPECT_EQ(occurrences("# TYPE nk_shared_dup_dup histogram\n"), 1u);
  EXPECT_EQ(occurrences("# TYPE nk_a_b counter\n"), 1u);
  EXPECT_EQ(occurrences("# TYPE nk_a_b_dup counter\n"), 1u);

  // Globally: no exposition name is TYPE-declared twice.
  std::set<std::string> declared;
  for (std::size_t pos = 0;
       (pos = prom.find("# TYPE ", pos)) != std::string::npos;) {
    pos += 7;
    const std::size_t sp = prom.find(' ', pos);
    ASSERT_NE(sp, std::string::npos);
    EXPECT_TRUE(declared.insert(prom.substr(pos, sp - pos)).second)
        << "duplicate TYPE for " << prom.substr(pos, sp - pos);
  }
}

TEST(metrics_registry, prom_histograms_export_percentile_gauges) {
  metrics_registry reg;
  histogram& h = reg.get_histogram("lat_ns");
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);

  const std::string prom = reg.to_prom();
  EXPECT_NE(prom.find("# TYPE nk_lat_ns_p50 gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE nk_lat_ns_p99 gauge"), std::string::npos);
  // The gauge values are the histogram's own quantiles.
  const std::string p50 =
      "nk_lat_ns_p50 " +
      std::to_string(static_cast<long long>(h.p50())) + "\n";
  const std::string p99 =
      "nk_lat_ns_p99 " +
      std::to_string(static_cast<long long>(h.p99())) + "\n";
  EXPECT_NE(prom.find(p50), std::string::npos) << prom;
  EXPECT_NE(prom.find(p99), std::string::npos) << prom;
}

TEST(metrics_registry, unregister_prefix_drops_live_histograms) {
  metrics_registry reg;
  reg.get_histogram("vm1_latency_ns").record(10);
  reg.get_histogram("vm1_queue_ns").record(5);
  reg.get_counter("vm1_ops").inc();
  reg.register_gauge_fn("vm1_depth", [] { return 1.0; });
  reg.set_help("vm1_latency_ns", "per-vm latency");
  histogram& keep = reg.get_histogram("vm2_latency_ns");
  keep.record(77);

  // Four instruments removed; the help string rides along uncounted.
  EXPECT_EQ(reg.unregister_prefix("vm1"), 4u);
  EXPECT_EQ(reg.find_histogram("vm1_latency_ns"), nullptr);
  EXPECT_EQ(reg.find_histogram("vm1_queue_ns"), nullptr);
  EXPECT_EQ(reg.find_counter("vm1_ops"), nullptr);
  EXPECT_FALSE(reg.value_of("vm1_depth").has_value());
  EXPECT_EQ(reg.help_of("vm1_latency_ns"), "");
  EXPECT_EQ(reg.unregister_prefix("vm1"), 0u);

  // The survivor's reference stays valid with its data intact (map nodes
  // never move), and the removed family is gone from the export.
  EXPECT_EQ(&reg.get_histogram("vm2_latency_ns"), &keep);
  EXPECT_EQ(keep.count(), 1u);
  EXPECT_EQ(keep.max(), 77u);
  EXPECT_EQ(reg.to_prom().find("nk_vm1_"), std::string::npos);
}

// --- flight recorder (unit level) ----------------------------------------------

TEST(flight_recorder, ring_is_bounded_and_keeps_latest) {
  flight_recorder_config cfg;
  cfg.capacity = 8;
  flight_recorder rec{cfg};
  for (int i = 0; i < 20; ++i) {
    rec.note(3, 0, "ev" + std::to_string(i), nanoseconds(i));
  }
  EXPECT_EQ(rec.total(3), 20u);
  const auto evs = rec.events(3);
  ASSERT_EQ(evs.size(), 8u);
  // Oldest first, holding exactly the last `capacity` events.
  EXPECT_STREQ(evs.front().note.data(), "ev12");
  EXPECT_STREQ(evs.back().note.data(), "ev19");
  EXPECT_TRUE(rec.events(99).empty());

  const std::string snap = rec.snapshot_json(3, nanoseconds(100));
  EXPECT_NE(snap.find("\"events_total\":20"), std::string::npos);
  EXPECT_NE(snap.find("ev19"), std::string::npos);
  EXPECT_EQ(snap.find("ev11"), std::string::npos);  // overwritten
}

// --- provider-wide flow table (ISSUE 5 tentpole) -------------------------------

// Two bulk flows over a lossy datacenter link: the provider-side flow table
// must agree with the connection-mapping table and show *live* stack state
// (srtt measured, cwnd set, bytes advancing, retransmits visible).
TEST(flow_table, lossy_link_stats_are_live) {
  auto params = apps::datacenter_params(21);
  params.wire.loss_rate = 0.002;
  testbed bed{params};

  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  nsm_cfg.cc = tcp::cc_algorithm::cubic;
  virt::vm_config vm_cfg;
  vm_cfg.name = "sender-vm";
  nsm_cfg.name = "nsm-a";
  auto tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "sink-vm";
  nsm_cfg.name = "nsm-b";
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::bulk_sink sink{*rx.api, 7300, /*validate=*/false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 2;
  scfg.bytes_per_flow = 0;
  scfg.patterned = false;
  apps::bulk_sender sender{*tx.api, {rx.module->config().address, 7300},
                           scfg};
  sender.start();
  bed.run_for(milliseconds(200));

  core::core_engine& ce = bed.netkernel(side::a);
  const auto first = ce.flow_table();
  ASSERT_EQ(first.size(), 2u);
  for (const auto& row : first) {
    // Every surfaced row joins back through the connection-mapping table.
    const auto mapped = ce.mapping_of(row.vm, row.fd);
    ASSERT_TRUE(mapped.has_value());
    EXPECT_EQ(mapped->first, row.nsm);
    EXPECT_EQ(mapped->second, row.cid);
    EXPECT_EQ(row.info.state, "established");
    EXPECT_GT(row.info.srtt_ns, 0u);
    EXPECT_GT(row.info.cwnd_bytes, 0u);
  }

  bed.run_for(milliseconds(150));
  const auto second = ce.flow_table();
  ASSERT_EQ(second.size(), 2u);
  std::uint64_t retransmits = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_GT(second[i].info.bytes_out, first[i].info.bytes_out);
    retransmits += second[i].info.retransmits;
  }
  // 0.2% loss over 350 ms of bulk traffic cannot avoid retransmitting.
  EXPECT_GT(retransmits, 0u);

  // The monitor report embeds the table and the per-VM/per-NSM rollups.
  core::health_monitor mon{ce, core::monitor_config{}};
  const std::string report = mon.report_json();
  EXPECT_NE(report.find("\"flows\":["), std::string::npos);
  EXPECT_NE(report.find("\"flow_aggregates\""), std::string::npos);
  EXPECT_NE(report.find("\"by_vm\""), std::string::npos);
  EXPECT_NE(report.find("\"by_nsm\""), std::string::npos);
  EXPECT_NE(report.find("\"srtt_ns\""), std::string::npos);
}

#ifndef NK_NO_TRACING

// --- stage-pair attribution (ISSUE 5 tentpole) ---------------------------------

TEST(nqe_tracing, stage_pair_attribution_in_both_exports) {
  auto params = apps::datacenter_params(42);
  params.netkernel.trace.enabled = true;
  params.netkernel.trace.sample_rate = 1.0;
  testbed bed{params};
  ASSERT_EQ(run_echo(bed), 64u * 1024u);

  core::core_engine& ce = bed.netkernel(side::a);
  const std::string prom = ce.metrics().to_prom();
  const std::string json = ce.metrics().to_json();
  // Completed traces fed per-hop histograms in both directions, and both
  // exporters carry them.
  EXPECT_NE(prom.find("nk_nqe_attr_fwd_"), std::string::npos);
  EXPECT_NE(prom.find("nk_nqe_attr_rev_"), std::string::npos);
  EXPECT_NE(json.find("\"nqe_attr_fwd_"), std::string::npos);
  EXPECT_NE(json.find("\"nqe_attr_rev_"), std::string::npos);

  // The critical-path summary names a dominant hop per direction.
  const std::string cp = ce.tracer().critical_path_json();
  EXPECT_EQ(cp.front(), '{');
  EXPECT_EQ(cp.back(), '}');
  EXPECT_NE(cp.find("\"fwd\""), std::string::npos);
  EXPECT_NE(cp.find("\"rev\""), std::string::npos);
  EXPECT_NE(cp.find("\"hops\":["), std::string::npos);
  EXPECT_NE(cp.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(cp.find("\"critical\":\""), std::string::npos);
  EXPECT_EQ(cp.find("\"critical\":\"none\""), std::string::npos);

  // Attribution must not disturb the tracer's accounting invariant.
  EXPECT_TRUE(ce.audit().pipeline_checked);
  EXPECT_EQ(ce.audit().violations(), "");
}

// --- flight recorder through the monitor (ISSUE 5 tentpole) --------------------

// Killing an NSM mid-stream must leave its last trace events and the crash
// note in the monitor's crash snapshot — captured before the supervisor
// replaces the module.
TEST(flight_recorder, monitor_snapshots_victim_on_kill) {
  auto params = apps::datacenter_params(5);
  params.netkernel.trace.enabled = true;
  params.netkernel.trace.sample_rate = 1.0;
  testbed bed{params};

  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  nsm_cfg.cc = tcp::cc_algorithm::cubic;
  nsm_cfg.form = core::nsm_form::hypervisor_module;  // ~1 ms replacement
  virt::vm_config vm_cfg;
  vm_cfg.name = "sender-vm";
  nsm_cfg.name = "nsm-a";
  auto tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "sink-vm";
  nsm_cfg.name = "nsm-b";
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::bulk_sink sink{*rx.api, 7400, /*validate=*/false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 2;
  scfg.bytes_per_flow = 0;
  scfg.patterned = false;
  apps::bulk_sender sender{*tx.api, {rx.module->config().address, 7400},
                           scfg};
  sender.start();

  core::core_engine& rx_ce = bed.netkernel(side::b);
  core::monitor_config mcfg;
  mcfg.interval = milliseconds(1);
  mcfg.failure_deadline = milliseconds(20);
  core::health_monitor mon{rx_ce, mcfg};
  core::nsm_supervisor sup{rx_ce, mon};
  mon.start();
  bed.run_for(milliseconds(50));

  const core::nsm_id victim = rx.module->id();
  EXPECT_TRUE(mon.crash_snapshots().empty());
  rx_ce.service_of(victim)->fail();
  bed.run_for(milliseconds(30));

  const auto& snaps = mon.crash_snapshots();
  ASSERT_EQ(snaps.count(victim), 1u);
  const std::string& snap = snaps.at(victim);
  EXPECT_NE(snap.find("\"kind\":\"trace_"), std::string::npos);  // last traces
  EXPECT_NE(snap.find("crash"), std::string::npos);  // ServiceLib's note
  // The ring never exceeds its configured capacity.
  EXPECT_LE(rx_ce.recorder().events(victim).size(),
            rx_ce.recorder().capacity());
  EXPECT_EQ(sup.failovers(), 1);
}

#endif  // NK_NO_TRACING

// --- registry edge cases (PR 6) -----------------------------------------------

TEST(metrics_registry, percentile_gauges_refresh_from_empty) {
  metrics_registry reg;
  histogram& h = reg.get_histogram("cold_ns");

  // Empty histogram: the percentile gauges still export (value 0), and a
  // timeseries percentile source samples NaN — never a stale number.
  EXPECT_NE(reg.to_prom().find("nk_cold_ns_p99 0"), std::string::npos);

  sim::simulator s{1};
  timeseries ts{s, reg};
  const std::string p99 = ts.track_percentile("cold_ns", 99.0);
  ts.snap_now();
  EXPECT_TRUE(std::isnan(ts.latest(p99)));

  // First record: both the prom gauge and the series row refresh.
  h.record(500);
  s.run_until(s.now() + milliseconds(1));
  ts.snap_now();
  EXPECT_EQ(ts.latest(p99), h.p99());
  EXPECT_EQ(reg.to_prom().find("nk_cold_ns_p99 0\n"), std::string::npos);
}

TEST(metrics_registry, dup_guard_covers_histogram_subseries) {
  metrics_registry reg;
  // Two histogram names that sanitize to the same exposition name: every
  // derived series (buckets, sum, count, percentile gauges) must carry the
  // _dup suffix too, or the output declares one name twice.
  reg.get_histogram("rtt.ns").record(10);
  reg.get_histogram("rtt/ns").record(20);

  const std::string prom = reg.to_prom();
  EXPECT_NE(prom.find("# TYPE nk_rtt_ns histogram"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE nk_rtt_ns_dup histogram"), std::string::npos);
  EXPECT_NE(prom.find("nk_rtt_ns_dup_sum 20"), std::string::npos);
  EXPECT_NE(prom.find("nk_rtt_ns_dup_count 1"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE nk_rtt_ns_dup_p99 gauge"), std::string::npos);

  std::set<std::string> declared;
  for (std::size_t pos = 0;
       (pos = prom.find("# TYPE ", pos)) != std::string::npos;) {
    pos += 7;
    const std::size_t sp = prom.find(' ', pos);
    ASSERT_NE(sp, std::string::npos);
    EXPECT_TRUE(declared.insert(prom.substr(pos, sp - pos)).second)
        << "duplicate TYPE for " << prom.substr(pos, sp - pos);
  }
}

TEST(timeseries, unregister_prefix_turns_series_to_null) {
  sim::simulator s{1};
  metrics_registry reg;
  timeseries ts{s, reg};
  reg.get_counter("vm1_ops").inc(3);
  ts.track("vm1_ops");
  ts.snap_now();
  EXPECT_EQ(ts.latest("vm1_ops"), 3.0);

  // The metric family is torn down mid-run (VM detach). Later rows sample
  // NaN; the export shows null, never the last pre-teardown value.
  reg.unregister_prefix("vm1");
  s.run_until(s.now() + milliseconds(1));
  ts.snap_now();
  EXPECT_TRUE(std::isnan(ts.latest("vm1_ops")));
  const std::string json = ts.to_json();
  EXPECT_NE(json.find("\"vm1_ops\":[3,null]"), std::string::npos) << json;
  // Windowed reducers skip the NaN rows instead of poisoning the result.
  EXPECT_EQ(ts.delta("vm1_ops", milliseconds(10)), 0.0);
}

// --- timeseries ring ----------------------------------------------------------

TEST(timeseries, ring_wraps_and_windows_reduce) {
  sim::simulator s{1};
  metrics_registry reg;
  counter& ops = reg.get_counter("ops");
  timeseries_config cfg;
  cfg.resolution = milliseconds(1);
  cfg.retention = 4;
  timeseries ts{s, reg, cfg};
  ts.track("ops");
  ts.start();

  // +10 ops per sampled millisecond, for 8 ms: the 4-row ring wraps.
  for (int i = 0; i < 8; ++i) {
    s.run_until(s.now() + milliseconds(1));
    ops.inc(10);
  }
  EXPECT_EQ(ts.samples(), 4u);
  // Rows hold the value at tick time: t=5..8 ms sampled 40,50,60,70.
  EXPECT_EQ(ts.latest("ops"), 70.0);
  EXPECT_EQ(ts.delta("ops", milliseconds(10)), 30.0);
  EXPECT_DOUBLE_EQ(ts.rate_per_sec("ops", milliseconds(10)), 10'000.0);
  // Half the retained rows exceed 55.
  EXPECT_DOUBLE_EQ(
      ts.violation_fraction("ops", milliseconds(10), 55.0, /*above=*/true),
      0.5);
  ts.stop();
}

TEST(timeseries, snap_now_overwrites_same_timestamp) {
  sim::simulator s{1};
  metrics_registry reg;
  counter& ops = reg.get_counter("ops");
  timeseries ts{s, reg};
  ts.track("ops");

  ops.inc(1);
  ts.snap_now();
  ops.inc(1);
  ts.snap_now();  // same sim time: the row is replaced, not duplicated
  EXPECT_EQ(ts.samples(), 1u);
  EXPECT_EQ(ts.latest("ops"), 2.0);
}

// --- SLO burn-rate engine -----------------------------------------------------

TEST(slo_engine, multi_window_burn_is_edge_triggered) {
  sim::simulator s{1};
  metrics_registry reg;
  gauge& lat = reg.get_gauge("lat_ns");
  timeseries_config cfg;
  cfg.resolution = milliseconds(1);
  timeseries ts{s, reg, cfg};
  ts.track("lat_ns");

  slo_engine slo{ts};
  slo_objective o;
  o.name = "lat";
  o.metric = "lat_ns";
  o.threshold = 10.0;
  o.budget = 0.01;
  o.short_window = milliseconds(2);
  o.long_window = milliseconds(5);
  o.burn_threshold = 10.0;
  slo.add(o);
  std::size_t fired = 0;
  slo.add_alert_handler([&fired](const slo_status& st) {
    EXPECT_EQ(st.objective.name, "lat");
    EXPECT_TRUE(st.burning);
    ++fired;
  });
  ts.start();

  // Sustained violation: one alert at the start of the episode, not one
  // per tick.
  lat.set(100.0);
  s.run_until(s.now() + milliseconds(6));
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(slo.alerts_total(), 1u);
  EXPECT_TRUE(slo.statuses()[0].burning);

  // Recovery: once every violating row ages out of the long window the
  // episode ends...
  lat.set(1.0);
  s.run_until(s.now() + milliseconds(8));
  EXPECT_FALSE(slo.statuses()[0].burning);
  EXPECT_EQ(fired, 1u);

  // ...and the next violation is a new episode with its own alert.
  lat.set(100.0);
  s.run_until(s.now() + milliseconds(6));
  EXPECT_EQ(fired, 2u);
  EXPECT_EQ(slo.alerts_total(), 2u);
  EXPECT_NE(slo.to_json().find("\"alerts\":2"), std::string::npos);
  ts.stop();
}

// --- continuous profiler ------------------------------------------------------

#ifndef NK_NO_PROFILING

TEST(profiler_sim, charges_attribute_to_scope_and_core) {
  sim::simulator s{1};
  profiler prof{&s};
  sim::cpu_core core{s, "core0"};
  {
    prof_scope scope{"tcp", "input"};
    core.execute(microseconds(10), [] {});
  }
  core.execute(microseconds(5), [] {});  // no scope: explicit bucket
  s.run();

  EXPECT_EQ(prof.charged_ns(), 15'000u);
  EXPECT_EQ(prof.attributed_ns(), 10'000u);
  EXPECT_NEAR(prof.attribution_ratio(), 10.0 / 15.0, 1e-12);

  const auto top = prof.top(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].stack, "core0;tcp:input");
  EXPECT_EQ(top[0].ns, 10'000u);
  EXPECT_EQ(top[0].count, 1u);
  EXPECT_EQ(top[1].stack, "core0;(unattributed)");
  EXPECT_EQ(top[1].ns, 5'000u);

  const auto cores = prof.cores();
  ASSERT_EQ(cores.size(), 1u);
  EXPECT_EQ(cores[0].core, "core0");
  EXPECT_EQ(cores[0].busy_ns, 15'000u);
  EXPECT_EQ(cores[0].attributed_ns, 10'000u);

  EXPECT_NE(prof.collapsed().find("core0;tcp:input 10000"),
            std::string::npos);
  EXPECT_NE(prof.to_json().find("\"attribution\""), std::string::npos);
}

TEST(profiler_sim, nested_scopes_fold_into_stacks) {
  sim::simulator s{1};
  profiler prof{&s};
  sim::cpu_core core{s, "c"};
  {
    prof_scope pump{"servicelib", "pump"};
    core.execute(microseconds(1), [] {});
    {
      prof_scope out{"tcp", "output"};
      core.execute(microseconds(2), [] {});
    }
    core.execute(microseconds(3), [] {});
  }
  s.run();

  // Both pump charges fold into one leaf; the nested charge gets its own
  // two-deep stack.
  const auto top = prof.top(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].stack, "c;servicelib:pump");
  EXPECT_EQ(top[0].ns, 4'000u);
  EXPECT_EQ(top[0].count, 2u);
  EXPECT_EQ(top[1].stack, "c;servicelib:pump;tcp:output");
  EXPECT_EQ(top[1].ns, 2'000u);
  EXPECT_DOUBLE_EQ(prof.attribution_ratio(), 1.0);
}

TEST(profiler_wall, scopes_measure_exclusive_self_time) {
  profiler prof{nullptr};
  EXPECT_TRUE(prof.wall_mode());
  volatile std::uint64_t sink = 0;
  {
    prof_scope outer{"bench", "outer"};
    for (int i = 0; i < 100'000; ++i) sink = sink + static_cast<std::uint64_t>(i);
    {
      prof_scope inner{"bench", "inner"};
      for (int i = 0; i < 100'000; ++i) sink = sink + static_cast<std::uint64_t>(i);
    }
  }
  EXPECT_GT(prof.charged_ns(), 0u);
  EXPECT_EQ(prof.charged_ns(), prof.attributed_ns());

  const auto top = prof.top(10);
  ASSERT_EQ(top.size(), 2u);
  std::uint64_t sum = 0;
  bool saw_outer = false;
  bool saw_inner = false;
  for (const auto& n : top) {
    sum += n.ns;
    saw_outer = saw_outer || n.stack == "wall;bench:outer";
    saw_inner = saw_inner || n.stack == "wall;bench:outer;bench:inner";
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  // Child time subtracted from the parent: the leaves partition the total.
  EXPECT_EQ(sum, prof.charged_ns());
}

TEST(profiler_sim, restores_previous_listener_on_destruction) {
  sim::simulator s{1};
  profiler outer{&s};
  {
    profiler inner{&s};
    EXPECT_EQ(profiler::current(), &inner);
    EXPECT_EQ(sim::current_cpu_charge_listener(), &inner);
  }
  EXPECT_EQ(profiler::current(), &outer);
  EXPECT_EQ(sim::current_cpu_charge_listener(), &outer);
}

#endif  // NK_NO_PROFILING

}  // namespace
}  // namespace nk::obs
