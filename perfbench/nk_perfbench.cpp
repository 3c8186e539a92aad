// Repository benchmark: runs one NetKernel workload on the simulated
// two-host testbed and prints its metrics as one JSON object.
//
//   nk_perfbench --workload dc_bulk|dc_websearch|dc_rpc --seed N
//                --seconds S --trace 0|1 [--spans FILE]
//
// Every number is labelled with its kind. *Modeled* numbers are simulated
// time charged from core/costs.hpp; for one seed they repeat exactly.
// *Host* numbers are the wall-clock cost of the C++ that runs the
// simulation. A run builds the testbed five times to time set-up, then
// runs one untraced rep: warm-up, the measured window, and arrivals past
// the window until every counted op has finished (or the drain limit has
// passed) and the --seconds budget is spent; host time covers the window
// and that extension. With
// --trace 1 the budget is split: the untraced rep gets the first half and
// a traced rep (nqe tracer on at sample_rate 1.0, benchmark-side spans
// recorded) the rest. The per-layer split comes from the traced rep, and
// its modeled metrics must equal the untraced ones. perfbench/README.md,
// "How a run works", has the details.
//
// The benchmark drives the program only through its public surfaces:
// apps::testbed, apps::socket_api, core_engine stats()/metrics(), the
// profiler, simulator::events_processed() and the link, pool and stack
// stats. perfbench/README.md holds the metric catalogue.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/scenario.hpp"
#include "common/stats.hpp"
#include "obs/profiler.hpp"

namespace {

using namespace nk;
using apps::app_event;
using apps::app_socket;
using apps::side;

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

constexpr double kib = 1024.0;
constexpr double mib = 1024.0 * 1024.0;
// Simulated time per run_until slice; gauges are sampled between slices.
constexpr sim_time slice = milliseconds(1);

// --- benchmark-side spans ------------------------------------------------------

// What a span covers. sim: one run_until slice (the whole event loop,
// program and benchmark callbacks alike). guest_lib: one socket_api call.
// apps: one generator or sink callback of this benchmark.
enum class span_kind : std::uint8_t { sim, guest_lib, apps };
constexpr std::size_t span_kinds = 3;

// Spans recorded from this file only, around the calls into the program;
// spans inside the program are not available from outside. Kept in memory
// and written out once at the end. Self time is a span's duration minus
// that of its direct children, so the three kinds partition a slice's
// wall time into event loop, guest_lib calls and benchmark callbacks.
class span_log {
 public:
  // Spans beyond this many are still aggregated but not retained for the
  // output file (dc_rpc makes ~1.5M spans per traced rep).
  static constexpr std::size_t max_retained = 100000;

  bool enabled = false;

  std::uint32_t open(const char* name, span_kind kind) {
    const auto id = static_cast<std::uint32_t>(total_++);
    stack_.push_back(frame{name, kind, id, wall_ns(), 0});
    return id;
  }

  void close() {
    const std::uint64_t end = wall_ns();
    const frame f = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = end - f.start_ns;
    self_ns_[static_cast<std::size_t>(f.kind)] += dur - f.child_ns;
    const std::uint32_t parent =
        stack_.empty() ? no_parent : stack_.back().id;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (f.kind == span_kind::guest_lib) {
      call_ns_.push_back(static_cast<double>(dur));
    }
    if (retained_.size() < max_retained) {
      retained_.push_back(record{f.name, f.id, parent, f.start_ns, dur});
    }
  }

  class scope {
   public:
    scope(span_log& log, const char* name, span_kind kind)
        : log_{log.enabled ? &log : nullptr} {
      if (log_ != nullptr) log_->open(name, kind);
    }
    ~scope() {
      if (log_ != nullptr) log_->close();
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    span_log* log_;
  };

  [[nodiscard]] std::uint64_t self_ns(span_kind k) const {
    return self_ns_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] const std::vector<double>& call_ns() const { return call_ns_; }

  // Starts the per-window aggregates afresh (the retained spans stay).
  void reset_aggregates() {
    self_ns_ = {};
    call_ns_.clear();
  }

  // Chrome trace_event JSON ("X" complete events, microseconds since the
  // first span), loadable in chrome://tracing and ui.perfetto.dev.
  bool write(const std::string& path) const {
    std::ofstream out{path};
    if (!out) return false;
    const std::uint64_t t0 = retained_.empty() ? 0 : retained_.front().start_ns;
    out << "{\"displayTimeUnit\":\"ns\",\"spans_total\":" << total_
        << ",\"spans_written\":" << retained_.size() << ",\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < retained_.size(); ++i) {
      const record& r = retained_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%d}}",
                    i == 0 ? "" : ",", r.name,
                    static_cast<double>(r.start_ns - t0) / 1e3,
                    static_cast<double>(r.dur_ns) / 1e3, r.id,
                    r.parent == no_parent ? -1 : static_cast<int>(r.parent));
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  static constexpr std::uint32_t no_parent = ~0u;
  struct frame {
    const char* name;
    span_kind kind;
    std::uint32_t id;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  struct record {
    const char* name;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
  };
  std::vector<frame> stack_;
  std::vector<record> retained_;
  std::array<std::uint64_t, span_kinds> self_ns_{};
  std::vector<double> call_ns_;
  std::uint64_t total_ = 0;
};

// One tenant's socket_api as the workloads see it: in traced reps every
// call into guest_lib is a span, and every event handler runs inside an
// apps span.
class probed_api {
 public:
  probed_api(apps::socket_api& api, span_log& log) : api_{api}, log_{log} {}

  template <typename F>
  auto call(const char* name, F&& fn) {
    span_log::scope s{log_, name, span_kind::guest_lib};
    return fn(api_);
  }

  result<app_socket> open() {
    return call("guest_lib.open", [](auto& a) { return a.open(); });
  }
  status bind(app_socket s, std::uint16_t port) {
    return call("guest_lib.bind", [&](auto& a) { return a.bind(s, port); });
  }
  status listen(app_socket s, int backlog) {
    return call("guest_lib.listen",
                [&](auto& a) { return a.listen(s, backlog); });
  }
  status connect(app_socket s, net::socket_addr to) {
    return call("guest_lib.connect", [&](auto& a) { return a.connect(s, to); });
  }
  result<app_socket> accept(app_socket l) {
    return call("guest_lib.accept", [&](auto& a) { return a.accept(l); });
  }
  result<std::size_t> send(app_socket s, buffer b) {
    return call("guest_lib.send",
                [&](auto& a) { return a.send(s, std::move(b)); });
  }
  result<buffer> recv(app_socket s, std::size_t max) {
    return call("guest_lib.recv", [&](auto& a) { return a.recv(s, max); });
  }
  status close(app_socket s) {
    return call("guest_lib.close", [&](auto& a) { return a.close(s); });
  }

  void on_event(app_socket s, const char* name,
                std::function<void(app_socket, app_event, errc)> fn) {
    api_.on_event(s, [this, name, fn = std::move(fn)](app_socket sock,
                                                      app_event type,
                                                      errc err) {
      span_log::scope sc{log_, name, span_kind::apps};
      fn(sock, type, err);
    });
  }

 private:
  apps::socket_api& api_;
  span_log& log_;
};

// --- payload ---------------------------------------------------------------------

// One precomputed block serves every payload byte: the byte at payload
// offset o is block[o % period]. Senders pass zero-copy slices of it and
// sinks memcmp every delivered byte against it, so the check costs one
// compare per byte and no per-send allocation. The period is prime so 64 KB
// writes never line up with it, and the block is period + 64 KB long so any
// write is a single slice.
class payload_pattern {
 public:
  static constexpr std::size_t period = 65521;
  static constexpr std::size_t max_write = 64 * 1024;

  payload_pattern() {
    rng r{0x6e6b7061796c6f64ULL};
    std::vector<std::byte> b(period + max_write);
    for (std::size_t i = 0; i < period; ++i) {
      b[i] = static_cast<std::byte>(r.next_u64() & 0xff);
    }
    for (std::size_t i = period; i < b.size(); ++i) b[i] = b[i - period];
    block_ = buffer::copy_of(b);
  }

  [[nodiscard]] buffer slice(std::uint64_t off, std::size_t len) const {
    return block_.slice(off % period, std::min(len, max_write));
  }

  [[nodiscard]] bool matches(std::uint64_t off,
                             std::span<const std::byte> got) const {
    std::size_t done = 0;
    while (done < got.size()) {
      const std::size_t at = (off + done) % period;
      const std::size_t n = std::min(got.size() - done, block_.size() - at);
      if (std::memcmp(block_.bytes().data() + at, got.data() + done, n) != 0) {
        return false;
      }
      done += n;
    }
    return true;
  }

 private:
  buffer block_;
};

// Every benchmark stream starts with this header: the sender's id for the
// stream (flow id, flow index or connection index) and its payload size
// (0: unbounded). The sink reads the id to find the stream's due time.
constexpr std::size_t header_size = 16;

buffer make_header(std::uint64_t id, std::uint64_t size) {
  std::array<std::byte, header_size> h{};
  std::memcpy(h.data(), &id, 8);
  std::memcpy(h.data() + 8, &size, 8);
  return buffer::copy_of(h.data(), h.size());
}

// Sender side of one stream: the header, then pattern bytes.
struct outbound_stream {
  buffer header;
  std::uint64_t limit = ~0ull;  // payload bytes to send
  std::uint64_t sent = 0;       // stream bytes send() accepted, header included

  [[nodiscard]] std::uint64_t payload_sent() const {
    return sent > header_size ? sent - header_size : 0;
  }
  [[nodiscard]] bool done() const { return payload_sent() >= limit; }
  [[nodiscard]] buffer next(const payload_pattern& pat,
                            std::uint64_t up_to) const {
    if (sent < header_size) return header.suffix_from(sent);
    const std::uint64_t off = sent - header_size;
    const std::uint64_t end = std::min(limit, up_to);
    return pat.slice(off, static_cast<std::size_t>(
                              std::min<std::uint64_t>(end - off,
                                                      payload_pattern::max_write)));
  }
};

// Receiver side of one stream: parses the header, then checks each payload
// byte against the pattern at its offset.
struct inbound_stream {
  std::array<std::byte, header_size> hdr{};
  std::size_t hdr_len = 0;
  std::uint64_t payload = 0;  // payload bytes received
  bool corrupt = false;

  [[nodiscard]] bool has_header() const { return hdr_len == header_size; }
  [[nodiscard]] std::uint64_t id() const {
    std::uint64_t v = 0;
    std::memcpy(&v, hdr.data(), 8);
    return v;
  }
  [[nodiscard]] std::uint64_t size() const {
    std::uint64_t v = 0;
    std::memcpy(&v, hdr.data() + 8, 8);
    return v;
  }

  // Consumes `b`; returns the payload bytes it carried.
  std::uint64_t feed(const payload_pattern& pat, std::span<const std::byte> b) {
    std::size_t used = 0;
    if (hdr_len < header_size) {
      used = std::min(b.size(), header_size - hdr_len);
      std::memcpy(hdr.data() + hdr_len, b.data(), used);
      hdr_len += used;
    }
    const auto body = b.subspan(used);
    if (!pat.matches(payload, body)) corrupt = true;
    payload += body.size();
    return body.size();
  }
};

// --- workloads ---------------------------------------------------------------------

struct latency_summary {
  double tail_pct = 99;  // the gated tail percentile
  double p50_us = 0;
  double tail_us = 0;
  double p99_us = 0;
  std::size_t samples = 0;
};

latency_summary summarize(const sample_set& s, double tail_pct) {
  latency_summary out;
  out.tail_pct = tail_pct;
  out.samples = s.size();
  if (!s.empty()) {
    out.p50_us = s.percentile(50);
    out.tail_us = s.percentile(tail_pct);
    out.p99_us = s.percentile(99);
  }
  return out;
}

struct metric {
  double value = 0;
  std::string unit;
  std::string kind;  // modeled, host or count
};
using metric_map = std::map<std::string, metric>;

struct workload_report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // The workload's unit of completion, timed from its due time.
  latency_summary latency;
  std::string latency_what;
  // Further numbers the workload reports (not gated).
  metric_map extra;
  std::vector<std::string> problems;  // failed checks
};

// A workload owns its tenants and generator/sink state. Ops whose due time
// falls in [window_start, window_end) are counted. Arrivals go on past the
// window, at least until every counted op has finished, so a counted op
// always meets the same load; the run uses that time to measure host cost,
// then stops arrivals and drains. A counted op that completes after
// `finish_by` in simulated time fails, however long the run goes on, so
// what happens past that instant cannot change a modeled figure.
class workload {
 public:
  workload(apps::testbed& bed, span_log& log, const payload_pattern& pat,
           std::uint64_t seed)
      : bed_{bed}, log_{log}, pat_{pat}, rng_{seed} {}
  virtual ~workload() = default;

  workload(const workload&) = delete;
  workload& operator=(const workload&) = delete;

  void start(sim_time window_start, sim_time window_end, sim_time finish_by) {
    window_start_ = window_start;
    window_end_ = window_end;
    finish_by_ = finish_by;
    open();
  }
  // Every op due in the window has completed or failed.
  [[nodiscard]] virtual bool window_done() const = 0;
  // Arrivals have stopped and no op of any window is outstanding.
  [[nodiscard]] virtual bool drained() const = 0;
  void stop_arrivals() { stopped_ = true; }
  virtual void report(workload_report& out) = 0;

  [[nodiscard]] std::uint64_t delivered_in_window() const {
    return delivered_;
  }
  [[nodiscard]] const std::vector<apps::nk_tenant>& tenants() const {
    return tenants_;
  }
  [[nodiscard]] side tenant_side(std::size_t i) const { return sides_[i]; }

 protected:
  // Opens listeners and connections and schedules the first arrivals.
  virtual void open() = 0;
  [[nodiscard]] sim_time now() { return bed_.sim().now(); }
  // A counted op completing now is too late to succeed.
  [[nodiscard]] bool late() { return now() > finish_by_; }
  [[nodiscard]] bool in_window(sim_time t) const {
    return t >= window_start_ && t < window_end_;
  }
  // Payload bytes delivered to a receiving app now.
  void delivered(std::uint64_t n) {
    if (in_window(bed_.sim().now())) delivered_ += n;
  }
  apps::nk_tenant& add(side s, const std::string& vm_name,
                       core::nsm_config nsm_cfg, int vcpus = 2) {
    virt::vm_config vm;
    vm.name = vm_name;
    vm.vcpus = vcpus;
    nsm_cfg.name = "nsm-" + vm_name;
    tenants_.push_back(bed_.add_netkernel_vm(s, vm, nsm_cfg));
    sides_.push_back(s);
    apis_.push_back(std::make_unique<probed_api>(*tenants_.back().api, log_));
    return tenants_.back();
  }
  probed_api& api(std::size_t tenant) { return *apis_[tenant]; }
  static double us(sim_time t) {
    return static_cast<double>(t.count()) / 1000.0;
  }

  apps::testbed& bed_;
  span_log& log_;
  const payload_pattern& pat_;
  rng rng_;
  sim_time window_start_{};
  sim_time window_end_{};
  sim_time finish_by_{};
  bool stopped_ = false;

 private:
  std::vector<apps::nk_tenant> tenants_;
  std::vector<side> sides_;
  std::vector<std::unique_ptr<probed_api>> apis_;
  std::uint64_t delivered_ = 0;
};

// dc_bulk: Fig 4's data path at line rate. Two long-lived CUBIC flows from
// one NetKernel VM to another over 40 GbE, closed loop: the sender writes
// 64 KB whenever the socket is writable. The unit of completion is one
// write (what one send() accepted, up to 64 KB), timed from that send() to
// the moment the sink read its last byte.
class bulk_workload final : public workload {
 public:
  static constexpr int flows = 2;
  static constexpr std::uint16_t port = 5001;

  bulk_workload(apps::testbed& bed, span_log& log, const payload_pattern& pat,
                std::uint64_t seed)
      : workload{bed, log, pat, seed} {
    core::nsm_config nsm;
    nsm.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
    nsm.cc = tcp::cc_algorithm::cubic;
    add(side::a, "bulk-tx", nsm, 4);
    add(side::b, "bulk-rx", nsm, 4);
    dst_ = tenants()[1].module->config().address;
  }

  void open() override {
    probed_api& rx = api(1);
    listener_ = rx.open().value();
    (void)rx.bind(listener_, port);
    (void)rx.listen(listener_, 16);
    rx.on_event(listener_, "apps.sink_accept",
                [this](app_socket, app_event t, errc) {
                  if (t == app_event::accept_ready) accept_all();
                });
    probed_api& tx = api(0);
    for (int i = 0; i < flows; ++i) {
      flow& f = flows_[static_cast<std::size_t>(i)];
      f.out.header = make_header(static_cast<std::uint64_t>(i), 0);
      f.sock = tx.open().value();
      tx.on_event(f.sock, "apps.bulk_writer",
                  [this, i](app_socket, app_event t, errc) {
                    if (t == app_event::connected ||
                        t == app_event::writable) {
                      pump(flows_[static_cast<std::size_t>(i)]);
                    } else if (t == app_event::error) {
                      flows_[static_cast<std::size_t>(i)].broken = true;
                    }
                  });
      // The seed sets when each flow starts (within the first millisecond),
      // and so the phase of the two CUBIC flows against each other.
      const sim_time at{static_cast<std::int64_t>(rng_.next_below(1'000'000))};
      bed_.sim().schedule(at, [this, i] {
        (void)api(0).connect(flows_[static_cast<std::size_t>(i)].sock,
                             {dst_, port});
      });
    }
  }

  [[nodiscard]] bool window_done() const override {
    if (bed_.sim().now() < window_end_) return false;
    for (const flow& f : flows_) {
      if (f.broken) continue;
      for (const write& w : f.pending) {
        if (w.counted) return false;
      }
    }
    return true;
  }

  [[nodiscard]] bool drained() const override {
    for (const flow& f : flows_) {
      if (!f.broken && !f.pending.empty()) return false;
    }
    return stopped_;
  }

  void report(workload_report& out) override {
    for (const flow& f : flows_) {
      out.attempted += f.attempted;
      out.failed += f.failed;
      for (const write& w : f.pending) {
        if (w.counted) ++out.failed;  // never delivered
      }
      if (f.broken) out.problems.push_back("bulk flow reset");
      if (f.corrupt) out.problems.push_back("bulk payload mismatch");
    }
    // The gated tail is the p95: the p99 follows the few episodes per
    // window in which one flow falls behind the other (one flow's p99 moved
    // from 2.6 to 4.2 ms between seeds), and it varied by 12.7% across 4
    // seeds even over 1.2 s; the p95 stayed within 3%.
    out.latency = summarize(write_us_, 95);
    out.latency_what = "64 KB write, send() to last byte read by the sink";
  }

 private:
  struct write {
    std::uint64_t end = 0;  // payload offset one past the write's last byte
    sim_time at{};
    bool counted = false;
  };
  struct flow {
    app_socket sock = 0;
    outbound_stream out;
    std::deque<write> pending;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool broken = false;
    bool corrupt = false;
  };

  void pump(flow& f) {
    probed_api& tx = api(0);
    while (!stopped_) {
      auto r = tx.send(f.sock, f.out.next(pat_, ~0ull));
      if (!r) return;  // resume on writable
      const bool was_header = f.out.sent < header_size;
      f.out.sent += r.value();
      if (was_header) continue;
      const bool counted = in_window(now());
      f.pending.push_back(write{f.out.payload_sent(), now(), counted});
      if (counted) ++f.attempted;
    }
  }

  void accept_all() {
    probed_api& rx = api(1);
    while (true) {
      auto r = rx.accept(listener_);
      if (!r) return;
      const app_socket s = r.value();
      sink_[s];
      rx.on_event(s, "apps.bulk_sink", [this](app_socket sock, app_event t,
                                              errc) {
        if (t == app_event::readable) drain(sock);
      });
      drain(s);
    }
  }

  void drain(app_socket s) {
    probed_api& rx = api(1);
    inbound_stream& in = sink_[s];
    while (true) {
      auto r = rx.recv(s, 256 * 1024);
      if (!r) return;
      delivered(in.feed(pat_, r.value().bytes()));
      if (!in.has_header() || in.id() >= flows) continue;
      flow& f = flows_[static_cast<std::size_t>(in.id())];
      if (in.corrupt) f.corrupt = true;
      while (!f.pending.empty() && f.pending.front().end <= in.payload) {
        const write& w = f.pending.front();
        if (w.counted) {
          if (in.corrupt || late()) {
            ++f.failed;
          } else {
            write_us_.add(us(now() - w.at));
          }
        }
        f.pending.pop_front();
      }
    }
  }

  net::ipv4_addr dst_{};
  app_socket listener_ = 0;
  std::array<flow, flows> flows_{};
  std::unordered_map<app_socket, inbound_stream> sink_;
  sample_set write_us_;
};

// dc_websearch: the only workload with connection churn. DCTCP NSMs on a
// 10 GbE bottleneck (256 KB buffer, ECN at 48 KB); open-loop arrivals at
// 1500 flows/s with exponential gaps, sizes from the web-search mix
// truncated at 2 MB (~0.7 of the link). Each flow opens, writes and closes
// its own connection; its completion time runs from its due time to the
// last byte read by the sink, so connect and the control-plane path count.
class websearch_workload final : public workload {
 public:
  static constexpr std::uint16_t port = 7100;
  static constexpr double arrivals_per_sec = 1500;
  static constexpr std::uint64_t max_flow_bytes = 2 * 1024 * 1024;
  static constexpr std::uint64_t mice_bytes = 100 * 1024;

  websearch_workload(apps::testbed& bed, span_log& log,
                     const payload_pattern& pat, std::uint64_t seed)
      : workload{bed, log, pat, seed} {
    auto cfg = apps::datacenter_tcp(tcp::cc_algorithm::dctcp);
    cfg.mss = 1448;
    core::nsm_config nsm;
    nsm.cc = tcp::cc_algorithm::dctcp;
    nsm.tcp = cfg;
    nsm.cores = 2;
    add(side::a, "ws-src", nsm);
    add(side::b, "ws-dst", nsm);
    dst_ = tenants()[1].module->config().address;
  }

  void open() override {
    probed_api& rx = api(1);
    listener_ = rx.open().value();
    (void)rx.bind(listener_, port);
    (void)rx.listen(listener_, 4096);
    rx.on_event(listener_, "apps.sink_accept",
                [this](app_socket, app_event t, errc) {
                  if (t == app_event::accept_ready) accept_all();
                });
    schedule_arrival();
  }

  [[nodiscard]] bool window_done() const override {
    return bed_.sim().now() >= window_end_ && window_open_ == 0;
  }

  [[nodiscard]] bool drained() const override {
    return stopped_ && open_flows_ == 0;
  }

  void report(workload_report& out) override {
    sample_set mice;
    sample_set mice_half[2];
    sample_set large;
    std::uint64_t offered = 0;
    const sim_time mid = window_start_ + (window_end_ - window_start_) / 2;
    for (const flow& f : flows_) {
      if (!in_window(f.due)) continue;
      ++out.attempted;
      offered += f.size;
      if (!f.done || f.corrupt || f.broken || f.done_at > finish_by_) {
        ++out.failed;
        continue;
      }
      const double fct = us(f.done_at - f.due);
      if (f.size < mice_bytes) {
        mice.add(fct);
        mice_half[f.due < mid ? 0 : 1].add(fct);
      } else {
        large.add(fct);
      }
    }
    out.latency = summarize(mice, 99);
    out.latency_what = "mice flow (<100 KB), due time to last byte at the sink";
    const double window_s = to_seconds(window_end_ - window_start_);
    const double offered_mbps = static_cast<double>(offered) * 8 / window_s / 1e6;
    const double delivered_mbps =
        static_cast<double>(delivered_in_window()) * 8 / window_s / 1e6;
    out.extra["fct_large_p50_us"] = {large.empty() ? 0 : large.percentile(50),
                                     "us", "modeled"};
    out.extra["fct_large_samples"] = {static_cast<double>(large.size()),
                                      "count", "count"};
    out.extra["offered_mbps"] = {offered_mbps, "Mb/s", "modeled"};
    const double p50a = mice_half[0].empty() ? 0 : mice_half[0].percentile(50);
    const double p50b = mice_half[1].empty() ? 0 : mice_half[1].percentile(50);
    out.extra["fct_mice_p50_first_half_us"] = {p50a, "us", "modeled"};
    out.extra["fct_mice_p50_second_half_us"] = {p50b, "us", "modeled"};
    // Steadiness: the link keeps up with the offered load, and the mice
    // median does not grow across the window (no growing backlog). The
    // half-window medians rest on ~560 mice each; their ratio varies by
    // ~4% (one standard deviation) between seeds of a steady run, while a
    // growing backlog multiplies it. Growth up to a quarter is tolerated.
    if (std::abs(delivered_mbps - offered_mbps) > 0.05 * offered_mbps) {
      out.problems.push_back("websearch: delivered goodput not within 5% of offered");
    }
    if (p50a <= 0 || p50b > 1.25 * p50a) {
      out.problems.push_back(
          "websearch: mice p50 grew by more than a quarter across the window");
    }
  }

 private:
  struct flow {
    std::uint64_t size = 0;
    sim_time due{};
    sim_time done_at{};
    app_socket sock = 0;
    outbound_stream out;
    bool done = false;
    bool broken = false;
    bool corrupt = false;
  };

  void schedule_arrival() {
    const double gap_s = next_gap_s();
    const sim_time at =
        now() + sim_time{static_cast<std::int64_t>(gap_s * 1e9)};
    bed_.sim().schedule_at(at, [this] {
      if (stopped_) return;
      span_log::scope sc{log_, "apps.flow_arrival", span_kind::apps};
      launch();
      schedule_arrival();
    });
  }

  void launch() {
    const std::uint64_t id = flows_.size();
    flow& f = flows_.emplace_back();
    f.size = next_size();
    f.due = now();
    f.out.header = make_header(id, f.size);
    f.out.limit = f.size;
    ++open_flows_;
    if (in_window(f.due)) ++window_open_;
    probed_api& tx = api(0);
    auto s = tx.open();
    if (!s) {
      fail(f);
      return;
    }
    f.sock = s.value();
    tx.on_event(f.sock, "apps.flow_writer",
                [this, id](app_socket, app_event t, errc) {
                  flow& fl = flows_[id];
                  if (t == app_event::connected || t == app_event::writable) {
                    pump(fl);
                  } else if (t == app_event::error) {
                    fail(fl);
                    (void)api(0).close(fl.sock);
                  }
                });
    if (!tx.connect(f.sock, {dst_, port}).ok()) fail(f);
  }

  // Flow sizes and arrival gaps come in decks of `deck_size`: one draw
  // from each 1/deck_size slice of the distribution, shuffled. Each value
  // keeps its distribution (web-search sizes, exponential gaps), but a deck
  // carries the mix's byte share and its mean arrival rate closely, so the
  // offered load of one window varies far less from seed to seed than with
  // independent draws (which moved the mice p95 by ±12% between seeds).
  static constexpr std::size_t deck_size = 32;

  template <typename F>
  double next_from(std::vector<double>& deck, F inverse_cdf) {
    if (deck.empty()) {
      for (std::size_t i = 0; i < deck_size; ++i) {
        deck.push_back(inverse_cdf(
            (static_cast<double>(i) + rng_.next_double()) / deck_size));
      }
      for (std::size_t i = deck_size - 1; i > 0; --i) {
        std::swap(deck[i], deck[rng_.next_below(i + 1)]);
      }
    }
    const double v = deck.back();
    deck.pop_back();
    return v;
  }

  std::uint64_t next_size() {
    return static_cast<std::uint64_t>(next_from(size_deck_, [](double u) {
      return std::min(websearch_size(u), static_cast<double>(max_flow_bytes));
    }));
  }

  double next_gap_s() {
    return next_from(gap_deck_, [](double u) {
      return -std::log1p(-u) / arrivals_per_sec;
    });
  }

  // Inverse of the web-search size CDF of apps/flowgen.cpp (DCTCP paper
  // shape), which that file keeps private; piecewise linear between knots.
  static double websearch_size(double u) {
    static constexpr std::array<std::pair<double, double>, 7> cdf{{
        {0.0, 6 * 1024.0},
        {0.15, 10 * 1024.0},
        {0.4, 50 * 1024.0},
        {0.6, 200 * 1024.0},
        {0.8, 1024 * 1024.0},
        {0.95, 10 * 1024 * 1024.0},
        {1.0, 30 * 1024 * 1024.0},
    }};
    for (std::size_t i = 1; i < cdf.size(); ++i) {
      if (u <= cdf[i].first) {
        const double frac =
            (u - cdf[i - 1].first) / (cdf[i].first - cdf[i - 1].first);
        return cdf[i - 1].second + frac * (cdf[i].second - cdf[i - 1].second);
      }
    }
    return cdf.back().second;
  }

  void fail(flow& f) {
    if (f.broken || f.done) return;
    f.broken = true;
    finished(f);
  }

  void finished(const flow& f) {
    --open_flows_;
    if (in_window(f.due)) --window_open_;
  }

  void pump(flow& f) {
    if (f.out.done() || f.broken) return;
    probed_api& tx = api(0);
    while (!f.out.done()) {
      auto r = tx.send(f.sock, f.out.next(pat_, f.out.limit));
      if (!r) return;  // resume on writable
      f.out.sent += r.value();
    }
    (void)tx.close(f.sock);  // FIN after the last byte
  }

  void accept_all() {
    probed_api& rx = api(1);
    while (true) {
      auto r = rx.accept(listener_);
      if (!r) return;
      const app_socket s = r.value();
      sink_[s];
      rx.on_event(s, "apps.flow_sink", [this](app_socket sock, app_event t,
                                              errc) {
        if (t == app_event::readable) drain(sock);
      });
      drain(s);
    }
  }

  void drain(app_socket s) {
    probed_api& rx = api(1);
    auto it = sink_.find(s);
    if (it == sink_.end()) return;
    inbound_stream& in = it->second;
    while (true) {
      auto r = rx.recv(s, 256 * 1024);
      if (!r) {
        if (r.error() == errc::closed) {
          (void)rx.close(s);
          sink_.erase(it);
        }
        return;
      }
      delivered(in.feed(pat_, r.value().bytes()));
      if (!in.has_header() || in.id() >= flows_.size()) continue;
      flow& f = flows_[in.id()];
      if (in.corrupt || in.size() != f.size) f.corrupt = true;
      if (!f.done && !f.broken && in.payload >= f.size) {
        f.done = true;
        f.done_at = now();
        finished(f);
      }
    }
  }

  net::ipv4_addr dst_{};
  app_socket listener_ = 0;
  std::deque<flow> flows_;
  std::size_t open_flows_ = 0;
  std::size_t window_open_ = 0;  // flows due in the window, not yet finished
  std::vector<double> size_deck_;
  std::vector<double> gap_deck_;
  std::unordered_map<app_socket, inbound_stream> sink_;
};

// dc_rpc: per-operation cost and fixed path latency. Two tenants, one on a
// TCP NSM and one on an nkq NSM, each with a client VM and a server VM and
// 2 persistent connections carrying pipelined 64 B echo requests. Requests
// arrive open loop, Poisson, 50k/s per connection (200k/s in total). A
// request's latency runs from its due time to the last byte of its echo.
class rpc_workload final : public workload {
 public:
  static constexpr int conns_per_tenant = 2;
  static constexpr std::uint16_t port = 7200;
  static constexpr double requests_per_sec_per_conn = 50000;
  static constexpr std::uint64_t request_bytes = 64;

  rpc_workload(apps::testbed& bed, span_log& log, const payload_pattern& pat,
               std::uint64_t seed)
      : workload{bed, log, pat, seed} {
    for (const char* transport : {"tcp", "nkq"}) {
      core::nsm_config nsm;
      nsm.transport = transport;
      nsm.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
      nsm.cc = tcp::cc_algorithm::cubic;
      const std::string t{transport};
      add(side::a, "rpc-" + t + "-client", nsm);
      add(side::b, "rpc-" + t + "-server", nsm);
    }
  }

  void open() override {
    for (std::size_t t = 0; t < 2; ++t) {
      const std::size_t client = 2 * t;
      const std::size_t server = 2 * t + 1;
      probed_api& srv = api(server);
      const app_socket l = srv.open().value();
      (void)srv.bind(l, port);
      (void)srv.listen(l, 16);
      srv.on_event(l, "apps.echo_accept",
                   [this, server, l](app_socket, app_event type, errc) {
                     if (type == app_event::accept_ready) accept_all(server, l);
                   });
      const net::ipv4_addr dst = tenants()[server].module->config().address;
      for (int c = 0; c < conns_per_tenant; ++c) {
        const std::size_t id = conns_.size();
        conn& k = conns_.emplace_back();
        k.tenant = t;
        k.out.header = make_header(id, 0);
        k.out.limit = 0;
        k.sock = api(client).open().value();
        api(client).on_event(k.sock, "apps.rpc_client",
                             [this, id](app_socket, app_event type, errc) {
                               conn& kk = conns_[id];
                               if (type == app_event::connected ||
                                   type == app_event::writable) {
                                 flush(kk);
                               } else if (type == app_event::readable) {
                                 read_echo(kk);
                               } else if (type == app_event::error) {
                                 kk.broken = true;
                               }
                             });
        (void)api(client).connect(k.sock, {dst, port});
        schedule_request(id);
      }
    }
  }

  [[nodiscard]] bool window_done() const override {
    if (bed_.sim().now() < window_end_) return false;
    for (const conn& k : conns_) {
      if (k.broken) continue;
      for (const request& r : k.due) {
        if (r.counted) return false;
      }
    }
    return true;
  }

  [[nodiscard]] bool drained() const override {
    for (const conn& k : conns_) {
      if (!k.broken && !k.due.empty()) return false;
    }
    return stopped_;
  }

  void report(workload_report& out) override {
    latency_summary worst = summarize({}, 99);
    static constexpr std::array<const char*, 2> names{"tcp", "nkq"};
    for (std::size_t t = 0; t < 2; ++t) {
      const latency_summary l = summarize(rtt_us_[t], 99);
      out.extra[std::string(names[t]) + ".rpc_p50_us"] = {l.p50_us, "us",
                                                          "modeled"};
      out.extra[std::string(names[t]) + ".rpc_p99_us"] = {l.p99_us, "us",
                                                          "modeled"};
      worst.p50_us = std::max(worst.p50_us, l.p50_us);
      worst.tail_us = std::max(worst.tail_us, l.tail_us);
      worst.p99_us = std::max(worst.p99_us, l.p99_us);
      worst.samples = t == 0 ? l.samples : std::min(worst.samples, l.samples);
    }
    for (const conn& k : conns_) {
      out.attempted += k.attempted;
      out.failed += k.failed;
      for (const request& r : k.due) {
        if (r.counted) ++out.failed;
      }
      if (k.broken) out.problems.push_back("rpc connection reset");
      if (k.in.corrupt) out.problems.push_back("rpc echo does not match its request");
    }
    for (const auto& [key, e] : echo_) {
      if (e.in.corrupt) out.problems.push_back("rpc request corrupted at the server");
    }
    out.latency = worst;
    out.latency_what =
        "64 B request, due time to its full echo (worse of the two tenants)";
  }

 private:
  struct request {
    sim_time due{};
    bool counted = false;
  };
  struct conn {
    std::size_t tenant = 0;
    app_socket sock = 0;
    outbound_stream out;  // limit grows by 64 B per request
    inbound_stream in;    // the echo
    std::deque<request> due;
    std::uint64_t echoed = 0;  // requests whose echo has fully arrived
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool broken = false;
  };
  struct echo_conn {
    inbound_stream in;
    std::deque<buffer> backlog;
  };

  void schedule_request(std::size_t id) {
    const double gap_s = rng_.exponential(1.0 / requests_per_sec_per_conn);
    const sim_time at =
        now() + sim_time{static_cast<std::int64_t>(gap_s * 1e9)};
    bed_.sim().schedule_at(at, [this, id] {
      if (stopped_) return;
      span_log::scope sc{log_, "apps.rpc_arrival", span_kind::apps};
      conn& k = conns_[id];
      const bool counted = in_window(now());
      k.due.push_back(request{now(), counted});
      if (counted) ++k.attempted;
      k.out.limit += request_bytes;
      flush(k);
      schedule_request(id);
    });
  }

  void flush(conn& k) {
    probed_api& cl = api(2 * k.tenant);
    while (!k.broken && !k.out.done()) {
      auto r = cl.send(k.sock, k.out.next(pat_, k.out.limit));
      if (!r) return;  // not connected yet, or no credit: resume on writable
      k.out.sent += r.value();
    }
  }

  void read_echo(conn& k) {
    probed_api& cl = api(2 * k.tenant);
    while (true) {
      auto r = cl.recv(k.sock, 1 << 16);
      if (!r) return;
      delivered(k.in.feed(pat_, r.value().bytes()));
      while (!k.due.empty() &&
             k.in.payload >= (k.echoed + 1) * request_bytes) {
        const request q = k.due.front();
        k.due.pop_front();
        ++k.echoed;
        if (!q.counted) continue;
        if (k.in.corrupt || late()) {
          ++k.failed;
        } else {
          rtt_us_[k.tenant].add(us(now() - q.due));
        }
      }
    }
  }

  void accept_all(std::size_t server, app_socket l) {
    probed_api& srv = api(server);
    while (true) {
      auto r = srv.accept(l);
      if (!r) return;
      const app_socket s = r.value();
      echo_[echo_key(server, s)];
      srv.on_event(s, "apps.echo_server",
                   [this, server](app_socket sock, app_event type, errc) {
                     if (type == app_event::readable ||
                         type == app_event::writable) {
                       echo(server, sock);
                     }
                   });
      echo(server, s);
    }
  }

  // Echoes every byte read, header included, so the client checks the
  // whole stream it sent.
  void echo(std::size_t server, app_socket s) {
    probed_api& srv = api(server);
    echo_conn& e = echo_[echo_key(server, s)];
    while (true) {
      auto r = srv.recv(s, 1 << 16);
      if (!r) break;
      delivered(e.in.feed(pat_, r.value().bytes()));
      e.backlog.push_back(std::move(r).value());
    }
    while (!e.backlog.empty()) {
      auto w = srv.send(s, e.backlog.front());
      if (!w) return;  // resume on writable
      if (w.value() < e.backlog.front().size()) {
        e.backlog.front() = e.backlog.front().suffix_from(w.value());
      } else {
        e.backlog.pop_front();
      }
    }
  }

  // Server sockets of the two tenants come from different guest_libs, so
  // their fds may collide: key by (server tenant, fd).
  static std::uint64_t echo_key(std::size_t server, app_socket s) {
    return (std::uint64_t{server} << 32) | s;
  }

  std::deque<conn> conns_;
  std::unordered_map<std::uint64_t, echo_conn> echo_;
  sample_set rtt_us_[2];
};

// --- measurement ---------------------------------------------------------------

struct workload_spec {
  const char* name;
  sim_time warmup;
  sim_time window;
  sim_time drain_limit;  // a counted op done later past the window fails
};

// Window lengths give each workload at least 10 samples beyond its tail
// percentile (dc_websearch: ~1120 mice in 1.6 sim-s) and keep the modeled
// part of a run within ~30 s of wall time on a 4-core 2 GHz Xeon VM.
// dc_bulk warms up for 300 ms because its send buffers fill for that long,
// and measures 1.2 s because over 0.6 s its write-latency p95 varied by
// ~10% between seeds (3% over 1.2 s).
constexpr std::array<workload_spec, 3> specs{{
    {"dc_bulk", milliseconds(300), milliseconds(1200), milliseconds(100)},
    {"dc_websearch", milliseconds(200), milliseconds(1600), milliseconds(300)},
    {"dc_rpc", milliseconds(20), milliseconds(500), milliseconds(50)},
}};

apps::testbed_params params_for(std::string_view name, std::uint64_t seed,
                                bool traced) {
  auto p = apps::datacenter_params(seed);
  if (name == "dc_websearch") {
    p.wire.rate = data_rate::gbps(10);
    p.wire.queue.capacity_bytes = 256 * 1024;
    p.wire.queue.ecn_threshold_bytes = 48 * 1024;
  }
  // At sample_rate 1.0 the tracer draws no randomness, so the modeled
  // trajectory is the untraced one.
  p.netkernel.trace.enabled = traced;
  p.netkernel.trace.sample_rate = 1.0;
  return p;
}

std::unique_ptr<workload> make_workload(std::string_view name,
                                        apps::testbed& bed, span_log& log,
                                        const payload_pattern& pat,
                                        std::uint64_t seed) {
  const std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + 0x5bd1e995;
  if (name == "dc_bulk") return std::make_unique<bulk_workload>(bed, log, pat, s);
  if (name == "dc_websearch") {
    return std::make_unique<websearch_workload>(bed, log, pat, s);
  }
  return std::make_unique<rpc_workload>(bed, log, pat, s);
}

// A testbed and its workload, built together; `setup_s` is the wall time
// that took.
struct scenario {
  std::unique_ptr<apps::testbed> bed;
  std::unique_ptr<workload> wl;
  double setup_s = 0;
};

scenario build(const workload_spec& spec, std::uint64_t seed, bool traced,
               span_log& log, const payload_pattern& pat) {
  scenario sc;
  const std::uint64_t t0 = wall_ns();
  sc.bed = std::make_unique<apps::testbed>(params_for(spec.name, seed, traced));
  sc.wl = make_workload(spec.name, *sc.bed, log, pat, seed);
  sc.setup_s = static_cast<double>(wall_ns() - t0) / 1e9;
  return sc;
}

constexpr std::array<obs::nqe_stage, 8> traced_stages{
    obs::nqe_stage::vm_job_dwell,   obs::nqe_stage::engine_copy_fwd,
    obs::nqe_stage::nsm_job_dwell,  obs::nqe_stage::servicelib_dispatch,
    obs::nqe_stage::stack_accept,   obs::nqe_stage::nsm_out_dwell,
    obs::nqe_stage::engine_copy_rev, obs::nqe_stage::vm_out_dwell};

// Cumulative counters of every layer at one instant; a window's figures are
// the end snapshot minus the start one.
struct snapshot {
  std::map<std::string, double> v;
  // nqe stage histograms of both engines, bucket-wise summed.
  std::array<std::vector<std::uint64_t>, traced_stages.size()> stages;
};

// Innermost NK_PROF component of a profiler node ("core;comp:op;comp:op").
std::string innermost_component(const std::string& stack) {
  const auto semi = stack.rfind(';');
  if (semi == std::string::npos) return "(unattributed)";
  const std::string leaf = stack.substr(semi + 1);
  return leaf.substr(0, leaf.find(':'));
}

snapshot take_snapshot(apps::testbed& bed, const workload& wl) {
  snapshot s;
  auto& v = s.v;
  for (auto& b : s.stages) b.assign(obs::histogram::bucket_count, 0);
  v["events"] = static_cast<double>(bed.sim().events_processed());
  for (const side sd : {side::a, side::b}) {
    for (const auto& core : bed.host(sd).cores()) {
      const auto busy = static_cast<double>(core->busy_time().count());
      v["busy"] += busy;
      v["busy:" + core->name()] = busy;
    }
    core::core_engine& ce = bed.netkernel(sd);
    const core::core_engine_stats st = ce.stats();
    v["ce.nqes"] += static_cast<double>(st.nqes_forwarded);
    v["ce.deferred"] += static_cast<double>(st.nqes_deferred);
    v["ce.mappings"] += static_cast<double>(st.mappings_installed);
    v["ce.failed"] += static_cast<double>(st.unroutable_nqes + st.nqes_dropped +
                                          st.stale_nqes + st.rejected_nqes);
    for (std::size_t i = 0; i < ce.shards(); ++i) {
      if (const auto* c = ce.shard_core(i)) {
        v["ce_core:" + c->name()] = static_cast<double>(c->busy_time().count());
      }
    }
    for (std::size_t i = 0; i < traced_stages.size(); ++i) {
      const std::string name =
          "nqe_stage_" + std::string(obs::to_string(traced_stages[i])) + "_ns";
      if (const auto* h = ce.metrics().find_histogram(name)) {
        for (std::size_t b = 0; b < s.stages[i].size(); ++b) {
          s.stages[i][b] += h->buckets()[b];
        }
      }
    }
    const auto& vs = bed.host(sd).overlay_switch().stats();
    v["vswitch.forwards"] +=
        static_cast<double>(vs.software_forwards + vs.embedded_forwards);
  }
  for (std::size_t i = 0; i < wl.tenants().size(); ++i) {
    const apps::nk_tenant& t = wl.tenants()[i];
    core::core_engine& ce = bed.netkernel(wl.tenant_side(i));
    const auto& gs = t.glib->stats();
    v["glib.ops"] += static_cast<double>(gs.ops_issued);
    v["glib.send_blocked"] += static_cast<double>(gs.send_blocked);
    if (const auto* sl = ce.service_of(t.module->id())) {
      const auto& ss = sl->stats();
      v["sl.ops"] += static_cast<double>(ss.ops_processed);
      v["sl.stalls"] += static_cast<double>(ss.chunk_stalls + ss.queue_stalls +
                                            ss.quota_stalls +
                                            ss.chunk_quota_stalls);
    }
    const auto& ns = t.module->stack().stats();
    v["stack.packets"] += static_cast<double>(ns.tx_packets + ns.rx_packets);
    v["stack.opened"] += static_cast<double>(ns.connections_opened);
    for (const auto* c : t.module->cores()) {
      v["nsm_core:" + c->name()] = static_cast<double>(c->busy_time().count());
    }
    if (const auto* ch = ce.channel_of(t.vm->id())) {
      v["pool.failed_allocs"] += static_cast<double>(ch->pool.failed_allocs());
    }
  }
  for (phys::link* l : {&bed.wire().forward(), &bed.wire().backward()}) {
    v["link.bytes"] = std::max(v["link.bytes"],
                               static_cast<double>(l->stats().bytes_sent));
    v["link.drops"] += static_cast<double>(l->queue_statistics().dropped);
    v["link.ecn"] += static_cast<double>(l->queue_statistics().ecn_marked);
  }
  obs::profiler& prof = bed.profiler();
  for (const auto& node : prof.top(~std::size_t{0})) {
    v["prof:" + innermost_component(node.stack)] += static_cast<double>(node.ns);
  }
  v["prof.charged"] = static_cast<double>(prof.charged_ns());
  v["prof.attributed"] = static_cast<double>(prof.attributed_ns());
  return s;
}

// Nearest-rank percentile of a bucket-count difference, resolved to the
// bucket's upper bound like obs::histogram::percentile.
double bucket_percentile(const std::vector<std::uint64_t>& end,
                         const std::vector<std::uint64_t>& start, double p) {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < end.size(); ++b) total += end[b] - start[b];
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < end.size(); ++b) {
    seen += end[b] - start[b];
    if (seen >= std::max<std::uint64_t>(rank, 1)) {
      return static_cast<double>(
          obs::histogram::bucket_upper(static_cast<int>(b)));
    }
  }
  return 0.0;
}

// TCP retransmissions (fast retransmits + RTO firings) summed over every
// connection the TCP NSMs' stacks have had. Connections are sampled while
// alive; a closed connection lingers in TIME_WAIT for 500 ms, far longer
// than the sampling interval, so its final count is seen.
class retransmit_sampler {
 public:
  void sample(const workload& wl) {
    for (std::size_t i = 0; i < wl.tenants().size(); ++i) {
      core::nsm& m = *wl.tenants()[i].module;
      if (m.config().transport != "tcp") continue;
      stack::netstack& ns = m.stack();
      auto& seen = last_[m.config().name];
      const auto& st = ns.stats();
      // Socket ids are minted sequentially; listeners add a few.
      const std::uint64_t hi =
          st.connections_opened + st.connections_accepted + 16;
      for (stack::socket_id id = 1; id <= hi; ++id) {
        if (auto fi = ns.flow_info(id)) seen[id] = fi->retransmits;
      }
    }
  }
  [[nodiscard]] double total() const {
    double n = 0;
    for (const auto& [name, seen] : last_) {
      for (const auto& [id, r] : seen) n += static_cast<double>(r);
    }
    return n;
  }

 private:
  std::map<std::string, std::unordered_map<stack::socket_id, std::uint64_t>>
      last_;
};

// What one rep measured.
struct rep_result {
  double setup_s = 0;
  double host_s_per_sim_s = 0;
  double host_sim_s = 0;  // simulated time the host figure covers
  double events = 0;
  metric_map modeled;  // end-to-end, must repeat exactly for the seed
  metric_map layer;    // per-layer (host parts only meaningful when traced)
  workload_report report;
};

rep_result run_rep(const workload_spec& spec, std::uint64_t seed, bool traced,
                   const payload_pattern& pat, span_log& log,
                   std::uint64_t deadline_wall_ns) {
  log.enabled = traced;
  scenario sc = build(spec, seed, traced, log, pat);
  apps::testbed& bed = *sc.bed;
  workload& wl = *sc.wl;
  rep_result out;
  out.setup_s = sc.setup_s;

  const sim_time ws = spec.warmup;
  const sim_time we = spec.warmup + spec.window;
  const sim_time finish_by = we + spec.drain_limit;
  wl.start(ws, we, finish_by);
  retransmit_sampler retx;
  std::uint64_t timed_wall_ns = 0;  // wall time inside timed slices
  sim_time timed_sim{};             // simulated time they covered
  auto run_slice = [&](bool timed) {
    const std::uint64_t t0 = wall_ns();
    {
      span_log::scope s{log, "sim.run_until", span_kind::sim};
      bed.sim().run_until(bed.sim().now() + slice);
    }
    if (timed) {
      timed_wall_ns += wall_ns() - t0;
      timed_sim += slice;
    }
  };
  while (bed.sim().now() < ws) run_slice(false);

  // The measured window: modeled and per-layer figures cover exactly it.
  if (traced) retx.sample(wl);
  const double retx_start = retx.total();
  log.reset_aggregates();
  const snapshot start = take_snapshot(bed, wl);
  double pool_free_min = 1.0;
  double ring_depth_max = 0;
  int slices = 0;
  while (bed.sim().now() < we) {
    run_slice(true);
    for (std::size_t i = 0; i < wl.tenants().size(); ++i) {
      const auto* ch =
          bed.netkernel(wl.tenant_side(i)).channel_of(wl.tenants()[i].vm->id());
      if (ch == nullptr) continue;
      pool_free_min = std::min(
          pool_free_min, static_cast<double>(ch->pool.chunks_free()) /
                             static_cast<double>(ch->pool.chunk_count()));
      ring_depth_max = std::max(
          {ring_depth_max, static_cast<double>(ch->vm_job_depth()),
           static_cast<double>(ch->vm_out_depth()),
           static_cast<double>(ch->nsm_job_depth()),
           static_cast<double>(ch->nsm_out_depth())});
    }
    if (traced && ++slices % 20 == 0) retx.sample(wl);
  }
  const double window_wall_s = static_cast<double>(timed_wall_ns) / 1e9;
  const snapshot end = take_snapshot(bed, wl);
  if (traced) retx.sample(wl);
  const double retx_window = retx.total() - retx_start;
  const std::uint64_t apps_self_ns = log.self_ns(span_kind::apps);
  const std::vector<double> call_ns = log.call_ns();

  // Past the window, arrivals go on until every counted op has finished
  // (bounded by the drain limit) and for as long as the wall-clock budget
  // lasts; host time is measured over the window and all of this.
  while ((!wl.window_done() && bed.sim().now() < finish_by) ||
         wall_ns() < deadline_wall_ns) {
    run_slice(true);
  }
  out.host_s_per_sim_s =
      static_cast<double>(timed_wall_ns) / 1e9 / to_seconds(timed_sim);
  out.host_sim_s = to_seconds(timed_sim);

  // Drain: stop arrivals and let everything outstanding finish, bounded.
  wl.stop_arrivals();
  const sim_time drain_end = bed.sim().now() + spec.drain_limit;
  while (!wl.drained() && bed.sim().now() < drain_end) run_slice(false);
  // A few more slices let credits and receive windows flow back.
  for (int i = 0; i < 5; ++i) run_slice(false);

  wl.report(out.report);
  auto& problems = out.report.problems;

  const double window_s = to_seconds(spec.window);
  auto d = [&](const std::string& k) {
    auto e = end.v.find(k);
    auto b = start.v.find(k);
    return (e == end.v.end() ? 0.0 : e->second) -
           (b == start.v.end() ? 0.0 : b->second);
  };
  const double delivered = static_cast<double>(wl.delivered_in_window());
  const double delivered_mb = delivered / mib;
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  out.events = d("events");

  auto& m = out.modeled;
  m["goodput_mbps"] = {delivered * 8 / window_s / 1e6, "Mb/s", "modeled"};
  m["latency_p50_us"] = {out.report.latency.p50_us, "us", "modeled"};
  m["latency_tail_us"] = {out.report.latency.tail_us, "us", "modeled"};
  m["latency_tail_pct"] = {out.report.latency.tail_pct, "%", "count"};
  m["latency_p99_us"] = {out.report.latency.p99_us, "us", "modeled"};
  m["modeled_cpu_ns_per_kb"] = {per(d("busy"), delivered / kib), "ns/KB",
                                "modeled"};
  m.insert(out.report.extra.begin(), out.report.extra.end());
  m["sim.events_in_window"] = {out.events, "count", "count"};

  // Busiest core of a family over the window.
  auto max_util = [&](const std::string& prefix) {
    double best = 0;
    for (const auto& [k, v] : end.v) {
      if (k.rfind(prefix, 0) == 0) best = std::max(best, d(k) / 1e9 / window_s);
    }
    return best;
  };
  const double busiest = max_util("busy:");
  m["busiest_core_utilization"] = {busiest, "ratio", "modeled"};

  auto& l = out.layer;
  const auto prof = [&](const char* comp) { return d(std::string("prof:") + comp); };
  auto stage_p99 = [&](obs::nqe_stage st) {
    for (std::size_t i = 0; i < traced_stages.size(); ++i) {
      if (traced_stages[i] == st) {
        return bucket_percentile(end.stages[i], start.stages[i], 99);
      }
    }
    return 0.0;
  };
  l["sim.events_per_sim_s"] = {out.events / window_s, "1/s", "count"};
  l["sim.host_ns_per_event"] = {per(window_wall_s * 1e9, out.events), "ns",
                                "host"};
  l["sim.host_s_per_sim_s"] = {window_wall_s / window_s, "s/s", "host"};
  l["apps.host_s_per_sim_s"] = {static_cast<double>(apps_self_ns) / 1e9 / window_s,
                                "s/s", "host"};
  {
    sample_set calls;
    for (const double c : call_ns) calls.add(c);
    l["guest_lib.host_ns_per_call_p50"] = {calls.empty() ? 0 : calls.percentile(50),
                                           "ns", "host"};
    l["guest_lib.host_ns_per_call_p99"] = {calls.empty() ? 0 : calls.percentile(99),
                                           "ns", "host"};
    l["guest_lib.calls_timed"] = {static_cast<double>(calls.size()), "count",
                                  "count"};
  }
  l["guest_lib.modeled_ns_per_op"] = {per(prof("guestlib"), d("glib.ops")), "ns",
                                      "modeled"};
  l["guest_lib.send_blocked_per_kop"] = {
      per(d("glib.send_blocked"), d("glib.ops") / 1000), "1/kop", "count"};
  l["guest_lib.vm_job_dwell_p99_ns"] = {stage_p99(obs::nqe_stage::vm_job_dwell),
                                        "ns", "modeled"};
  l["guest_lib.vm_out_dwell_p99_ns"] = {stage_p99(obs::nqe_stage::vm_out_dwell),
                                        "ns", "modeled"};
  l["core_engine.nqes_per_mb"] = {per(d("ce.nqes"), delivered_mb), "1/MB", "count"};
  l["core_engine.modeled_ns_per_nqe"] = {per(prof("core_engine"), d("ce.nqes")),
                                         "ns", "modeled"};
  l["core_engine.copy_fwd_p99_ns"] = {stage_p99(obs::nqe_stage::engine_copy_fwd),
                                      "ns", "modeled"};
  l["core_engine.copy_rev_p99_ns"] = {stage_p99(obs::nqe_stage::engine_copy_rev),
                                      "ns", "modeled"};
  l["core_engine.utilization"] = {max_util("ce_core:"), "ratio", "modeled"};
  l["core_engine.nqes_deferred_per_mb"] = {per(d("ce.deferred"), delivered_mb),
                                           "1/MB", "count"};
  l["core_engine.mappings_per_s"] = {d("ce.mappings") / window_s, "1/s", "count"};
  l["core_engine.nqes_failed"] = {d("ce.failed"), "count", "count"};
  l["service_lib.modeled_ns_per_op"] = {per(prof("servicelib"), d("sl.ops")), "ns",
                                        "modeled"};
  l["service_lib.stalls_per_mb"] = {per(d("sl.stalls"), delivered_mb), "1/MB",
                                    "count"};
  l["service_lib.nsm_job_dwell_p99_ns"] = {
      stage_p99(obs::nqe_stage::nsm_job_dwell), "ns", "modeled"};
  l["service_lib.dispatch_p99_ns"] = {
      stage_p99(obs::nqe_stage::servicelib_dispatch), "ns", "modeled"};
  l["service_lib.nsm_out_dwell_p99_ns"] = {
      stage_p99(obs::nqe_stage::nsm_out_dwell), "ns", "modeled"};
  l["service_lib.nsm_core_utilization_max"] = {max_util("nsm_core:"), "ratio",
                                               "modeled"};
  l["stack.modeled_ns_per_pkt"] = {per(prof("netstack") + prof("tcp"),
                                       d("stack.packets")),
                                   "ns", "modeled"};
  l["stack.accept_p99_ns"] = {stage_p99(obs::nqe_stage::stack_accept), "ns",
                              "modeled"};
  l["stack.connections_opened_per_s"] = {d("stack.opened") / window_s, "1/s",
                                         "count"};
  l["tcp.retransmits_per_mb"] = {per(retx_window, delivered_mb), "1/MB", "count"};
  for (const char* t : {"tcp", "nkq"}) {
    const std::string k = std::string(t) + ".rpc_p99_us";
    const auto it = out.report.extra.find(k);
    l[k] = {it == out.report.extra.end() ? 0.0 : it->second.value, "us",
            "modeled"};
  }
  l["shm.pool_free_min_ratio"] = {pool_free_min, "ratio", "count"};
  l["shm.pool_failed_allocs"] = {end.v.at("pool.failed_allocs"), "count", "count"};
  l["shm.ring_depth_max"] = {ring_depth_max, "count", "count"};
  const double wire_bps = params_for(spec.name, seed, false).wire.rate.bps();
  l["phys.link_utilization"] = {d("link.bytes") * 8 / window_s / wire_bps,
                                "ratio", "modeled"};
  l["phys.queue_drops_per_mb"] = {per(d("link.drops"), delivered_mb), "1/MB",
                                  "count"};
  l["phys.ecn_marks_per_mb"] = {per(d("link.ecn"), delivered_mb), "1/MB", "count"};
  l["virt.vswitch_modeled_ns_per_pkt"] = {per(prof("vswitch"),
                                              d("vswitch.forwards")),
                                          "ns", "modeled"};
  l["obs.profiler_attribution"] = {per(d("prof.attributed"), d("prof.charged")),
                                   "ratio", "modeled"};

  // Checks that hold on every run.
  // An nqe the engine refused, or received from a retired NSM, is a
  // failure. Two kinds of engine-side discard are part of the program's
  // accounting design and do not fail a run: nqes for a flow the app has
  // already closed (unroutable teardown residue, e.g. send completions
  // after close) and pure data movement discarded at the overflow cap
  // (ev_data, req_recv_window; the chunk is recycled). The payload and
  // completion checks show whether either lost anything; both stay visible
  // in core_engine.nqes_failed.
  for (const side sd : {side::a, side::b}) {
    const core::core_engine_stats st = bed.netkernel(sd).stats();
    if (st.stale_nqes + st.rejected_nqes != 0) {
      problems.push_back("core_engine nqes: stale " +
                         std::to_string(st.stale_nqes) + ", rejected " +
                         std::to_string(st.rejected_nqes));
    }
  }
  if (take_snapshot(bed, wl).v.at("pool.failed_allocs") != 0) {
    problems.push_back("shm pool allocation failed");
  }
  for (std::size_t i = 0; i < wl.tenants().size(); ++i) {
    const auto* ch =
        bed.netkernel(wl.tenant_side(i)).channel_of(wl.tenants()[i].vm->id());
    if (ch != nullptr && ch->pool.chunks_free() != ch->pool.chunk_count()) {
      problems.push_back("shm pool chunks still held after the drain (" +
                         wl.tenants()[i].vm->name() + ")");
    }
  }
  if (spec.name == std::string_view{"dc_rpc"} && busiest > 0.5) {
    problems.push_back("rpc: a modeled core is busier than 50%");
  }
  // The tail percentile needs at least 10 samples beyond it.
  if (static_cast<double>(out.report.latency.samples) *
          (100 - out.report.latency.tail_pct) / 100 < 10) {
    problems.push_back("fewer than 10 latency samples beyond the tail percentile");
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / mib;  // ru_maxrss is KiB
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void append_metrics(std::string& out, const metric_map& m) {
  out += '{';
  bool first = true;
  for (const auto& [name, x] : m) {
    if (!first) out += ',';
    first = false;
    out += "\"" + name + "\":{\"value\":" + json_number(x.value) +
           ",\"unit\":\"" + x.unit + "\",\"kind\":\"" + x.kind + "\"}";
  }
  out += '}';
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;  // traced runs: where to write the span file
};

int usage() {
  std::fprintf(stderr,
               "usage: nk_perfbench --workload dc_bulk|dc_websearch|dc_rpc "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      opt.trace = std::string_view{v} == "1";
    } else if (k == "--spans") {
      opt.spans = v;
    } else {
      return usage();
    }
  }
  const workload_spec* spec = nullptr;
  for (const auto& s : specs) {
    if (opt.workload == s.name) spec = &s;
  }
  if (spec == nullptr || argc % 2 != 1) return usage();

  const payload_pattern pat;
  const std::uint64_t run_start = wall_ns();

  // Set-up alone, a few times, so setup_s is a median of several builds.
  std::vector<double> setup_s;
  for (int i = 0; i < 5; ++i) {
    span_log quiet;
    setup_s.push_back(build(*spec, opt.seed, false, quiet, pat).setup_s);
  }

  // One untraced rep, measuring host time until the budget is spent. A
  // traced run splits the budget between it and one traced rep.
  const auto budget_ns = static_cast<std::uint64_t>(opt.seconds * 1e9);
  span_log plain_log;
  const rep_result plain =
      run_rep(*spec, opt.seed, false, pat, plain_log,
              run_start + (opt.trace ? budget_ns / 2 : budget_ns));
  setup_s.push_back(plain.setup_s);
  std::vector<std::string> problems = plain.report.problems;
  std::optional<rep_result> traced;
  if (opt.trace) {
    span_log log;
    traced = run_rep(*spec, opt.seed, true, pat, log, run_start + budget_ns);
    setup_s.push_back(traced->setup_s);
    problems.insert(problems.end(), traced->report.problems.begin(),
                    traced->report.problems.end());
    if (!opt.spans.empty() && !log.write(opt.spans)) {
      problems.push_back("could not write the span file " + opt.spans);
    }
    // Tracing at sample_rate 1.0 must not change the modeled run.
    bool same = traced->events == plain.events;
    for (const auto& [k, v] : plain.modeled) {
      same = same && traced->modeled.count(k) == 1 &&
             traced->modeled.at(k).value == v.value;
    }
    if (!same) {
      problems.push_back("modeled metrics differ between traced and untraced reps");
    }
  }
  std::sort(problems.begin(), problems.end());
  problems.erase(std::unique(problems.begin(), problems.end()), problems.end());

  metric_map e2e = plain.modeled;
  e2e["host_s_per_sim_s"] = {plain.host_s_per_sim_s, "s/s", "host"};
  e2e["host_sim_s"] = {plain.host_sim_s, "s", "host"};
  e2e["setup_s"] = {median_of(setup_s), "s", "host"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB", "host"};
  const std::uint64_t attempted = plain.report.attempted;
  const std::uint64_t failed = plain.report.failed;
  e2e["ops_failed_ratio"] = {
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0,
      "ratio", "count"};

  metric_map layer;
  if (traced) {
    layer = traced->layer;
    layer["obs.trace_host_overhead"] = {
        traced->host_s_per_sim_s / plain.host_s_per_sim_s, "ratio", "host"};
  }

  const bool correct = problems.empty() && failed == 0;
  std::string out = "{\"workload\":\"" + opt.workload + "\",\"seed\":" +
                    std::to_string(opt.seed) + ",\"trace\":" +
                    (opt.trace ? "1" : "0") + ",\"correct\":" +
                    (correct ? "true" : "false") + ",\"attempted\":" +
                    std::to_string(attempted) + ",\"failed\":" +
                    std::to_string(failed) + ",\"latency_samples\":" +
                    std::to_string(plain.report.latency.samples) +
                    ",\"latency_of\":\"" + plain.report.latency_what +
                    "\",\"problems\":[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    out += (i ? ",\"" : "\"") + obs::json_escape(problems[i]) + "\"";
  }
  out += "],\"end_to_end\":";
  append_metrics(out, e2e);
  out += ",\"per_layer\":";
  append_metrics(out, layer);
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  return correct ? 0 : 1;
}
