#include "apps/workloads.hpp"

namespace nk::apps {

namespace {
constexpr std::size_t recv_quantum = 256 * 1024;
}

// --- bulk_sink ------------------------------------------------------------------------

bulk_sink::bulk_sink(socket_api& api, std::uint16_t port, bool validate)
    : api_{api}, port_{port}, validate_{validate} {}

void bulk_sink::start() {
  listener_ = api_.open().value();
  (void)api_.bind(listener_, port_);
  (void)api_.listen(listener_);
  api_.on_event(listener_, [this](app_socket, app_event type, errc) {
    if (type != app_event::accept_ready) return;
    while (true) {
      auto r = api_.accept(listener_);
      if (!r) break;
      const app_socket s = r.value();
      index_[s] = flows_.size();
      flows_.push_back(flow{s, 0});
      api_.on_event(s, [this](app_socket sock, app_event t, errc) {
        if (t == app_event::readable) drain(sock);
      });
      drain(s);  // data may already be queued
    }
  });
}

void bulk_sink::resume() {
  paused_ = false;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (flows_[i].sock != 0) drain(flows_[i].sock);
  }
}

void bulk_sink::drain(app_socket s) {
  if (paused_) return;
  auto it = index_.find(s);
  if (it == index_.end()) return;
  flow& f = flows_[it->second];
  while (true) {
    auto r = api_.recv(s, recv_quantum);
    if (!r) {
      if (r.error() == errc::closed && s == f.sock) {
        ++finished_;
        f.sock = 0;  // only count the EOF once
      }
      return;
    }
    const buffer& data = r.value();
    if (validate_ && !data.matches_pattern(f.bytes)) pattern_ok_ = false;
    f.bytes += data.size();
    total_bytes_ += data.size();
  }
}

std::uint64_t bulk_sink::flow_bytes(std::size_t i) const {
  return i < flows_.size() ? flows_[i].bytes : 0;
}

// --- bulk_sender -----------------------------------------------------------------------

bulk_sender::bulk_sender(socket_api& api, net::socket_addr dest,
                         const bulk_sender_config& cfg)
    : api_{api}, dest_{dest}, cfg_{cfg} {}

void bulk_sender::start() {
  flows_.resize(static_cast<std::size_t>(cfg_.flows));
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    flow& f = flows_[i];
    f.sock = api_.open().value();
    if (cfg_.cc) (void)api_.set_congestion_control(f.sock, *cfg_.cc);
    index_[f.sock] = i;
    api_.on_event(f.sock, [this, i](app_socket, app_event type, errc) {
      if (type == app_event::connected) {
        flows_[i].connected = true;
        pump(i);
      } else if (type == app_event::writable) {
        pump(i);
      }
    });
    (void)api_.connect(f.sock, dest_);
  }
}

void bulk_sender::pump(std::size_t idx) {
  flow& f = flows_[idx];
  if (!f.connected || f.closed) return;
  while (true) {
    std::size_t want = cfg_.write_size;
    if (cfg_.bytes_per_flow > 0) {
      if (f.sent >= cfg_.bytes_per_flow) break;
      want = static_cast<std::size_t>(
          std::min<std::uint64_t>(want, cfg_.bytes_per_flow - f.sent));
    }
    buffer chunk = cfg_.patterned ? buffer::pattern(want, f.sent)
                                  : buffer::zeroed(want);
    auto r = api_.send(f.sock, std::move(chunk));
    if (!r) break;  // would_block: resume on writable
    f.sent += r.value();
    bytes_sent_ += r.value();
    if (r.value() < want) break;
  }
  if (cfg_.bytes_per_flow > 0 && f.sent >= cfg_.bytes_per_flow && !f.closed) {
    f.closed = true;
    ++done_;
    (void)api_.close(f.sock);
  }
}

// --- echo_server ------------------------------------------------------------------------

echo_server::echo_server(socket_api& api, std::uint16_t port)
    : api_{api}, port_{port} {}

void echo_server::start() {
  listener_ = api_.open().value();
  (void)api_.bind(listener_, port_);
  (void)api_.listen(listener_);
  api_.on_event(listener_, [this](app_socket, app_event type, errc) {
    if (type != app_event::accept_ready) return;
    while (true) {
      auto r = api_.accept(listener_);
      if (!r) break;
      const app_socket s = r.value();
      api_.on_event(s, [this](app_socket sock, app_event t, errc) {
        if (t == app_event::readable) pump(sock);
      });
      pump(s);
    }
  });
}

void echo_server::pump(app_socket s) {
  while (true) {
    auto r = api_.recv(s, recv_quantum);
    if (!r) {
      if (r.error() == errc::closed) (void)api_.close(s);
      return;
    }
    echoed_ += r.value().size();
    (void)api_.send(s, std::move(r).value());
  }
}

// --- rpc_client --------------------------------------------------------------------------

rpc_client::rpc_client(socket_api& api, sim::simulator& s,
                       net::socket_addr dest, const rpc_client_config& cfg)
    : api_{api}, sim_{s}, dest_{dest}, cfg_{cfg} {}

void rpc_client::start() {
  sock_ = api_.open().value();
  api_.on_event(sock_, [this](app_socket, app_event type, errc) {
    if (type == app_event::connected) {
      send_request();
    } else if (type == app_event::readable) {
      on_readable();
    }
  });
  (void)api_.connect(sock_, dest_);
}

void rpc_client::send_request() {
  if (finished()) return;
  sent_at_ = sim_.now();
  received_ = 0;
  (void)api_.send(sock_, buffer::pattern(cfg_.request_size));
}

void rpc_client::on_readable() {
  while (true) {
    auto r = api_.recv(sock_, cfg_.request_size);
    if (!r) return;
    received_ += r.value().size();
    if (received_ >= cfg_.request_size) {
      latency_us_.add(static_cast<double>((sim_.now() - sent_at_).count()) /
                      1000.0);
      ++completed_;
      if (finished()) {
        (void)api_.close(sock_);
        return;
      }
      if (cfg_.think_time > sim_time::zero()) {
        sim_.schedule(cfg_.think_time, [this] { send_request(); });
        return;
      }
      send_request();
    }
  }
}

// --- incast -------------------------------------------------------------------------------

incast_aggregator::incast_aggregator(socket_api& api, sim::simulator& s,
                                     net::socket_addr worker_service,
                                     const incast_config& cfg)
    : api_{api}, sim_{s}, workers_{worker_service}, cfg_{cfg} {}

void incast_aggregator::start() {
  conns_.resize(static_cast<std::size_t>(cfg_.fanout));
  received_.assign(static_cast<std::size_t>(cfg_.fanout), 0);
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    conns_[i] = api_.open().value();
    api_.on_event(conns_[i], [this, i](app_socket, app_event type, errc) {
      if (type == app_event::connected) {
        if (++connected_count_ == cfg_.fanout) {
          connected_all_ = true;
          launch_query();
        }
      } else if (type == app_event::readable) {
        on_worker_data(i);
      }
    });
    (void)api_.connect(conns_[i], workers_);
  }
}

void incast_aggregator::launch_query() {
  if (finished()) return;
  query_start_ = sim_.now();
  responses_done_ = 0;
  std::fill(received_.begin(), received_.end(), 0);
  // One-byte query to every worker — the synchronized fan-out.
  for (const app_socket conn : conns_) {
    (void)api_.send(conn, buffer::pattern(1, 0));
  }
}

void incast_aggregator::on_worker_data(std::size_t idx) {
  while (true) {
    auto r = api_.recv(conns_[idx], 1 << 20);
    if (!r) return;
    const std::uint64_t before = received_[idx];
    received_[idx] += r.value().size();
    if (before < cfg_.response_size &&
        received_[idx] >= cfg_.response_size) {
      if (++responses_done_ == cfg_.fanout) {
        query_us_.add(
            static_cast<double>((sim_.now() - query_start_).count()) /
            1000.0);
        ++completed_;
        if (!finished()) {
          sim_.schedule(cfg_.think_time, [this] { launch_query(); });
        }
      }
    }
  }
}

incast_worker_service::incast_worker_service(socket_api& api,
                                             std::uint16_t port,
                                             std::size_t response_size)
    : api_{api}, port_{port}, response_size_{response_size} {}

void incast_worker_service::start() {
  listener_ = api_.open().value();
  (void)api_.bind(listener_, port_);
  (void)api_.listen(listener_, 1024);
  api_.on_event(listener_, [this](app_socket, app_event type, errc) {
    if (type != app_event::accept_ready) return;
    while (true) {
      auto r = api_.accept(listener_);
      if (!r) break;
      const app_socket conn = r.value();
      api_.on_event(conn, [this](app_socket s, app_event t, errc) {
        if (t != app_event::readable) return;
        while (true) {
          auto q = api_.recv(s, 4096);
          if (!q) return;
          // Each query byte triggers one full response.
          for (std::size_t b = 0; b < q.value().size(); ++b) {
            ++served_;
            (void)api_.send(s, buffer::zeroed(response_size_));
          }
        }
      });
    }
  });
}

// --- churn_client ------------------------------------------------------------------------

churn_client::churn_client(socket_api& api, sim::simulator& s,
                           net::socket_addr dest, const churn_config& cfg)
    : api_{api}, sim_{s}, dest_{dest}, cfg_{cfg} {}

void churn_client::start() { open_next(); }

void churn_client::open_next() {
  if (finished()) return;
  started_at_ = sim_.now();
  received_ = 0;
  sock_ = api_.open().value();
  api_.on_event(sock_, [this](app_socket s, app_event type, errc) {
    if (type == app_event::connected) {
      (void)api_.send(s, buffer::pattern(cfg_.message_size));
    } else if (type == app_event::readable) {
      while (true) {
        auto r = api_.recv(s, cfg_.message_size);
        if (!r) return;
        received_ += r.value().size();
        if (received_ >= cfg_.message_size) {
          completion_us_.add(
              static_cast<double>((sim_.now() - started_at_).count()) /
              1000.0);
          ++completed_;
          (void)api_.close(s);
          open_next();
          return;
        }
      }
    }
  });
  (void)api_.connect(sock_, dest_);
}

}  // namespace nk::apps
