#include "service/server.h"

#include <unistd.h>

#include <future>
#include <sstream>
#include <utility>

#include "common/json.h"

namespace dcrm::service {

namespace {

std::string EncodeServed(const ServedResult& r) {
  Response resp;
  resp.ok = r.ok;
  resp.error = r.error;
  resp.exit_code = r.exit_code;
  resp.cached = r.cached;
  resp.batched = r.batched;
  resp.text = r.text;
  resp.csv = r.csv;
  return EncodeResponse(resp);
}

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), ctx_(opts_.exec), sched_(ctx_) {}

Server::~Server() {
  RequestStop();
  Join();
}

void Server::Start() {
  listener_ = net::ListenUnix(opts_.socket_path);
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void Server::RequestStop() { stop_.store(true, std::memory_order_relaxed); }

void Server::Join() {
  if (joined_) return;
  joined_ = true;
  RequestStop();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Finish everything already queued before tearing connections down:
  // connection threads blocked on futures unblock as their batches
  // complete, write their responses, then see the stop flag.
  sched_.Drain();
  std::list<Connection> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conns_);
  }
  for (Connection& c : conns) c.thread.join();
  if (started_) {
    listener_.Close();
    ::unlink(opts_.socket_path.c_str());
    started_ = false;
  }
}

void Server::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    std::optional<net::UnixSocket> conn;
    try {
      conn = net::AcceptUnix(listener_, /*timeout_ms=*/100);
    } catch (const net::SocketError&) {
      break;  // listener died; the daemon drains
    }
    ReapFinished();
    if (!conn.has_value()) continue;
    std::lock_guard<std::mutex> lock(conn_mu_);
    Connection& slot = conns_.emplace_back();
    slot.thread = std::thread([this, &slot, c = std::move(*conn)]() mutable {
      HandleConnection(std::move(c));
      slot.done.store(true, std::memory_order_release);
    });
  }
}

void Server::ReapFinished() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::HandleConnection(net::UnixSocket conn) {
  connections_.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    std::optional<std::string> frame;
    try {
      frame = net::ReadFrame(conn.fd(), kMaxRequestBytes, &stop_);
    } catch (const net::FrameTooLarge& e) {
      // Answer, drain the unconsumed payload so the close is a clean
      // EOF instead of a reset, then drop the connection — the stream
      // cannot be resynchronized past the rejected frame.
      Response resp;
      resp.error = e.what();
      try {
        net::WriteFrame(conn.fd(), EncodeResponse(resp));
        net::DiscardBytes(conn.fd(), e.announced(), &stop_);
      } catch (const net::SocketError&) {
      }
      break;
    } catch (const net::SocketError&) {
      break;  // peer vanished mid-frame
    }
    if (!frame.has_value()) break;  // clean close or drain
    std::string encoded;
    try {
      encoded = DispatchFrame(*frame);
    } catch (const std::exception& e) {
      Response resp;
      resp.error = e.what();
      encoded = EncodeResponse(resp);
    }
    try {
      net::WriteFrame(conn.fd(), encoded);
    } catch (const net::SocketError&) {
      break;
    }
  }
}

std::string Server::DispatchFrame(const std::string& frame) {
  Response resp;
  RequestSpec req;
  try {
    req = DecodeRequest(frame);
  } catch (const ProtoError& e) {
    resp.error = e.what();
    return EncodeResponse(resp);
  }

  if (req.type == RequestType::kStats) {
    const CacheStats cs = ctx_.cache().stats();
    const BatchStats bs = ctx_.batch_stats();
    const SchedulerStats ss = sched_.stats();
    json::Value o = json::Value::MakeObject();
    o.Set("cache_hits", static_cast<std::int64_t>(cs.hits));
    o.Set("cache_misses", static_cast<std::int64_t>(cs.misses));
    o.Set("cache_insertions", static_cast<std::int64_t>(cs.insertions));
    o.Set("cache_evictions", static_cast<std::int64_t>(cs.evictions));
    o.Set("cache_entries", static_cast<std::int64_t>(cs.entries));
    o.Set("cache_bytes", static_cast<std::int64_t>(cs.bytes));
    o.Set("cache_budget", static_cast<std::int64_t>(cs.budget));
    o.Set("batch_groups", static_cast<std::int64_t>(bs.groups));
    o.Set("batch_grouped_requests",
          static_cast<std::int64_t>(bs.grouped_requests));
    o.Set("batch_trials_saved", static_cast<std::int64_t>(bs.trials_saved));
    o.Set("requests_submitted", static_cast<std::int64_t>(ss.submitted));
    o.Set("requests_executed", static_cast<std::int64_t>(ss.executed));
    o.Set("connections", static_cast<std::int64_t>(
                             connections_.load(std::memory_order_relaxed)));
    std::ostringstream text;
    text << "cache: " << cs.hits << " hits / " << cs.misses << " misses ("
         << cs.entries << " entries, " << cs.bytes << "/" << cs.budget
         << " bytes, " << cs.evictions << " evictions)\nbatching: "
         << bs.groups << " merged groups, " << bs.grouped_requests
         << " requests, " << bs.trials_saved << " trials saved\n";
    resp.ok = true;
    resp.exit_code = 0;
    resp.text = text.str();
    resp.extra = o.Dump();
    return EncodeResponse(resp);
  }

  if (req.type == RequestType::kShutdown) {
    resp.ok = true;
    resp.exit_code = 0;
    resp.text = "draining\n";
    const std::string encoded = EncodeResponse(resp);
    RequestStop();
    return encoded;
  }

  // Fast path: repeat requests are answered on this connection thread
  // straight from the cache, never queueing behind running campaigns.
  if (auto hit = ctx_.TryCached(req)) return EncodeServed(*hit);

  std::future<ServedResult> fut;
  try {
    fut = sched_.Submit(std::move(req));
  } catch (const std::exception& e) {
    resp.error = e.what();  // "service is draining"
    return EncodeResponse(resp);
  }
  return EncodeServed(fut.get());
}

}  // namespace dcrm::service
