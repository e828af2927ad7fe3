// The `dcrm serve` daemon (DESIGN.md §14): a Unix-domain-socket server
// accepting framed JSON requests from many concurrent clients.
//
// Thread model: one accept thread (poll + stop flag), one thread per
// live connection, one executor thread inside the RequestScheduler.
// The accept thread joins connection threads that have finished, so a
// long-running daemon holds threads (and their stacks) only for the
// connections that are still open.
// Connection threads handle the cache fast path themselves
// (ExecContext::TryCached — repeat requests never queue behind running
// campaigns); misses go through Submit and block on the future.
//
// Shutdown (RequestStop from a signal handler's poll loop, or a
// `shutdown` request) is a drain, not an abort: the accept thread
// stops, the scheduler finishes every queued request, in-flight
// responses are written, then the listener closes and the socket file
// is unlinked. Requests that arrive during the drain get an ok=false
// "service is draining" response rather than a hang.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/socket.h"
#include "service/handlers.h"
#include "service/proto.h"
#include "service/scheduler.h"

namespace dcrm::service {

struct ServerOptions {
  std::string socket_path;
  ExecOptions exec;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the socket and launches the accept thread. Throws
  // net::SocketError on bind failure (`dcrm serve` maps it to exit
  // 10).
  void Start();

  // Signals the drain; safe from any thread. Join() (or the
  // destructor) completes it.
  void RequestStop();
  bool stop_requested() const {
    return stop_.load(std::memory_order_relaxed);
  }

  // Drains and tears down: joins the accept thread, finishes queued
  // requests, joins connection threads, closes and unlinks the socket.
  // Idempotent.
  void Join();

  const std::string& socket_path() const { return opts_.socket_path; }
  ExecContext& context() { return ctx_; }

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};  // set as the thread's last act
  };

  void AcceptLoop();
  void ReapFinished();
  void HandleConnection(net::UnixSocket conn);
  std::string DispatchFrame(const std::string& frame);

  ServerOptions opts_;
  ExecContext ctx_;
  RequestScheduler sched_;
  net::UnixSocket listener_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> connections_{0};
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::list<Connection> conns_;  // list: nodes stay put for their threads
  bool started_ = false;
  bool joined_ = false;
};

}  // namespace dcrm::service
