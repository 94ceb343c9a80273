#include "net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/session.h"

namespace otfair::net {

using common::Result;
using common::Status;

namespace {

/// epoll tags of a worker's listener and wake eventfd; connection ids
/// start above them.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;

}  // namespace

struct Server::Conn {
  Conn(const serve::SessionEnv* env, uint64_t id, int fd) : fd(fd), session(env, id) {}

  int fd;
  serve::Session session;
  bool closed = false;
  bool dirty = false;
};

struct Server::Worker {
  Socket listen;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::unique_ptr<serve::Batcher> batcher;
  serve::SessionEnv env;
  /// Open connections by id. Ids are never reused (fds are), so a response
  /// for a closed connection finds nothing here rather than a newcomer.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
  uint64_t next_conn_id = kWakeTag + 1;
  /// Connections (by id) with output appended this epoll cycle.
  std::vector<uint64_t> dirty;
  /// Closed connections survive here until the end of the cycle so stack
  /// frames holding the pointer stay valid.
  std::vector<std::unique_ptr<Conn>> graveyard;
  std::thread thread;

  ~Worker() {
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake_fd >= 0) ::close(wake_fd);
  }
};

Server::Server(serve::RepairService* service, const ServerOptions& options, ServerHooks hooks)
    : service_(service), options_(options), hooks_(std::move(hooks)) {}

Server::~Server() { Shutdown(); }

Result<std::unique_ptr<Server>> Server::Create(serve::RepairService* service,
                                               const ServerOptions& options,
                                               ServerHooks hooks) {
  if (service == nullptr) return Status::InvalidArgument("null service");
  if (options.net_threads < 1)
    return Status::InvalidArgument("net_threads must be >= 1 (got " +
                                   std::to_string(options.net_threads) + ")");
  if (options.max_connections < 1)
    return Status::InvalidArgument("max_connections must be >= 1");
  std::unique_ptr<Server> server(new Server(service, options, std::move(hooks)));

  // One Server per service lifetime: the registry rejects duplicate names.
  obs::Registry& registry = service->metrics().registry();
  struct Spec {
    const char* name;
    const char* help;
    obs::Counter** slot;
  };
  const Spec specs[] = {
      {"otfair_net_connections_accepted_total", "TCP connections accepted",
       &server->connections_accepted_},
      {"otfair_net_connections_closed_total", "TCP connections closed",
       &server->connections_closed_},
      {"otfair_net_connections_rejected_total",
       "TCP connections refused at the max_connections cap",
       &server->connections_rejected_},
      {"otfair_net_bytes_read_total", "Bytes read from TCP clients",
       &server->bytes_read_},
      {"otfair_net_bytes_written_total", "Bytes written to TCP clients",
       &server->bytes_written_},
      {"otfair_net_backpressure_total",
       "Repair submits rejected with UNAVAILABLE (explicit backpressure error lines)",
       &server->backpressure_},
      {"otfair_net_protocol_errors_total",
       "Request lines rejected by the protocol parser", &server->protocol_errors_},
      {"otfair_net_oversize_closed_total",
       "Connections closed for exceeding the request line cap or garbage input",
       &server->oversize_closed_},
      {"otfair_net_orphan_responses_total",
       "Repaired rows whose connection closed before delivery",
       &server->orphan_responses_},
  };
  for (const Spec& spec : specs) {
    auto added = registry.AddCounter(spec.name, spec.help);
    if (!added.ok()) return added.status();
    *spec.slot = *added;
  }
  auto gauge = registry.AddGauge("otfair_net_active_connections",
                                 "Currently open TCP client connections");
  if (!gauge.ok()) return gauge.status();
  server->active_gauge_ = *gauge;

  if (Status status = server->Start(); !status.ok()) {
    server->Shutdown();
    return status;
  }
  return server;
}

Status Server::Start() {
  uint16_t port = options_.port;
  for (int i = 0; i < options_.net_threads; ++i) {
    auto worker = std::make_unique<Worker>();
    // The first bind resolves an ephemeral port; the rest share it via
    // SO_REUSEPORT, so the kernel distributes accepts across workers.
    uint16_t bound = 0;
    auto listener = ListenTcp(options_.host, port, options_.backlog, &bound);
    if (!listener.ok()) return listener.status();
    worker->listen = std::move(*listener);
    if (i == 0) {
      port = bound;
      port_ = bound;
    }
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (worker->epoll_fd < 0)
      return Status::Internal(std::string("epoll_create1: ") + std::strerror(errno));
    worker->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (worker->wake_fd < 0)
      return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;  // level-triggered: re-notified while accepts pend
    ev.data.u64 = kListenTag;
    if (::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->listen.fd(), &ev) < 0)
      return Status::Internal(std::string("epoll_ctl(listen): ") + std::strerror(errno));
    ev.data.u64 = kWakeTag;
    if (::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->wake_fd, &ev) < 0)
      return Status::Internal(std::string("epoll_ctl(wake): ") + std::strerror(errno));

    Worker* w = worker.get();
    worker->batcher = std::make_unique<serve::Batcher>(
        service_, options_.batcher, [this, w](const serve::RowResponse& response) {
          // Runs on the worker thread only (the batcher's owner), so
          // touching connection state here is race-free.
          auto it = w->conns.find(response.stream_id);
          if (it == w->conns.end()) {
            orphan_responses_->Add(1);
            return;
          }
          it->second->session.Deliver(response);
          OutputQueued(*w, it->second.get());
        });
    worker->env.service = service_;
    worker->env.batcher = worker->batcher.get();
    worker->env.checkpoint = hooks_.checkpoint;
    worker->env.protocol_errors = protocol_errors_;
    worker->env.oversize_closed = oversize_closed_;
    worker->env.backpressure = backpressure_;
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_)
    worker->thread = std::thread([this, w = worker.get()] { WorkerLoop(*w); });
  return Status::Ok();
}

void Server::Shutdown() {
  stop_.store(true, std::memory_order_release);
  if (joined_.exchange(true)) return;
  for (auto& worker : workers_) {
    if (worker->wake_fd >= 0) {
      const uint64_t one = 1;
      [[maybe_unused]] ssize_t rc = ::write(worker->wake_fd, &one, sizeof(one));
    }
  }
  for (auto& worker : workers_)
    if (worker->thread.joinable()) worker->thread.join();
}

size_t Server::queue_depth() const {
  size_t depth = 0;
  for (const auto& worker : workers_) depth += worker->batcher->queue_depth();
  return depth;
}

void Server::WorkerLoop(Worker& w) {
  std::vector<epoll_event> events(256);
  while (!stop_.load(std::memory_order_acquire)) {
    // No timeout: every cycle ends with an empty batcher, and Shutdown
    // wakes the worker through the eventfd.
    const int n = ::epoll_wait(w.epoll_fd, events.data(), static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      const uint64_t tag = ev.data.u64;
      if (tag == kListenTag) {
        AcceptBurst(w);
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t junk;
        while (::read(w.wake_fd, &junk, sizeof(junk)) > 0) {
        }
        continue;
      }
      auto it = w.conns.find(tag);
      if (it == w.conns.end()) continue;
      Conn* c = it->second.get();
      if (ev.events & EPOLLIN) HandleReadable(w, c);
      if (!c->closed && (ev.events & EPOLLOUT)) FlushConn(w, c);
      if (!c->closed && (ev.events & (EPOLLERR | EPOLLHUP))) CloseConn(w, c);
    }
    // Partial batches are flushed by their owner, once per cycle: latency
    // is bounded by one epoll cycle while rows still coalesce across every
    // connection that was readable.
    w.batcher->Flush();
    FlushDirty(w);
    w.graveyard.clear();
  }
  DrainWorker(w);
}

void Server::AcceptBurst(Worker& w) {
  OTFAIR_TRACE_SPAN("net_accept");
  while (true) {
    const int fd = ::accept4(w.listen.fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // EAGAIN, or a transient accept failure — next event retries
    }
    if (active_connections_.fetch_add(1, std::memory_order_relaxed) >=
        options_.max_connections) {
      active_connections_.fetch_sub(1, std::memory_order_relaxed);
      connections_rejected_->Add(1);
      const std::string line =
          serve::FormatErrorLine(Status::Unavailable("connection limit reached")) + "\n";
      size_t sent = 0;
      bool would_block = false;
      WriteSome(fd, line.data(), line.size(), &sent, &would_block);
      ::close(fd);
      continue;
    }
    SetNoDelay(fd);  // best effort; latency benefits only
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
    const uint64_t id = w.next_conn_id++;
    ev.data.u64 = id;
    if (::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      active_connections_.fetch_sub(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    w.conns.emplace(id, std::make_unique<Conn>(&w.env, id, fd));
    connections_accepted_->Add(1);
    active_gauge_->Set(static_cast<double>(active_connections_.load(std::memory_order_relaxed)));
  }
}

void Server::HandleReadable(Worker& w, Conn* c) {
  OTFAIR_TRACE_SPAN("net_read");
  char buf[16384];
  // Edge-triggered: read until EAGAIN. Lines are handled chunk by chunk
  // so a flood never accumulates more than one read's worth past the
  // request-line cap.
  while (!c->closed && !c->session.closed()) {
    size_t n = 0;
    bool would_block = false;
    if (Status status = ReadSome(c->fd, buf, sizeof(buf), &n, &would_block); !status.ok()) {
      CloseConn(w, c);
      return;
    }
    if (would_block) break;
    if (n == 0) {
      // Half-close: the client is done sending but may still be reading.
      // The session delivers every response it is owed, then we FIN back.
      c->session.EndOfInput();
    } else {
      bytes_read_->Add(n);
      c->session.Feed(buf, n);
    }
    OutputQueued(w, c);
  }
}

void Server::OutputQueued(Worker& w, Conn* c) {
  if (c->closed) return;
  if (!c->dirty) {
    c->dirty = true;
    w.dirty.push_back(c->session.stream_id());
  }
  // Opportunistic flush keeps memory flat during huge pipelined bursts.
  if (c->session.pending_output_size() >= 256 * 1024) FlushConn(w, c);
  if (!c->closed && c->session.pending_output_size() > options_.max_write_buffer_bytes)
    CloseConn(w, c);  // reader too slow to ever catch up
}

void Server::FlushConn(Worker& w, Conn* c) {
  if (c->closed) return;
  OTFAIR_TRACE_SPAN("net_flush");
  serve::Session& session = c->session;
  while (session.pending_output_size() > 0) {
    size_t n = 0;
    bool would_block = false;
    if (Status status = WriteSome(c->fd, session.pending_output(),
                                  session.pending_output_size(), &n, &would_block);
        !status.ok()) {
      CloseConn(w, c);
      return;
    }
    if (would_block) break;  // EPOLLOUT edge resumes the flush
    session.ConsumeOutput(n);
    bytes_written_->Add(n);
  }
  if (session.pending_output_size() == 0 && session.closed()) CloseConn(w, c);
}

void Server::FlushDirty(Worker& w) {
  for (size_t i = 0; i < w.dirty.size(); ++i) {
    auto it = w.conns.find(w.dirty[i]);
    if (it == w.conns.end()) continue;
    Conn* c = it->second.get();
    c->dirty = false;
    FlushConn(w, c);
  }
  w.dirty.clear();
}

void Server::CloseConn(Worker& w, Conn* c) {
  if (c->closed) return;
  c->closed = true;
  ::epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
  ::close(c->fd);
  connections_closed_->Add(1);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  active_gauge_->Set(static_cast<double>(active_connections_.load(std::memory_order_relaxed)));
  // Defer destruction to the end of the cycle: callers up the stack may
  // still hold the pointer.
  auto it = w.conns.find(c->session.stream_id());
  if (it != w.conns.end()) {
    w.graveyard.push_back(std::move(it->second));
    w.conns.erase(it);
  }
}

void Server::DrainWorker(Worker& w) {
  // Stop accepting first; in-flight work still completes.
  if (w.listen.valid()) {
    ::epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, w.listen.fd(), nullptr);
    w.listen.Close();
  }
  // Every accepted row gets repaired and its response buffered.
  w.batcher->Close();
  // Bounded wait for clients to absorb the final responses.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
  auto conn_ids = [&w] {
    std::vector<uint64_t> ids;
    ids.reserve(w.conns.size());
    for (const auto& entry : w.conns) ids.push_back(entry.first);
    return ids;
  };
  while (std::chrono::steady_clock::now() < deadline) {
    bool pending = false;
    for (const uint64_t id : conn_ids()) {
      auto it = w.conns.find(id);
      if (it == w.conns.end()) continue;
      Conn* c = it->second.get();
      FlushConn(w, c);
      if (!c->closed && c->session.pending_output_size() > 0) pending = true;
    }
    if (!pending) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (const uint64_t id : conn_ids()) {
    auto it = w.conns.find(id);
    if (it != w.conns.end()) CloseConn(w, it->second.get());
  }
  w.graveyard.clear();
}

}  // namespace otfair::net
