// serve_tcp phase: the networked serving tier in an open loop. An
// in-process net::Server (2 epoll workers, a RepairService with one repair
// lane, no checkpointer) is driven by the benchmark's own single-threaded
// client over 2 connections, one session each (the session-affinity
// contract). Rows are sent on a fixed schedule at the reference rate;
// request bytes are generated before each step, and latency is measured
// from each row's due time, so a stalled server shows as queueing instead
// of slowing the sender (which a closed loop such as RunLoadgen would do).
// The codec, the batcher, the service and the network do the work here, on
// small batches.
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "common/parallel.h"
#include "core/repairer.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/batcher.h"
#include "serve/protocol.h"
#include "serve/repair_service.h"
#include "workloads.h"

namespace perfbench {

namespace {

using otfair::serve::RepairService;

constexpr int kNetThreads = 2;
constexpr size_t kConnections = 2;
/// The reference rate, each worker about a fifth busy: at 60,000 rows/s
/// (two fifths) a minute of heavy host preemption on the shared reference
/// box pushed the workers into queueing and the median latency from
/// 78 us to 455 us, while compute-bound figures moved by a fifth.
constexpr double kReferenceRate = 30'000.0;
/// Share of --seconds spent sending rows, split over the rounds' steps.
constexpr double kServeShare = 0.15;
/// Each connection's rows are due in bursts of this many, alternating
/// between the connections: a client that pipelines a few rows per write.
/// One row per wakeup would spend most of the server's time in wakeups
/// and syscalls (about 20 us per row on the reference box, against about
/// 14 us in bursts of 4).
constexpr size_t kBurstRows = 4;
/// Validity of the load generator: rows must leave on time at the median
/// and the client thread must not saturate.
constexpr double kMaxLagP50Us = 100.0;
constexpr double kMaxClientUtilization = 0.9;
/// Request lines of the traced step replayed through the layer calls:
/// enough for stable per-row figures, few enough that the program's own
/// per-chunk spans keep the Perfetto trace small.
constexpr size_t kReplayRows = 12'000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

struct Stack {
  otfair::core::RepairPlanSet plans;
  std::unique_ptr<RepairService> service;
  std::unique_ptr<otfair::net::Server> server;
  std::array<otfair::net::Socket, kConnections> conns;
};

/// Peer port of a connected IPv4 socket, or 0.
uint16_t PeerPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

uint16_t LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

/// Which epoll instance of this process watches the server-side end of
/// each client connection (-1 while not yet accepted). The server is
/// in-process, so its accepted sockets and each worker's epoll set are
/// visible in /proc/self/fdinfo.
std::array<int, kConnections> ServingEpolls(const Stack& stack) {
  std::array<int, kConnections> owner;
  owner.fill(-1);
  std::array<uint16_t, kConnections> ports{};
  for (size_t c = 0; c < kConnections; ++c) ports[c] = LocalPort(stack.conns[c].fd());
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return owner;
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    char target[64] = {0};
    const std::string link = "/proc/self/fd/" + name;
    if (::readlink(link.c_str(), target, sizeof(target) - 1) < 0) continue;
    if (std::strcmp(target, "anon_inode:[eventpoll]") != 0) continue;
    std::ifstream info("/proc/self/fdinfo/" + name);
    std::string line;
    while (std::getline(info, line)) {
      if (line.rfind("tfd:", 0) != 0) continue;
      std::istringstream fields(line.substr(4));
      int tfd = -1;
      fields >> tfd;
      const uint16_t peer = PeerPort(tfd);
      for (size_t c = 0; c < kConnections; ++c)
        if (peer != 0 && peer == ports[c]) owner[c] = std::stoi(name);
    }
  }
  ::closedir(dir);
  return owner;
}

otfair::net::Socket Connect(uint16_t port) {
  auto sock = otfair::net::ConnectTcp("127.0.0.1", port);
  if (!sock.ok()) Die("connect: " + sock.status().ToString());
  if (!otfair::net::SetNoDelay(sock->fd()).ok() || !otfair::net::SetNonBlocking(sock->fd()).ok())
    Die("client socket options");
  return std::move(*sock);
}

/// Design, service, server and both client connections. The kernel
/// spreads accepts over the workers' SO_REUSEPORT listeners by a hash of
/// the client port; the second connection is re-dialled until the two
/// land on different workers, so every run uses the same two-worker
/// layout instead of sometimes sharing one worker.
Stack StartStack(const data::Dataset& research) {
  Stack stack;
  stack.plans = DesignPlans(research, 1);
  auto service = RepairService::Create(stack.plans, [] {
    otfair::serve::ServiceOptions options;
    options.threads = 1;
    return options;
  }());
  if (!service.ok()) Die("service: " + service.status().ToString());
  stack.service = std::move(*service);
  otfair::net::ServerOptions options;
  options.net_threads = kNetThreads;
  // Deep enough that the open loop never meets admission backpressure:
  // overload shows as latency, not as rejected rows.
  options.batcher.max_queue_depth = 65536;
  auto server = otfair::net::Server::Create(stack.service.get(), options);
  if (!server.ok()) Die("server: " + server.status().ToString());
  stack.server = std::move(*server);
  const uint16_t port = stack.server->port();
  for (auto& conn : stack.conns) conn = Connect(port);
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::array<int, kConnections> owner = ServingEpolls(stack);
    for (int wait = 0; wait < 200 && (owner[0] < 0 || owner[1] < 0); ++wait) {
      ::usleep(500);
      owner = ServingEpolls(stack);
    }
    if (owner[0] < 0 || owner[1] < 0) Die("server never accepted the client connections");
    if (owner[0] != owner[1]) return stack;
    stack.conns[1] = Connect(port);
  }
  Die("could not spread the two connections over both workers");
}

/// Per-connection state of one step. Every step opens a fresh session
/// per connection, starting at row 0, so its expected output is one
/// RepairDataset call over the step's own rows.
struct ConnStep {
  uint64_t session = 0;
  data::Dataset rows;
  otfair::common::Matrix expected;
  std::string out;               // request bytes, generated before the step
  std::vector<size_t> line_end;  // offset just past each row's line
  std::vector<int64_t> due_ns;
  std::vector<int64_t> sent_ns;
  std::vector<int64_t> recv_ns;
  size_t written = 0;
  size_t rows_sent = 0;
  bool blocked = false;
  size_t answered = 0;
  size_t errors = 0;
  std::string in;  // every response byte of the step
  size_t line_start = 0;
};

struct StepResult {
  double rows = 0.0;
  std::vector<double> latency_us;
  /// Median latency of each step folded into this result.
  std::vector<double> step_p50_us;
  std::vector<double> lag_us;
  double wall_seconds = 0.0;
  double server_cpu_seconds = 0.0;
  double client_cpu_seconds = 0.0;
  uint64_t bytes_out = 0;
  uint64_t bytes_in = 0;
  /// The first kReplayRows request lines, kept for the traced replay.
  std::vector<std::string> request_lines;

  double server_cpu_ns_per_row() const { return server_cpu_seconds * 1e9 / rows; }
  double client_cpu_ns_per_row() const { return client_cpu_seconds * 1e9 / rows; }
  /// Folds a later step of the same phase into this one.
  void Merge(const StepResult& other) {
    rows += other.rows;
    latency_us.insert(latency_us.end(), other.latency_us.begin(), other.latency_us.end());
    step_p50_us.push_back(Median(other.latency_us));
    lag_us.insert(lag_us.end(), other.lag_us.begin(), other.lag_us.end());
    wall_seconds += other.wall_seconds;
    server_cpu_seconds += other.server_cpu_seconds;
    client_cpu_seconds += other.client_cpu_seconds;
    bytes_out += other.bytes_out;
    bytes_in += other.bytes_in;
  }
};

void AppendNumber(std::string* out, double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out->push_back(' ');
  out->append(buf, result.ptr);
}

/// Generates one connection's rows, their offline repair, and the request
/// bytes (shortest round-trip spelling, so the server parses back exactly
/// the doubles the offline repair saw).
void PrepareConn(const Stack& stack, uint64_t session, size_t rows, size_t s_levels,
                 uint64_t seed, ConnStep* c) {
  c->session = session;
  c->rows = Simulate(rows, kDim, s_levels, seed);
  otfair::core::RepairOptions options;
  options.seed = stack.service->SessionSeed(session);
  options.threads = 1;
  auto repairer = otfair::core::OffSampleRepairer::Create(stack.plans, options);
  if (!repairer.ok()) Die("offline repairer: " + repairer.status().ToString());
  auto expected = repairer->RepairDataset(c->rows);
  if (!expected.ok()) Die("offline repair: " + expected.status().ToString());
  c->expected = expected->features();
  c->line_end.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    c->out += "repair " + std::to_string(session) + " " + std::to_string(r) + " " +
              std::to_string(c->rows.u(r)) + " " + std::to_string(c->rows.s(r));
    for (size_t k = 0; k < kDim; ++k) AppendNumber(&c->out, c->rows.feature(r, k));
    c->out.push_back('\n');
    c->line_end[r] = c->out.size();
  }
  c->sent_ns.assign(rows, -1);
  c->recv_ns.assign(rows, -1);
  c->in.reserve(c->out.size() + c->out.size() / 4);  // no reallocation mid-step
}

/// Row index of a response line (`ok|err <session> <row> ...`).
bool ResponseRow(const char* begin, const char* end, uint64_t* row) {
  const char* p = begin;
  for (int field = 0; field < 2; ++field) {
    p = static_cast<const char*>(std::memchr(p, ' ', static_cast<size_t>(end - p)));
    if (p == nullptr) return false;
    ++p;
  }
  return std::from_chars(p, end, *row).ec == std::errc();
}

/// Reads what the socket holds and timestamps each completed line. A
/// short read means the socket is drained, which saves the EAGAIN call.
bool ReadResponses(int fd, ConnStep* c) {
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    const int64_t now = NowNs();
    c->in.append(buf, static_cast<size_t>(n));
    while (true) {
      const size_t nl = c->in.find('\n', c->line_start);
      if (nl == std::string::npos) break;
      const char* line = c->in.data() + c->line_start;
      uint64_t row = 0;
      if (ResponseRow(line, c->in.data() + nl, &row) && row < c->recv_ns.size()) {
        if (c->recv_ns[row] < 0) ++c->answered;
        c->recv_ns[row] = now;
      } else {
        ++c->answered;  // unattributable; the output check reports it
      }
      if (line[0] == 'e') ++c->errors;
      c->line_start = nl + 1;
    }
    if (static_cast<size_t>(n) < sizeof(buf)) return true;
  }
}

/// Sends every row due by `now` that the socket accepts.
bool SendDue(int fd, int64_t now, ConnStep* c) {
  const size_t due = static_cast<size_t>(
      std::upper_bound(c->due_ns.begin(), c->due_ns.end(), now) - c->due_ns.begin());
  const size_t target = due == 0 ? 0 : c->line_end[due - 1];
  while (c->written < target) {
    const ssize_t n =
        ::send(fd, c->out.data() + c->written, target - c->written, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
      c->blocked = true;
      break;
    }
    c->written += static_cast<size_t>(n);
  }
  const int64_t sent = NowNs();
  while (c->rows_sent < c->line_end.size() && c->line_end[c->rows_sent] <= c->written)
    c->sent_ns[c->rows_sent++] = sent;
  return true;
}

/// One step of the open loop: `seconds` of rows at kReferenceRate split
/// evenly over the connections, then a drain until every row is answered.
/// Inputs are generated before and outputs checked after, untimed.
StepResult RunStep(Stack& stack, const RunConfig& config, uint64_t step_index, double seconds,
                   bool keep_lines, Report* report) {
  StepResult result;
  const size_t bursts = std::max<size_t>(
      kConnections, static_cast<size_t>(kReferenceRate * seconds) / kBurstRows / kConnections * kConnections);
  const size_t total = bursts * kBurstRows;
  std::array<ConnStep, kConnections> conns;
  for (size_t c = 0; c < kConnections; ++c)
    PrepareConn(stack, step_index * kConnections + c + 1, total / kConnections, config.s_levels,
                SubSeed(config.seed, 40 + c, step_index), &conns[c]);

  // Burst j is due at t0 + j * kBurstRows / kReferenceRate on connection j % 2.
  const double burst_ns = 1e9 * static_cast<double>(kBurstRows) / kReferenceRate;
  const int64_t t0 = NowNs() + 2'000'000;
  for (size_t c = 0; c < kConnections; ++c) {
    conns[c].due_ns.resize(conns[c].line_end.size());
    for (size_t m = 0; m < conns[c].due_ns.size(); ++m)
      conns[c].due_ns[m] = t0 + static_cast<int64_t>(
                                    static_cast<double>((m / kBurstRows) * kConnections + c) *
                                    burst_ns);
  }
  const int64_t deadline =
      t0 + static_cast<int64_t>(static_cast<double>(bursts) * burst_ns) + 30'000'000'000LL;
  const Clock::time_point wall0 = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  const double client0 = ThreadCpuSeconds();
  bool failed = false;
  while (!failed) {
    size_t answered = 0;
    for (const auto& c : conns) answered += c.answered;
    if (answered >= total) break;
    int64_t now = NowNs();
    if (now > deadline) {
      report->Fail("serve_tcp: rows still unanswered 30 s after the step");
      failed = true;
      break;
    }
    int64_t next_due = now + 50'000'000;
    for (size_t c = 0; c < kConnections; ++c) {
      ConnStep& conn = conns[c];
      if (conn.rows_sent == conn.due_ns.size() || conn.blocked) continue;
      if (conn.due_ns[conn.rows_sent] <= now) {
        failed |= !SendDue(stack.conns[c].fd(), now, &conn);
        now = NowNs();
      }
      if (!conn.blocked && conn.rows_sent < conn.due_ns.size())
        next_due = std::min(next_due, conn.due_ns[conn.rows_sent]);
    }
    std::array<pollfd, kConnections> fds{};
    for (size_t c = 0; c < kConnections; ++c) {
      fds[c].fd = stack.conns[c].fd();
      fds[c].events = POLLIN | (conns[c].blocked ? POLLOUT : 0);
    }
    const int64_t wait = std::max<int64_t>(0, next_due - now);
    timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                     static_cast<long>(wait % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 && errno != EINTR) failed = true;
    for (size_t c = 0; c < kConnections; ++c) {
      if (fds[c].revents & (POLLIN | POLLERR | POLLHUP))
        failed |= !ReadResponses(stack.conns[c].fd(), &conns[c]);
      if (fds[c].revents & POLLOUT) conns[c].blocked = false;
    }
    if (failed) report->Fail("serve_tcp: connection failed during the step");
  }
  result.client_cpu_seconds = ThreadCpuSeconds() - client0;
  result.server_cpu_seconds = ProcessCpuSeconds() - cpu0 - result.client_cpu_seconds;
  result.wall_seconds = SecondsSince(wall0);
  result.rows = static_cast<double>(total);
  for (ConnStep& conn : conns) {
    result.bytes_out += conn.out.size();
    result.bytes_in += conn.in.size();
    for (size_t m = 0; m < conn.due_ns.size(); ++m) {
      const double latency = static_cast<double>(conn.recv_ns[m] - conn.due_ns[m]) * 1e-3;
      result.latency_us.push_back(latency);
      result.lag_us.push_back(static_cast<double>(conn.sent_ns[m] - conn.due_ns[m]) * 1e-3);
    }
    report->attempted += conn.due_ns.size();
    report->failed += conn.errors;
    if (!failed) {
      const std::string problem =
          CheckServeResponses(conn.in, conn.session, 0, conn.due_ns.size(), conn.expected);
      if (!problem.empty())
        report->Fail("serve_tcp session " + std::to_string(conn.session) + ": " + problem);
    }
    for (size_t m = 0; keep_lines && m < conn.line_end.size() &&
                       result.request_lines.size() < kReplayRows;
         ++m) {
      const size_t begin = m == 0 ? 0 : conn.line_end[m - 1];
      result.request_lines.emplace_back(conn.out, begin, conn.line_end[m] - 1 - begin);
    }
  }
  return result;
}

void PrintStep(const char* label, const StepResult& step) {
  const Summary latency = Summarize(step.latency_us);
  std::printf("%s rows=%7.0f latency p50=%7.1fus p99=%8.1fus p%g=%8.1fus lag p50=%5.1fus "
              "p99=%7.1fus server=%6.0fns/row client=%6.0fns/row\n",
              label, step.rows, latency.p50, Percentile(step.latency_us, 99.0), latency.tail_pct,
              latency.tail, Median(step.lag_us), Percentile(step.lag_us, 99.0),
              step.server_cpu_ns_per_row(), step.client_cpu_ns_per_row());
}

/// A step counts only when its rows left on schedule (median lag) and the
/// client thread had headroom; otherwise it measured the generator.
void CheckGenerator(const StepResult& step, Report* report) {
  const double lag = Median(step.lag_us);
  const double utilization = step.client_cpu_seconds / step.wall_seconds;
  if (lag > kMaxLagP50Us || utilization > kMaxClientUtilization) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "serve_tcp: the generator ran %.0f us late at the median (limit %.0f) with "
                  "the client %.0f%% busy (limit %.0f%%); the figures do not count",
                  lag, kMaxLagP50Us, utilization * 100.0, kMaxClientUtilization * 100.0);
    report->Fail(buf);
  }
}

/// The untraced phase. Every round starts a fresh serving stack (one
/// set-up sample), runs one reference step and shuts the stack down, so
/// the steps spread over the whole run instead of sharing one stretch of
/// the host's slow or fast periods.
class ServePhase : public Phase {
 public:
  ServePhase(const RunConfig& config, int rounds)
      : config_(config),
        research_(Simulate(kResearchRows, kDim, config.s_levels, SubSeed(config.seed, 1))),
        step_seconds_(config.seconds * kServeShare / rounds) {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on each row's schedule
    std::printf("serve_tcp: %d server workers, 1 repair lane, %zu connections, %.0f rows/s, "
                "%d steps of %.2f s\n",
                kNetThreads, kConnections, kReferenceRate, rounds, step_seconds_);
  }

  void Round(Report* report) override {
    const Clock::time_point start = Clock::now();
    Stack stack = StartStack(research_);
    setup_seconds_.push_back(SecondsSince(start));
    reference_.Merge(RunStep(stack, config_, step_index_++, step_seconds_, false, report));
    stack.server->Shutdown();
  }

  void Finish(Report* report) override {
    PrintStep("reference", reference_);
    if (!config_.smoke) CheckGenerator(reference_, report);
    const Summary setup = Summarize(setup_seconds_);
    report->Add("setup_s", setup.p50, "s", SummaryNote(setup, "lower"));
    // The calmest step's median: host preemption on the shared reference
    // box stalls whole seconds of traffic (whole-phase medians of one seed
    // ranged 77-576 us), and interference only ever adds time, so the
    // lowest of the per-step medians is the steady estimate (the min-of-N
    // rule of tools/run_bench.sh).
    const Summary latency = Summarize(reference_.latency_us);
    const double calmest =
        *std::min_element(reference_.step_p50_us.begin(), reference_.step_p50_us.end());
    char note[160];
    std::snprintf(note, sizeof(note),
                  "(lower is better; lowest of %zu step medians; all %zu rows: p50=%.4g, "
                  "p%g=%.4g)",
                  reference_.step_p50_us.size(), latency.n, latency.p50, latency.tail_pct,
                  latency.tail);
    report->Add("latency_p50_us", calmest, "us", note);
    report->Add("cpu_ns_per_row", reference_.server_cpu_ns_per_row(), "ns",
                "(lower is better; server CPU at the reference rate)");
  }

 private:
  const RunConfig& config_;
  const data::Dataset research_;
  const double step_seconds_;
  std::vector<double> setup_seconds_;
  StepResult reference_;
  uint64_t step_index_ = 0;
};

}  // namespace

std::unique_ptr<Phase> MakeServePhase(const RunConfig& config, int rounds) {
  return std::make_unique<ServePhase>(config, rounds);
}

void TraceServeTcp(const RunConfig& config, double seconds, Report* report) {
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  otfair::common::parallel::SetThreadCount(1);
  Stack stack = StartStack(
      Simulate(kResearchRows, kDim, config.s_levels, SubSeed(config.seed, 1)));
  auto& collector = otfair::obs::TraceCollector::Global();
  size_t cursor = 0;
  DrainSince(&cursor);

  const StepResult untraced = RunStep(stack, config, 0, seconds, false, report);
  PrintStep("untraced ", untraced);
  if (!config.smoke) CheckGenerator(untraced, report);
  auto scrape = [&] {
    auto text = otfair::net::SendVerb("127.0.0.1", stack.server->port(), "metrics --prom");
    if (!text.ok()) Die("metrics scrape: " + text.status().ToString());
    return std::move(*text);
  };
  auto counter = [](const std::string& text, const std::string& name) {
    const size_t at = text.find("\n" + name + " ");
    if (at == std::string::npos) Die("metric " + name + " missing from the exposition");
    return std::stod(text.substr(at + name.size() + 2));
  };
  const std::string before = scrape();
  const auto metrics_before = stack.service->metrics().Snapshot();
  collector.Enable();
  // One traced step: the server workers' span rings (16384 spans each)
  // keep its most recent spans; the layer numbers come from the CPU clock
  // and the replay below, not from those rings.
  const StepResult traced = RunStep(stack, config, 1, seconds, true, report);
  collector.Disable();
  const auto metrics_after = stack.service->metrics().Snapshot();
  const std::string after = scrape();
  PrintStep("traced   ", traced);
  const auto net_spans = DrainSince(&cursor);

  // Exact byte counts from the server's own counters; the scrape's
  // request line and the first scrape's response are taken out.
  const double verb_bytes = static_cast<double>(std::string("metrics --prom\n").size());
  const double bytes_read = counter(after, "otfair_net_bytes_read_total") -
                            counter(before, "otfair_net_bytes_read_total") - verb_bytes;
  const double bytes_written = counter(after, "otfair_net_bytes_written_total") -
                               counter(before, "otfair_net_bytes_written_total") -
                               static_cast<double>(before.size());
  if (bytes_read != static_cast<double>(traced.bytes_out) ||
      bytes_written != static_cast<double>(traced.bytes_in))
    report->Fail("server byte counters disagree with the client's byte counts");
  const double rows = static_cast<double>(traced.rows);
  const double batches = static_cast<double>(metrics_after.batches - metrics_before.batches);
  const double rows_per_batch =
      static_cast<double>(metrics_after.rows_accepted - metrics_before.rows_accepted) / batches;

  // In-process replay of the traced step's exact request lines through
  // the layer calls, in batches of the size the server formed. Each layer
  // is charged the replaying thread's CPU time, the same clock as the
  // served figure it is subtracted from (wall time would also count the
  // host preempting the thread).
  const size_t batch = std::max<size_t>(1, static_cast<size_t>(std::lround(rows_per_batch)));
  const std::vector<std::string>& lines = traced.request_lines;
  const size_t batches_total = (lines.size() + batch - 1) / batch;
  auto batch_size = [&](size_t b) { return std::min(batch, lines.size() - b * batch); };
  std::vector<std::vector<otfair::serve::RowRequest>> requests(batches_total);
  std::vector<otfair::serve::RowResponse> direct;
  std::vector<std::vector<otfair::serve::RowResponse>> sunk(batches_total);
  otfair::serve::BatcherOptions batcher_options;
  batcher_options.background_flush = false;
  batcher_options.max_batch = std::max<size_t>(batch, 256);
  size_t sink_batch = 0;
  otfair::serve::Batcher batcher(stack.service.get(), batcher_options,
                                 [&](const otfair::serve::RowResponse& response) {
                                   sunk[sink_batch].push_back(response);
                                 });
  std::vector<otfair::obs::CompletedSpan> replay_spans;
  // Runs body(b) over every batch and returns the CPU seconds it took;
  // the span rings are drained between chunks, off the clock.
  auto pass = [&](auto&& body) {
    double cpu = 0.0;
    for (size_t begin = 0; begin < batches_total; begin += 128) {
      const double start = ThreadCpuSeconds();
      for (size_t b = begin; b < std::min(begin + 128, batches_total); ++b) body(b);
      cpu += ThreadCpuSeconds() - start;
      const auto fresh = DrainSince(&cursor);
      replay_spans.insert(replay_spans.end(), fresh.begin(), fresh.end());
    }
    return cpu;
  };
  collector.Enable();
  const double parse_cpu = pass([&](size_t b) {
    OTFAIR_TRACE_SPAN("protocol.parse");
    for (size_t i = 0; i < batch_size(b); ++i) {
      auto parsed = otfair::serve::ParseRequestLine(lines[b * batch + i], kDim, 2,
                                                    config.s_levels);
      if (!parsed.ok()) Die("replay parse: " + parsed.status().ToString());
      requests[b].push_back(std::move(parsed->row));
    }
  });
  // The batcher runs the service's RepairBatch inside its Flush, so its
  // own cost is the difference to a direct RepairBatch of the same
  // batches. Direct, batcher, batcher, direct: a drift of the box's speed
  // during the four passes cancels.
  auto direct_pass = [&] {
    return pass([&](size_t b) {
      OTFAIR_TRACE_SPAN("repair_service.batch");
      stack.service->RepairBatch(requests[b].data(), requests[b].size(), &direct);
    });
  };
  auto batcher_pass = [&] {
    auto submitted = requests;
    for (auto& responses : sunk) responses.clear();
    return pass([&](size_t b) {
      OTFAIR_TRACE_SPAN("batcher.submit_flush");
      sink_batch = b;
      for (auto& request : submitted[b])
        if (!batcher.Submit(std::move(request)).ok()) Die("replay submit rejected");
      batcher.Flush();
    });
  };
  double direct_cpu = direct_pass();
  double batcher_cpu = batcher_pass();
  batcher_cpu += batcher_pass();
  direct_cpu += direct_pass();
  size_t formatted_bytes = 0;
  const double format_cpu = pass([&](size_t b) {
    OTFAIR_TRACE_SPAN("protocol.format");
    if (sunk[b].size() != batch_size(b)) Die("replay batcher lost rows");
    for (const auto& response : sunk[b])
      formatted_bytes += otfair::serve::FormatRowResponse(response).size() + 1;
  });
  collector.Disable();
  stack.server->Shutdown();
  const double replayed = static_cast<double>(lines.size());
  std::printf("replay: %.0f rows in batches of %zu, %.1f response bytes/row (served %.1f)\n",
              replayed, batch, static_cast<double>(formatted_bytes) / replayed,
              static_cast<double>(traced.bytes_in) / rows);

  PrintSelfTimes("serve_tcp (served step)", AnalyzeSpans(net_spans));
  PrintSelfTimes("serve_tcp (in-process replay)", AnalyzeSpans(replay_spans));
  const double ns = 1e9 / replayed;
  const double parse = parse_cpu * ns;
  const double format = format_cpu * ns;
  const double service = direct_cpu * ns / 2.0;
  const double batcher_self = (batcher_cpu - direct_cpu) * ns / 2.0;
  const double net_self = traced.server_cpu_ns_per_row() - parse - format - service - batcher_self;
  std::printf("layer sum: server %.0f ns/row = parse %.0f + format %.0f + batcher %.0f + "
              "service %.0f + net %.0f\n",
              traced.server_cpu_ns_per_row(), parse, format, batcher_self, service, net_self);
  // The batcher's figure is a difference of two measurements of similar
  // size and may read slightly negative below its resolution; the
  // network's is most of the served CPU, and negative means the
  // attribution is wrong.
  if (net_self < 0.0) {
    const std::string problem = "net self time came out negative; attribution is wrong";
    if (config.smoke)
      std::printf("smoke run, not a measurement: %s\n", problem.c_str());
    else
      report->Fail(problem);
  }
  report->Add("protocol.parse_ns_per_row", parse, "ns");
  report->Add("protocol.format_ns_per_row", format, "ns");
  report->Add("batcher.ns_per_row", batcher_self, "ns");
  report->Add("repair_service.batch_ns_per_row", service, "ns");
  report->Add("net.self_ns_per_row", net_self, "ns");
  report->Add("net.bytes_in_per_row", bytes_read / rows, "bytes");
  report->Add("net.bytes_out_per_row", bytes_written / rows, "bytes");
  report->Add("batcher.rows_per_batch", rows_per_batch, "rows");
  report->Add("batcher.queue_wait_p99_us", metrics_after.latency_p99_us, "us");
  report->Add("loadgen.lag_p99_us", Percentile(untraced.lag_us, 99.0), "us");
  report->Add("loadgen.client_cpu_ns_per_row", untraced.client_cpu_ns_per_row(), "ns");
  report->Add("trace.serve_tcp_overhead",
              traced.server_cpu_ns_per_row() / untraced.server_cpu_ns_per_row(), "ratio",
              "(traced / untraced server CPU per row)");
}

}  // namespace perfbench
