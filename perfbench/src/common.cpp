#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "bench.hpp"
#include "serve/client.hpp"

extern char** environ;

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<double>(xs.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p * n)));
  return xs[std::min(rank, xs.size()) - 1];
}

double median(std::vector<double> xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

Figures best_times(const std::vector<std::vector<Timed>>& rounds,
                   const std::vector<double>& points,
                   const std::vector<double>& events) {
  const std::size_t n = points.size();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> latency(n, inf), first_point(n, inf);
  for (const auto& round : rounds) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(round[i].latency_ms)) continue;
      latency[i] = std::min(latency[i], round[i].latency_ms);
      first_point[i] = std::min(first_point[i], round[i].first_point_ms);
    }
  }
  double seconds = 0.0, requests = 0.0, results = 0.0, work = 0.0;
  std::vector<double> first_ok;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(latency[i])) continue;
    seconds += latency[i] * 1e-3;
    requests += 1.0;
    results += points[i];
    work += events[i];
    first_ok.push_back(first_point[i]);
  }
  Figures f;
  f.p50 = percentile(latency, 0.50);
  f.p90 = percentile(latency, 0.90);
  f.p99 = percentile(latency, 0.99);
  f.first_point = percentile(first_ok, 0.50);
  f.throughput = requests / seconds;
  f.points = results / seconds;
  f.events = work / seconds;
  return f;
}

double Rng::exponential(double rate) { return -std::log1p(-uniform()) / rate; }

// ---------------------------------------------------------------- Tracer

std::int64_t Tracer::begin(const char* name, std::int64_t parent,
                           std::uint64_t request) {
  if (!enabled_) return -1;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, t, 0, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t index) {
  if (index < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

std::int64_t Tracer::record(const char* name, std::int64_t start_ns,
                            std::int64_t end_ns, std::int64_t parent,
                            std::uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, LayerTime> Tracer::layers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Child intervals per parent, clipped to the parent and merged, so
  // overlapping children (parallel work) are not subtracted twice.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [lo, hi] : kids) {
      const std::int64_t a = std::max(lo, cursor);
      const std::int64_t b = std::min(hi, s.end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    LayerTime& layer = out[s.name];
    const double dur = ns_to_ms(s.end_ns - s.start_ns);
    ++layer.count;
    layer.total_ms += dur;
    layer.self_ms += dur - ns_to_ms(covered);
    layer.durations_ms.push_back(dur);
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  Json doc = Json::object();
  Json spans = Json::array();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) {
      Json j = Json::object();
      j["name"] = s.name;
      j["start_us"] = static_cast<double>(s.start_ns - t0) * 1e-3;
      j["end_us"] = static_cast<double>(s.end_ns - t0) * 1e-3;
      j["parent"] = s.parent;
      j["request"] = s.request;
      spans.push_back(std::move(j));
    }
  }
  Json layers = Json::object();
  for (const auto& [name, layer] : this->layers()) {
    Json j = Json::object();
    j["count"] = layer.count;
    j["total_ms"] = layer.total_ms;
    j["self_ms"] = layer.self_ms;
    layers[name] = std::move(j);
  }
  doc["layers"] = std::move(layers);
  doc["spans"] = std::move(spans);
  std::ofstream out(path);
  out << doc.dump() << "\n";
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

// ---------------------------------------------------------------- Daemon

Daemon::Daemon(const std::string& bin, const std::string& socket,
               const std::string& cache_dir, const std::string& log,
               const std::vector<std::string>& env)
    : socket_(socket) {
  std::vector<std::string> args = {bin,
                                   "--socket=" + socket,
                                   "--threads=2",
                                   "--max-inflight=2",
                                   "--max-queued=64",
                                   "--cache-dir=" + cache_dir};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::vector<std::string> env_copy;
  for (char** e = environ; *e != nullptr; ++e) env_copy.emplace_back(*e);
  for (const auto& e : env) env_copy.push_back(e);
  std::vector<char*> envp;
  for (auto& e : env_copy) envp.push_back(e.data());
  envp.push_back(nullptr);

  // fork + exec rather than posix_spawn: the child asks to be killed with
  // its parent, so a harness killed mid-run leaves no daemon behind.
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) {
    throw std::runtime_error(std::string("cannot fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    const int out = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int in = open("/dev/null", O_RDONLY);
    if (out < 0 || in < 0) _exit(127);
    dup2(in, STDIN_FILENO);
    dup2(out, STDOUT_FILENO);
    dup2(out, STDERR_FILENO);
    execve(bin.c_str(), argv.data(), envp.data());
    _exit(127);
  }
  // Connect-with-retry until the daemon has bound its socket.
  try {
    (void)lsm::serve::Client::connect(socket_, 20.0);
  } catch (...) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    throw;
  }
}

Daemon::~Daemon() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  int status = 0;
  waitpid(pid_, &status, 0);
}

double vm_hwm_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM for pid " + pid);
}

double Daemon::peak_rss_mb() const { return vm_hwm_mb(std::to_string(pid_)); }

Json Daemon::status() const {
  auto client = lsm::serve::Client::connect(socket_, 5.0);
  Json req = Json::object();
  req["verb"] = "status";
  client.send(req);
  return client.read_line(30.0);
}

void Daemon::shutdown() {
  {
    auto client = lsm::serve::Client::connect(socket_, 5.0);
    Json req = Json::object();
    req["verb"] = "shutdown";
    client.send(req);
    (void)client.read_line(30.0);
  }
  int status = 0;
  const pid_t pid = pid_;
  pid_ = -1;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("lsm_serve did not exit cleanly");
  }
}

// ---------------------------------------------------------------- LineConn

LineConn::LineConn(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    if (fd_ >= 0) ::close(fd_);
    throw std::runtime_error("cannot connect to " + socket_path + ": " + why);
  }
  buffer_.reserve(1 << 16);
}

LineConn::~LineConn() {
  if (fd_ >= 0) ::close(fd_);
}

void LineConn::send(const std::string& line) {
  std::string bytes = line;
  bytes += '\n';
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send failed: ") +
                               std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

bool LineConn::read_line(std::string& out, double timeout_seconds) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_seconds * 1e9);
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      out.assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    const std::int64_t left = deadline - now_ns();
    if (left <= 0) return false;
    pollfd pfd{fd_, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::min<std::int64_t>(
                            left / 1000000 + 1, 1000)));
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("poll failed: ") +
                               std::strerror(errno));
    }
    if (ready <= 0) continue;
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) throw std::runtime_error("daemon closed the connection");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      throw std::runtime_error(std::string("recv failed: ") +
                               std::strerror(errno));
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string_view line_field(std::string_view line, std::string_view key) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\":\"";
  const std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) return {};
  const std::size_t from = at + pattern.size();
  const std::size_t to = line.find('"', from);
  if (to == std::string_view::npos) return {};
  return line.substr(from, to - from);
}

bool is_terminal(std::string_view type) {
  return type == "done" || type == "error" || type == "rejected";
}

Call call(LineConn& conn, const std::string& id, const std::string& request) {
  Call c;
  c.sent_ns = now_ns();
  conn.send(request);
  std::string text;
  for (;;) {
    if (!conn.read_line(text, 120.0)) {
      throw std::runtime_error("timed out waiting for request " + id);
    }
    Line line{now_ns(), text};
    const bool mine = line_field(text, "id") == id;
    const bool last = mine && is_terminal(line_field(text, "type"));
    if (mine) c.lines.push_back(std::move(line));
    if (last) return c;
  }
}

std::string request_line(const std::string& verb, const std::string& id,
                         const std::string& model, const Json& params,
                         const std::vector<double>& lambdas) {
  Json req = Json::object();
  req["verb"] = verb;
  req["id"] = id;
  req["model"] = model;
  Json grid = Json::array();
  for (const double l : lambdas) grid.push_back(l);
  req["lambdas"] = std::move(grid);
  if (params.size() > 0) req["params"] = params;
  return req.dump();
}

// ---------------------------------------------------------------- Outcome

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) problems.push_back(what);
}

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  metrics.emplace_back(name, std::make_pair(value, unit));
}

}  // namespace perfbench
