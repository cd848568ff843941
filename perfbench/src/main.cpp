// lsmbench: the benchmark harness behind perfbench/run.py.
//
//   lsmbench --workload=serve_solve|sim_replicate --seed=N
//            --seconds=S --trace=0|1 --serve-bin=PATH --work-dir=DIR
//            [--inject-fault]
//
// Runs one workload against the real lsm_serve daemon or the exp/sim
// libraries, checks every output, and prints (last) one JSON line with
// "correct", "attempted", "failed" and "metrics". Two lines precede it:
// "phases" (requests sent/ok/failed/rejected per phase) and
// "determinism" (counters that must repeat for the same seed and build).
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "util/cli.hpp"

namespace {

using perfbench::Json;

/// A thread at the lowest scheduling priority, bound to one CPU, that
/// keeps that CPU from going idle while the object lives; it runs only
/// when nothing else on that CPU can.
class IdleOccupier {
 public:
  explicit IdleOccupier(int cpu)
      : thread_([this, cpu] {
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(cpu, &one);
          pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
          sched_param param{};
          pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
          while (!stop_.load(std::memory_order_relaxed)) {
          }
        }) {}
  ~IdleOccupier() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  IdleOccupier(const IdleOccupier&) = delete;
  IdleOccupier& operator=(const IdleOccupier&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Device interrupts each CPU has served since boot, from /proc/interrupts
/// (numbered lines only: timer, IPI and other per-CPU lines are left out).
/// Empty when the file cannot be read.
std::vector<std::uint64_t> device_interrupts() {
  std::ifstream in("/proc/interrupts");
  std::string line;
  if (!std::getline(in, line)) return {};
  std::vector<int> cpus;
  std::istringstream header(line);
  for (std::string name; header >> name;) {
    if (name.rfind("CPU", 0) != 0 || name.size() == 3) return {};
    cpus.push_back(std::stoi(name.substr(3)));
  }
  const int max_cpu = cpus.empty() ? -1 : *std::max_element(cpus.begin(), cpus.end());
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(max_cpu + 1), 0);
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string label;
    row >> label;
    if (label.empty() || !std::isdigit(static_cast<unsigned char>(label[0]))) continue;
    for (const int cpu : cpus) {
      std::uint64_t n = 0;
      if (!(row >> n)) break;
      counts[static_cast<std::size_t>(cpu)] += n;
    }
  }
  return counts;
}

/// Restricts this process (and every thread and child it starts later)
/// to `n` CPUs: of those it may run on, the ones that have served the
/// fewest device interrupts (higher-numbered first on a tie). Disk
/// completions, and any other device traffic, then interrupt the measured
/// CPUs as little as the machine allows. Returns the CPUs chosen.
std::vector<int> pin_to_quiet_cpus(std::size_t n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  const std::vector<std::uint64_t> irqs = device_interrupts();
  const auto count = [&](int cpu) {
    const auto c = static_cast<std::size_t>(cpu);
    return c < irqs.size() ? irqs[c] : 0;
  };
  std::vector<int> cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  std::stable_sort(cpus.begin(), cpus.end(),
                   [&](int a, int b) { return count(a) < count(b); });
  cpus.resize(std::min(n, cpus.size()));
  if (cpus.empty()) return {};
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (const int cpu : cpus) CPU_SET(cpu, &chosen);
  sched_setaffinity(0, sizeof(chosen), &chosen);
  return cpus;
}

Json result_line(const perfbench::Outcome& out) {
  Json line = Json::object();
  line["correct"] = out.problems.empty();
  line["attempted"] = out.attempted;
  line["failed"] = out.failed;
  Json metrics = Json::object();
  for (const auto& [name, metric] : out.metrics) {
    Json m = Json::object();
    m["value"] = metric.first;
    m["unit"] = metric.second;
    metrics[name] = std::move(m);
  }
  line["metrics"] = std::move(metrics);
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  const lsm::util::Args args(argc, argv);
  perfbench::Options opts;
  opts.workload = args.get("workload", std::string());
  opts.seed = static_cast<std::uint64_t>(args.get("seed", 1L));
  opts.seconds = args.get("seconds", 10.0);
  opts.trace = args.get("trace", 0L) != 0;
  opts.serve_bin = args.get("serve-bin", std::string());
  opts.work_dir = args.get("work-dir", std::string());
  opts.inject_fault = args.flag("inject-fault");
  if (opts.work_dir.empty() || opts.seconds <= 0.0) {
    std::cerr << "lsmbench: --work-dir and a positive --seconds are required\n";
    return 2;
  }
  // Sleeping generators wake within microseconds of their due time.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  // serve_solve runs the harness and the daemons it spawns on the two
  // CPUs that serve the fewest device interrupts, each kept from going idle
  // by a lowest-priority thread: on a shared virtual machine, waking a
  // thread on an idle CPU costs 10 us to several ms depending on host load,
  // which swamped what the daemon itself does (perfbench/README.md). With
  // two CPUs the client reads each point while the solver computes the next.
  std::vector<std::unique_ptr<IdleOccupier>> occupiers;
  if (opts.workload == "serve_solve") {
    for (const int cpu : pin_to_quiet_cpus(2)) {
      occupiers.push_back(std::make_unique<IdleOccupier>(cpu));
    }
  }

  namespace fs = std::filesystem;
  std::error_code ignored;
  fs::remove_all(opts.work_dir, ignored);
  perfbench::Tracer tracer(opts.trace);
  perfbench::Outcome out;
  int rc = 0;
  try {
    fs::create_directories(opts.work_dir);
    if (opts.workload == "serve_solve") {
      out = perfbench::run_serve_solve(opts, tracer);
    } else if (opts.workload == "sim_replicate") {
      out = perfbench::run_sim_replicate(opts, tracer);
    } else {
      std::cerr << "lsmbench: unknown workload '" << opts.workload << "'\n";
      rc = 2;
    }
    if (rc == 0 && tracer.enabled()) {
      tracer.write(opts.work_dir + "/../trace-" + opts.workload + ".json");
    }
  } catch (const std::exception& e) {
    std::cerr << "lsmbench: " << e.what() << "\n";
    rc = 1;
  }
  fs::remove_all(opts.work_dir, ignored);
  occupiers.clear();
  if (rc != 0) return rc;

  for (const auto& p : out.problems) std::cerr << "lsmbench: FAILED " << p << "\n";
  Json phases = Json::array();
  for (const auto& p : out.phases) {
    Json j = Json::object();
    j["phase"] = p.name;
    j["sent"] = p.sent;
    j["ok"] = p.ok;
    j["failed"] = p.failed;
    j["rejected"] = p.rejected;
    phases.push_back(std::move(j));
  }
  Json info = Json::object();
  info["phases"] = std::move(phases);
  std::cout << info.dump() << "\n";
  Json det = Json::object();
  det["determinism"] = out.determinism;
  std::cout << det.dump() << "\n";
  std::cout << result_line(out).dump() << std::endl;
  return 0;
}
