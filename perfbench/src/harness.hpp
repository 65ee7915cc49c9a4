#pragma once
// Shared pieces of the end-to-end benchmark: the one clock every span is
// stamped with, the open-loop generator's sleep, CPU accounting, percentile
// and checksum helpers, and the metric/result records main.cpp prints.

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds.  Every stamp in the benchmark (due times, spans,
/// taps, handler entry) comes from this one clock, so span differences are
/// exact integers and the stage sums can be checked for equality.
inline std::int64_t nowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Sleeps until the absolute monotonic time `t` (never spins).
inline void sleepUntilNs(std::int64_t t) {
  timespec ts{};
  ts.tv_sec = t / 1'000'000'000;
  ts.tv_nsec = t % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// The generator's timer slack: 1 ns instead of the default 50 us, which
/// would otherwise add itself to every due-stamped sample.  Per thread, so
/// it is called on the generator thread after the program's own threads
/// exist (they keep the default they were created with).
inline void useFineTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

/// Back to the default slack, so threads created next keep it too.
inline void useDefaultTimerSlack() {
  prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);
}

/// Confines the calling thread, and every thread it creates afterwards, to
/// one CPU: the second this process may use (the first usually takes the
/// virtual devices' interrupts), or the only one.  Called before anything
/// else, so the program's transport threads and reactor loops share that
/// CPU with the generator, and every hand-off between them is a context
/// switch on one CPU.  Left to the kernel, the threads landed on different
/// vCPUs from run to run, and each cross-vCPU wake-up on a shared virtual
/// host costs tens of microseconds that vary with the host's load:
/// stream_udp's P50 flipped between ~20 and ~34 us from one run to the
/// next, rpc_udp's calls/s varied 2.5x, and CPU per message doubled.
/// Returns the CPU, or -1 when the mask could not be read or set.
inline int pinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  std::vector<int> allowed;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) allowed.push_back(c);
  }
  if (allowed.empty()) return -1;
  const int cpu = allowed[std::min<std::size_t>(1, allowed.size() - 1)];
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

/// Busy-waits `ns` nanoseconds (the attribution canary's injected work).
inline void busyWaitNs(std::int64_t ns) {
  const std::int64_t end = nowNs() + ns;
  while (nowNs() < end) {
  }
}

/// Threads in this process (the "Threads:" line of /proc/self/status).
inline int threadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

/// Process CPU time, user + system, in seconds.
inline double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Nearest-rank percentile of `v` (0 < q <= 1); sorts `v`.  0 when empty.
inline double percentileNs(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

inline double usOf(double ns) { return ns / 1000.0; }

/// num / den, or 0 when there is nothing to divide by.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// FNV-1a over bytes, continuing from `h`.
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = 1469598103934665603ULL) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

inline std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

/// The per-message checksum carried in the `sum` field: the payload's
/// content hash bound to its channel and sequence number, so a payload
/// delivered on the wrong channel or under the wrong seq fails too.
inline std::int64_t messageSum(std::uint64_t contentHash, std::uint64_t channel,
                               std::uint64_t seq) {
  return static_cast<std::int64_t>(mix64(mix64(contentHash, channel), seq) >> 1);
}

/// Per-seq stamps (ns; -1 = not seen) written by the program's threads —
/// taps, handlers, the bound RPC method — and read by the generator once
/// the phase drained.  Atomic, so a straggler landing after its phase
/// ended (only on a failing run, which then stops) is still a defined
/// write; relaxed stores cost a plain store.
class StampArray {
 public:
  void reset(std::size_t n) {
    v_ = std::make_unique<std::atomic<std::int64_t>[]>(n);
    n_ = n;
    for (std::size_t i = 0; i < n; ++i) v_[i].store(-1, std::memory_order_relaxed);
  }
  void set(std::size_t i, std::int64_t t) {
    v_[i].store(t, std::memory_order_relaxed);
  }
  std::int64_t operator[](std::size_t i) const {
    return v_[i].load(std::memory_order_relaxed);
  }
  std::size_t size() const { return n_; }

 private:
  std::unique_ptr<std::atomic<std::int64_t>[]> v_;
  std::size_t n_ = 0;
};

/// Named metrics in insertion order, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.unit = unit;
        return;
      }
    }
    entries_.push_back({name, value, unit});
  }
  double get(const std::string& name) const {
    for (const auto& e : entries_) {
      if (e.name == name) return e.value;
    }
    return 0;
  }
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Median of `v` (0 when empty).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The measured phases are cut into slices of kSliceSeconds (of due time
/// in a fixed-rate phase, of wall time in a window phase).  Each end-to-end
/// figure is the median over slices of that slice's own figure, so a stall
/// of the shared host moves a few slices, not the run.
struct SliceStats {
  std::vector<double> p50, p90, cpuPerMsg;  ///< fixed-rate slices
  std::vector<double> throughput;           ///< window slices, msgs/s
  double cpuSeconds = 0;                    ///< all fixed-rate slices
  std::uint64_t handled = 0;

  void add(std::vector<std::int64_t> latency, double cpuSecs,
           std::uint64_t handled) {
    if (latency.empty() || handled == 0) return;
    p50.push_back(percentileNs(latency, 0.5));
    p90.push_back(percentileNs(latency, 0.9));
    cpuPerMsg.push_back(cpuSecs * 1e6 / static_cast<double>(handled));
    cpuSeconds += cpuSecs;
    this->handled += handled;
  }

  void merge(const SliceStats& o) {
    p50.insert(p50.end(), o.p50.begin(), o.p50.end());
    p90.insert(p90.end(), o.p90.begin(), o.p90.end());
    cpuPerMsg.insert(cpuPerMsg.end(), o.cpuPerMsg.begin(), o.cpuPerMsg.end());
    throughput.insert(throughput.end(), o.throughput.begin(),
                      o.throughput.end());
    cpuSeconds += o.cpuSeconds;
    handled += o.handled;
  }

  /// Sets the three medians and the CPU per message in `m` (CPU is a ratio
  /// of totals: a host stall idles the process, it does not bill it), and
  /// lists every slice in `context`.
  void report(Metrics& m, std::map<std::string, std::string>& context) const {
    m.set("latency_p50_us", usOf(median(p50)), "us");
    m.set("latency_p90_us", usOf(median(p90)), "us");
    m.set("throughput_msgs_s", median(throughput), "msgs/s");
    m.set("cpu_us_per_msg",
          ratio(cpuSeconds * 1e6, static_cast<double>(handled)), "us");
    context["slices.latency_p50_us"] = list(p50, 1e-3);
    context["slices.latency_p90_us"] = list(p90, 1e-3);
    context["slices.throughput_msgs_s"] = list(throughput, 1);
    context["slices.cpu_us_per_msg"] = list(cpuPerMsg, 1);
  }

  static std::string list(const std::vector<double>& v, double scale) {
    std::string out;
    for (const double x : v) {
      if (!out.empty()) out += ' ';
      out += std::to_string(static_cast<long long>(std::llround(x * scale)));
    }
    return out;
  }
};

/// `setup_s` is the median of the run's set-ups; each is listed in `context`.
inline void reportSetup(std::vector<std::int64_t> setupsNs, Metrics& m,
                        std::map<std::string, std::string>& context) {
  std::vector<double> us;
  for (const std::int64_t ns : setupsNs) us.push_back(static_cast<double>(ns));
  context["setups_us"] = SliceStats::list(us, 1e-3);
  m.set("setup_s", percentileNs(setupsNs, 0.5) * 1e-9, "s");
}

/// Everything one workload run reports.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Integrity or trace-consistency problems (each one line); non-empty
  /// makes the run incorrect.
  std::vector<std::string> problems;
  Metrics endToEnd;   ///< the untraced run's metrics
  Metrics perLayer;   ///< the traced run's metrics
  /// Per-layer metric names that do not apply to this workload (reported
  /// as 0 so every traced run carries the same key set).
  std::vector<std::string> notApplicable;
  /// Workload context: network kind, codec, fan-out, rates, thread count.
  std::map<std::string, std::string> context;

  void markNotApplicable(std::initializer_list<const char*> names,
                         const char* unit) {
    for (const char* n : names) {
      perLayer.set(n, 0, unit);
      notApplicable.push_back(n);
    }
  }
};

// Run layout.  Set-up is repeated and its median reported; the untraced
// run splits --seconds between the fixed-rate and the window phases; the
// traced run spends shares of it on an untraced and a traced fixed-rate
// phase, and the rest on the layer floors.
constexpr int kSetupRepeats = 9;
constexpr double kWarmupSeconds = 0.5;
constexpr double kSliceSeconds = 0.25;
constexpr double kFixedShare = 0.65;
// The untraced run alternates fixed-rate and window phases this many
// times, so both sample the host's state across the whole run.
constexpr int kRounds = 4;
constexpr double kTracedUntracedShare = 0.35;
constexpr double kTracedShare = 0.4;
// stream_udp's traced run ends with a traced RPC echo probe on its own
// UdpNetwork: rpc_udp is not in BENCHMARK.json, the rpc layer still is.
constexpr double kRpcProbeShare = 0.15;
constexpr int kOnewaySamples = 2000;
// The attribution canary runs stream_udp at a rate its slowed handler can
// sustain (5k/s x 50 us keeps the loop a quarter busy).
constexpr double kCanaryRate = 5000;
constexpr std::int64_t kCanaryBusyNs = 50'000;

/// Run parameters shared by every workload.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Canary only: busy-wait injected into the stream handler, in ns.
  std::int64_t handlerBusyNs = 0;
  /// Canary only: overrides the workload's fixed rate when > 0.
  double rateOverride = 0;
  /// Where the traced run writes its spans ("" = do not write).
  std::string spansPath;
};

/// Workload entry points (stream.cpp, rpc.cpp).
bool isStreamWorkload(const std::string& name);
Result runStreamWorkload(const std::string& name, const RunOptions& opt);
Result runRpcWorkload(const RunOptions& opt);
/// The rpc.* per-layer metrics from a short traced run of synchronous echo
/// calls (rpc_udp's shape); its calls count into `res.attempted/failed`.
void probeRpc(const RunOptions& opt, Result& res);

}  // namespace perfbench
