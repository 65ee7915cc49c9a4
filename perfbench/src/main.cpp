// dapple_perf: the end-to-end benchmark program.
//
//   dapple_perf --workload NAME --seed N --seconds S --trace 0|1
//               [--spans PATH] [--source-id ID]
//   dapple_perf --canary [--seed N] [--seconds S]
//
// Prints one context line ({"context": ...}) and, as the last line of
// stdout, the result object {"correct", "attempted", "failed", "metrics"}.
// An untraced run reports the end-to-end metrics, a traced run the
// per-layer ones.  Exits 1 when any message failed or any integrity or
// stage-sum check broke.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness.hpp"

namespace perfbench {

namespace {

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

Result runCanaryLeg(double seconds, std::uint64_t seed, std::int64_t busyNs) {
  RunOptions opt;
  opt.seed = seed;
  opt.seconds = seconds;
  opt.trace = true;
  opt.handlerBusyNs = busyNs;
  opt.rateOverride = kCanaryRate;
  return runStreamWorkload("stream_udp", opt);
}

}  // namespace

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += jsonString(entries_[i].name) + ": {\"value\": " +
           jsonNumber(entries_[i].value) +
           ", \"unit\": " + jsonString(entries_[i].unit) + "}";
  }
  return out + "}";
}

/// The attribution canary: stream_udp traced twice at a rate the slowed
/// handler can sustain, once as is and once with a 50 us busy-wait in the
/// benchmark's own handler.  The decomposition must charge the 50 us to
/// the handler stage (and to the due -> handler-end completion time) and
/// leave the transit stage where it was.
int runCanary(double seconds, std::uint64_t seed) {
  const Result base = runCanaryLeg(seconds, seed, 0);
  const Result slow = runCanaryLeg(seconds, seed, kCanaryBusyNs);
  auto delta = [&](const char* k) {
    return slow.perLayer.get(k) - base.perLayer.get(k);
  };
  const double injected = static_cast<double>(kCanaryBusyNs) / 1000.0;
  const double dHandler = delta("core.handler_us.p50");
  const double dComplete = delta("bench.complete_us.p50");
  const double dTransit = delta("core.transit_us.p50");
  const double dLatency = delta("core.inbox_wait_us.p50") +
                          delta("bench.gen_late_us.p50") + dTransit;
  const bool handlerOk = std::abs(dHandler - injected) <= 0.2 * injected;
  const bool completeOk = std::abs(dComplete - injected) <= 0.5 * injected;
  const bool transitOk =
      std::abs(dTransit) <= std::max(5.0, 0.25 * base.perLayer.get("core.transit_us.p50"));
  const bool clean = base.problems.empty() && slow.problems.empty() &&
                     base.failed == 0 && slow.failed == 0;
  const bool pass = handlerOk && completeOk && transitOk && clean;
  std::ostringstream out;
  out << "{\"canary\": {\"injected_us\": " << jsonNumber(injected)
      << ", \"rate_msgs_s\": " << jsonNumber(kCanaryRate)
      << ", \"handler_us.p50\": [" << jsonNumber(base.perLayer.get("core.handler_us.p50"))
      << ", " << jsonNumber(slow.perLayer.get("core.handler_us.p50")) << "]"
      << ", \"complete_us.p50\": [" << jsonNumber(base.perLayer.get("bench.complete_us.p50"))
      << ", " << jsonNumber(slow.perLayer.get("bench.complete_us.p50")) << "]"
      << ", \"transit_us.p50\": [" << jsonNumber(base.perLayer.get("core.transit_us.p50"))
      << ", " << jsonNumber(slow.perLayer.get("core.transit_us.p50")) << "]"
      << ", \"inbox_wait_us.p50\": [" << jsonNumber(base.perLayer.get("core.inbox_wait_us.p50"))
      << ", " << jsonNumber(slow.perLayer.get("core.inbox_wait_us.p50")) << "]"
      << ", \"start_latency_delta_us\": " << jsonNumber(dLatency)
      << ", \"handler_ok\": " << (handlerOk ? "true" : "false")
      << ", \"complete_ok\": " << (completeOk ? "true" : "false")
      << ", \"transit_ok\": " << (transitOk ? "true" : "false")
      << ", \"clean\": " << (clean ? "true" : "false")
      << ", \"pass\": " << (pass ? "true" : "false") << "}}";
  std::cout << out.str() << std::endl;
  return pass ? 0 : 1;
}

int runMain(int argc, char** argv) {
  std::string workload;
  std::string sourceId = "unknown";
  RunOptions opt;
  bool canary = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      workload = next();
    } else if (a == "--seed") {
      opt.seed = std::stoull(next());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(next());
    } else if (a == "--trace") {
      opt.trace = next() == "1";
    } else if (a == "--spans") {
      opt.spansPath = next();
    } else if (a == "--source-id") {
      sourceId = next();
    } else if (a == "--canary") {
      canary = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (opt.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  const int cpu = pinToOneCpu();
  if (canary) return runCanary(opt.seconds, opt.seed);

  Result res;
  if (isStreamWorkload(workload)) {
    res = runStreamWorkload(workload, opt);
  } else if (workload == "rpc_udp") {
    res = runRpcWorkload(opt);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }

  const bool correct = res.problems.empty() && res.failed == 0;
  const double failedFrac =
      res.attempted ? static_cast<double>(res.failed) /
                          static_cast<double>(res.attempted)
                    : 0;
  res.perLayer.set("bench.failed_frac", failedFrac, "1");
  std::ostringstream ctx;
  ctx << "{\"context\": {\"workload\": " << jsonString(workload)
      << ", \"seed\": " << opt.seed << ", \"seconds\": " << jsonNumber(opt.seconds)
      << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu_model\": " << jsonString(cpuModel())
      << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
      << ", \"pinned_cpu\": " << cpu
      << ", \"source_id\": " << jsonString(sourceId) << "}";
  for (const auto& [k, v] : res.context) {
    ctx << ", " << jsonString(k) << ": " << jsonString(v);
  }
  ctx << ", \"failed_frac\": " << jsonNumber(failedFrac);
  ctx << ", \"not_applicable\": [";
  for (std::size_t i = 0; i < res.notApplicable.size(); ++i) {
    ctx << (i ? ", " : "") << jsonString(res.notApplicable[i]);
  }
  ctx << "], \"problems\": [";
  for (std::size_t i = 0; i < res.problems.size(); ++i) {
    ctx << (i ? ", " : "") << jsonString(res.problems[i]);
  }
  ctx << "]}}";
  std::cout << ctx.str() << '\n';

  const Metrics& metrics = opt.trace ? res.perLayer : res.endToEnd;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << res.attempted
            << ", \"failed\": " << res.failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::runMain(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "dapple_perf: " << e.what() << std::endl;
    return 2;
  }
}
