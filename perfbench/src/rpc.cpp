// rpc_udp: closed-loop synchronous `RpcClient::call("echo")` from one
// caller over UdpNetwork loopback, text codec.  The `RpcServer` serves from
// an `Inbox::onMessage` handler on a 1-loop reactor; the reply wakes the
// caller blocked in the reply inbox's `receiveFor`.  Every echo is compared
// with its arguments.

#include <fstream>
#include <memory>
#include <random>

#include "dapple/core/dapplet.hpp"
#include "dapple/core/inbox_ref.hpp"
#include "dapple/core/reactor.hpp"
#include "dapple/core/rpc.hpp"
#include "dapple/net/udp.hpp"
#include "dapple/serial/data_message.hpp"
#include "dapple/util/error.hpp"
#include "layers.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace dapple;

namespace {

constexpr double kRate = 2000;         // calls/s in the fixed-rate phase
constexpr auto kCallTimeout = std::chrono::seconds(2);  // slower = failed
constexpr WireCodec kCodec = WireCodec::kText;

/// Stage stamps of one traced call, by seq - window start.
struct CallSpans {
  StampArray callStart, serverTap, methodStart, methodEnd, clientTap, callEnd;
  std::uint64_t firstSeq = 0;  ///< seq of index 0
  void reset(std::uint64_t lo, std::size_t n) {
    firstSeq = lo;
    for (auto* v : {&callStart, &serverTap, &methodStart, &methodEnd,
                    &clientTap, &callEnd}) {
      v->reset(n);
    }
  }
};

std::int64_t seqOf(const Value& v) {
  return v.isMap() && v.contains("seq") && v.at("seq").isInt()
             ? v.at("seq").asInt()
             : -1;
}

class RpcRig {
 public:
  explicit RpcRig(const Value& args) : args_(args) {
    Reactor::Options ro;
    ro.threads = 1;
    reactor_ = std::make_unique<Reactor>(ro);
    DappletConfig cfg;
    cfg.wireCodec = kCodec;
    cfg.runtime.reactor = reactor_.get();
    server_ = std::make_unique<Dapplet>(net_, "server", cfg);
    client_ = std::make_unique<Dapplet>(net_, "client", cfg);
    rpcServer_ = std::make_unique<RpcServer>(*server_, "rpc");
    rpcServer_->bind("echo", [this](const Value& a) {
      const std::int64_t t0 = nowNs();
      std::size_t i = 0;
      const bool traced = inTrace(seqOf(a), &i);
      Value out = a;
      if (traced) {
        spans_.methodStart.set(i, t0);
        spans_.methodEnd.set(i, nowNs());
      }
      return out;
    });
    rpcClient_ = std::make_unique<RpcClient>(*client_, rpcServer_->ref());
    call(0);
  }

  ~RpcRig() {
    rpcClient_.reset();
    rpcServer_.reset();
    client_.reset();
    server_.reset();
    reactor_->stop();
  }

  RpcRig(const RpcRig&) = delete;
  RpcRig& operator=(const RpcRig&) = delete;

  /// One synchronous call; returns false when it failed or echoed wrong.
  bool call(std::uint64_t seq, std::int64_t* start = nullptr,
            std::int64_t* end = nullptr) {
    args_.asMap()["seq"] = Value(static_cast<long long>(seq));
    ++attempted_;
    const std::int64_t t0 = nowNs();
    bool ok = false;
    try {
      const Value r = rpcClient_->call("echo", args_, kCallTimeout);
      ok = r == args_;
      if (!ok) ++mismatches_;
    } catch (const TimeoutError&) {
      ++timeouts_;
    } catch (const Error&) {
      ++errors_;
    }
    const std::int64_t t1 = nowNs();
    if (start != nullptr) *start = t0;
    if (end != nullptr) *end = t1;
    if (!ok) ++failed_;
    return ok;
  }

  void startTrace(std::uint64_t lo, std::uint64_t n) {
    spans_.reset(lo, n);
    server_->setDeliveryTap([this](Inbox&, Delivery& d) {
      stampTap(d, "args", spans_.serverTap);
      return false;
    });
    client_->setDeliveryTap([this](Inbox&, Delivery& d) {
      stampTap(d, "value", spans_.clientTap);
      return false;
    });
    traceLo_.store(lo);
    traceHi_.store(lo + n);
  }
  void stopTrace() {
    traceHi_.store(0);
    server_->setDeliveryTap(nullptr);
    client_->setDeliveryTap(nullptr);
  }

  CallSpans& spans() { return spans_; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t errors() const { return errors_; }
  std::uint64_t mismatches() const { return mismatches_; }

  /// The loop, both endpoints and the socket counters; every endpoint both
  /// sends and receives, so each counts as sender and receiver.
  Counters counters() const {
    Counters c;
    c.t = nowNs();
    c.handled = attempted_;
    c.reactor = reactor_->stats();
    for (Dapplet* d : {server_.get(), client_.get()}) {
      addStats(c.tx, d->transport().stats());
    }
    c.rx = c.tx;
    readNetwork(nullptr, &net_, c);
    return c;
  }

  /// Backlog high-water of the server's request inbox.
  std::size_t inboxHighWater() const {
    return server_->inbox("rpc").queueHighWater();
  }

  InboxRef serverRef() const { return rpcServer_->ref(); }

 private:
  bool inTrace(std::int64_t seq, std::size_t* i) const {
    const std::uint64_t lo = traceLo_.load();
    if (seq < 0 || static_cast<std::uint64_t>(seq) < lo ||
        static_cast<std::uint64_t>(seq) >= traceHi_.load()) {
      return false;
    }
    *i = static_cast<std::size_t>(static_cast<std::uint64_t>(seq) - lo);
    return true;
  }

  void stampTap(const Delivery& d, const char* field,
                StampArray& into) {
    const std::int64_t t = nowNs();
    const auto* m = dynamic_cast<const DataMessage*>(d.message.get());
    if (m == nullptr || !m->has(field)) return;
    std::size_t i = 0;
    if (inTrace(seqOf(m->get(field)), &i)) into.set(i, t);
  }

  Value args_;
  UdpNetwork net_;
  std::unique_ptr<Reactor> reactor_;
  std::unique_ptr<Dapplet> server_;
  std::unique_ptr<Dapplet> client_;
  std::unique_ptr<RpcServer> rpcServer_;
  std::unique_ptr<RpcClient> rpcClient_;
  std::atomic<std::uint64_t> traceLo_{0};
  std::atomic<std::uint64_t> traceHi_{0};
  CallSpans spans_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t mismatches_ = 0;
};

struct FixedCalls {
  std::vector<std::int64_t> latency;  ///< call start -> return
  std::vector<std::int64_t> genLate;  ///< call start - due
  SliceStats slices;
};

/// Open loop of synchronous calls: call i is due at t0 + i/rate.
FixedCalls runFixed(RpcRig& rig, std::uint64_t& nextSeq, double seconds,
                    bool traced) {
  FixedCalls p;
  const auto n = static_cast<std::uint64_t>(kRate * seconds);
  const auto perSlice = static_cast<std::uint64_t>(kRate * kSliceSeconds);
  const std::uint64_t lo = nextSeq;
  if (traced) rig.startTrace(lo, n);
  double cpuMark = cpuSeconds();
  std::vector<std::int64_t> slice;
  const std::int64_t t0 = nowNs() + 1'000'000;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::int64_t due =
        t0 + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / kRate);
    if (nowNs() < due) sleepUntilNs(due);
    std::int64_t s = 0;
    std::int64_t e = 0;
    if (rig.call(lo + i, &s, &e)) slice.push_back(e - s);
    p.genLate.push_back(s - due);
    if (traced) {
      rig.spans().callStart.set(i, s);
      rig.spans().callEnd.set(i, e);
    }
    if ((i + 1) % perSlice == 0 || i + 1 == n) {
      const double cpu = cpuSeconds();
      p.latency.insert(p.latency.end(), slice.begin(), slice.end());
      p.slices.add(std::move(slice), cpu - cpuMark, i % perSlice + 1);
      slice.clear();
      cpuMark = cpu;
    }
  }
  nextSeq = lo + n;
  if (traced) rig.stopTrace();
  return p;
}

/// Window phase: back-to-back calls, one outstanding.  Adds each time
/// slice's calls completed per second to `slices`.
void runBackToBack(RpcRig& rig, std::uint64_t& nextSeq, double seconds,
                   SliceStats& slices) {
  const auto sliceNs = static_cast<std::int64_t>(kSliceSeconds * 1e9);
  std::int64_t t = nowNs();
  const std::int64_t end = t + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t markT = t;
  std::uint64_t done = 0;
  while (t < end) {
    if (rig.call(nextSeq++)) ++done;
    t = nowNs();
    if (t - markT >= sliceNs) {
      slices.throughput.push_back(static_cast<double>(done) /
                                  (static_cast<double>(t - markT) * 1e-9));
      markT = t;
      done = 0;
    }
  }
}

struct StageSummary {
  std::size_t traced = 0;      ///< calls with all six stamps in order
  double serverWaitP99Us = 0;
};

/// Checks the stage stamps of the traced calls, writes them to `spansPath`
/// (unless empty) and sets the rpc.* stage metrics.
StageSummary rpcStageMetrics(const CallSpans& sp, const std::string& spansPath,
                       Result& res) {
  Metrics& m = res.perLayer;
  // Every stage must be stamped and none may run backwards; the five
  // stages then partition the call, call start to return, exactly.  A
  // stamp linked to the wrong call (seq) breaks the order.
  std::vector<std::int64_t> request, serverWait, method, reply, wake;
  std::uint64_t broken = 0;
  for (std::size_t i = 0; i < sp.callStart.size(); ++i) {
    const std::int64_t st[6] = {sp.callStart[i],  sp.serverTap[i],
                                sp.methodStart[i], sp.methodEnd[i],
                                sp.clientTap[i],  sp.callEnd[i]};
    bool ok = st[0] >= 0;
    for (int k = 1; ok && k < 6; ++k) ok = st[k] >= st[k - 1];
    if (!ok) {
      ++broken;
      continue;
    }
    request.push_back(st[1] - st[0]);
    serverWait.push_back(st[2] - st[1]);
    method.push_back(st[3] - st[2]);
    reply.push_back(st[4] - st[3]);
    wake.push_back(st[5] - st[4]);
  }
  if (broken > 0) {
    res.problems.push_back("trace: " + std::to_string(broken) +
                           " traced calls with missing or unordered stages");
  }
  if (!spansPath.empty()) {
    std::ofstream out(spansPath);
    out << "seq,call_start,server_tap,method_start,method_end,"
           "client_tap,call_end\n";
    const std::int64_t origin = sp.callStart.size() == 0 ? 0 : sp.callStart[0];
    for (std::size_t i = 0; i < sp.callStart.size(); ++i) {
      out << sp.firstSeq + i;
      for (const auto* v : {&sp.callStart, &sp.serverTap, &sp.methodStart,
                            &sp.methodEnd, &sp.clientTap, &sp.callEnd}) {
        out << ',' << ((*v)[i] < 0 ? -1 : (*v)[i] - origin);
      }
      out << '\n';
    }
  }
  m.set("rpc.request_us.p50", usOf(percentileNs(request, 0.5)), "us");
  m.set("rpc.request_us.p99", usOf(percentileNs(request, 0.99)), "us");
  m.set("rpc.server_wait_us.p50", usOf(percentileNs(serverWait, 0.5)), "us");
  m.set("rpc.method_us.p50", usOf(percentileNs(method, 0.5)), "us");
  m.set("rpc.reply_us.p50", usOf(percentileNs(reply, 0.5)), "us");
  m.set("rpc.wake_us.p50", usOf(percentileNs(wake, 0.5)), "us");
  m.set("rpc.wake_us.p99", usOf(percentileNs(wake, 0.99)), "us");
  return {request.size(), usOf(percentileNs(serverWait, 0.99))};
}

/// The echo arguments: a seq plus 64 B of seeded text.
Value echoArgs(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string data(64, ' ');
  for (char& c : data) c = static_cast<char>('a' + rng() % 26);
  ValueMap args;
  args["seq"] = Value(0);
  args["data"] = Value(data);
  return Value(std::move(args));
}

/// Integrity verdict over every call made in the run (added to `res`).
void tally(const RpcRig& rig, Result& res) {
  res.attempted += rig.attempted();
  res.failed += rig.failed();
  if (rig.failed() > 0) {
    res.problems.push_back(
        "rpc: " + std::to_string(rig.failed()) + " of " +
        std::to_string(rig.attempted()) + " calls failed (" +
        std::to_string(rig.timeouts()) + " timeouts, " +
        std::to_string(rig.errors()) + " errors, " +
        std::to_string(rig.mismatches()) + " echo mismatches)");
  }
}

}  // namespace

void probeRpc(const RunOptions& opt, Result& res) {
  useDefaultTimerSlack();  // the rig's threads, like every workload's
  RpcRig rig(echoArgs(opt.seed));
  useFineTimerSlack();
  std::uint64_t nextSeq = 1;
  runFixed(rig, nextSeq, kWarmupSeconds, false);
  runFixed(rig, nextSeq, opt.seconds * kRpcProbeShare, true);
  std::string spans = opt.spansPath;
  if (!spans.empty()) {
    if (spans.size() > 4 && spans.compare(spans.size() - 4, 4, ".csv") == 0) {
      spans.resize(spans.size() - 4);
    }
    spans += "-rpc.csv";
  }
  rpcStageMetrics(rig.spans(), spans, res);
  tally(rig, res);
}

Result runRpcWorkload(const RunOptions& opt) {
  Result res;
  res.context["network"] = "udp";
  res.context["codec"] = "text";
  res.context["reactor_loops"] = "1";
  res.context["fixed_rate_calls_per_s"] = std::to_string(kRate);
  res.context["callers"] = "1";

  const Value args = echoArgs(opt.seed);

  std::vector<std::int64_t> setups;
  std::unique_ptr<RpcRig> rig;
  for (int k = 0; k < kSetupRepeats; ++k) {
    rig.reset();
    const std::int64_t t0 = nowNs();
    rig = std::make_unique<RpcRig>(args);
    setups.push_back(nowNs() - t0);
  }
  useFineTimerSlack();
  std::uint64_t nextSeq = 1;
  runFixed(*rig, nextSeq, kWarmupSeconds, false);
  res.context["threads"] = std::to_string(threadCount());

  if (!opt.trace) {
    SliceStats slices;
    for (int r = 0; r < kRounds; ++r) {
      slices.merge(
          runFixed(*rig, nextSeq, opt.seconds * kFixedShare / kRounds, false)
              .slices);
      runBackToBack(*rig, nextSeq, opt.seconds * (1 - kFixedShare) / kRounds,
                    slices);
    }
    Metrics& m = res.endToEnd;
    reportSetup(setups, m, res.context);
    slices.report(m, res.context);
  } else {
    const Counters c0 = rig->counters();
    FixedCalls plain =
        runFixed(*rig, nextSeq, opt.seconds * kTracedUntracedShare, false);
    const Counters c1 = rig->counters();
    FixedCalls traced =
        runFixed(*rig, nextSeq, opt.seconds * kTracedShare, true);

    Metrics& m = res.perLayer;
    const StageSummary stages = rpcStageMetrics(rig->spans(), opt.spansPath, res);
    // The core.* view of the same call: the request leg is the transit to
    // the server's inbox, the server's wait is the inbox wait, the bound
    // method is the handler.
    m.set("core.transit_us.p50", m.get("rpc.request_us.p50"), "us");
    m.set("core.transit_us.p99", m.get("rpc.request_us.p99"), "us");
    m.set("core.inbox_wait_us.p50", m.get("rpc.server_wait_us.p50"), "us");
    m.set("core.inbox_wait_us.p99", stages.serverWaitP99Us, "us");
    m.set("bench.traced_msgs", static_cast<double>(stages.traced), "count");
    m.set("core.handler_us.p50", m.get("rpc.method_us.p50"), "us");
    m.set("bench.gen_late_us.p50", usOf(percentileNs(traced.genLate, 0.5)), "us");
    m.set("bench.gen_late_us.p99", usOf(percentileNs(traced.genLate, 0.99)), "us");

    counterMetrics(c0, c1, m);
    const double plainP50 = percentileNs(plain.latency, 0.5);
    const double tracedP50 = percentileNs(traced.latency, 0.5);
    m.set("bench.trace_overhead_frac", ratio(tracedP50, plainP50) - 1, "1");
    m.set("latency_p99_us", usOf(percentileNs(plain.latency, 0.99)), "us");
    m.set("latency_p999_us", usOf(percentileNs(plain.latency, 0.999)), "us");
    m.set("latency_samples", static_cast<double>(plain.latency.size()), "count");

    DataMessage req("rpc.req");
    req.set("method", Value("echo"));
    req.set("args", args);
    req.set("id", Value(1));
    req.set("replyTo", inboxRefToValue(rig->serverRef()));
    serialFloors(req, kCodec, m);
    const auto frame = static_cast<std::size_t>(
        ratio(static_cast<double>(c1.tx.dataBytes - c0.tx.dataBytes),
              static_cast<double>(c1.tx.dataSent - c0.tx.dataSent)));
    m.set("core.inbox_hwm", static_cast<double>(rig->inboxHighWater()),
          "count");
    tally(*rig, res);
    rig.reset();
    m.set("net.oneway_us.p50",
          rawOnewayP50(NetKind::kUdp, LinkParams{}, opt.seed, frame,
                       kOnewaySamples),
          "us");
    // RpcClient::call sends internally, so its send cannot be timed apart.
    res.markNotApplicable(
        {"core.send_us.p50", "core.send_us.p99", "bench.complete_us.p50"}, "us");
    return res;
  }
  tally(*rig, res);
  return res;
}

}  // namespace perfbench
