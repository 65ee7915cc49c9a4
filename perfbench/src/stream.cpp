// Streaming workloads: one outbox feeding one or more inboxes.
//
//   stream_udp  1 -> 1 over UdpNetwork loopback, binary codec, 64 B payload
//   fanout_sim  1 -> 8 over lossless zero-delay SimNetwork, text codec,
//               ~1.5 KiB structured payload (not in BENCHMARK.json; see
//               README.md)
//   lossy_sim   1 -> 1 over SimNetwork with 1 ms delay + 1 ms jitter + 1%
//               loss, binary codec, 64 B payload
//
// Every message carries (channel, seq, due, sum).  The receiver's
// `Inbox::onMessage` handler checks the channel, the payload checksum and
// per-channel FIFO/exactly-once order, and records the latency from the
// message's due time to the handler's start.

#include <condition_variable>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>

#include "dapple/core/dapplet.hpp"
#include "dapple/core/reactor.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/net/udp.hpp"
#include "dapple/serial/data_message.hpp"
#include "dapple/serial/message.hpp"
#include "dapple/util/error.hpp"
#include "layers.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace dapple;

namespace {

enum class Shape { kSmall, kStructured };

struct StreamSpec {
  std::string name;
  NetKind net;
  WireCodec codec;
  int fanout;
  unsigned loops;
  double rate;     ///< sends per second in the fixed-rate phase
  Shape shape;
  LinkParams link;  ///< SimNetwork default link (ignored over UDP)
  int window;      ///< sent-but-unhandled messages per receiver, window phase
  double drainSeconds;  ///< bound on waiting for stragglers after a phase
};

const std::vector<StreamSpec>& streamSpecs() {
  using std::chrono::microseconds;
  static const std::vector<StreamSpec> kSpecs = {
      {"stream_udp", NetKind::kUdp, WireCodec::kBinary, 1, 1, 20000,
       Shape::kSmall, LinkParams{}, 64, 5},
      {"fanout_sim", NetKind::kSim, WireCodec::kText, 8, 2, 2000,
       Shape::kStructured, LinkParams{}, 32, 5},
      {"lossy_sim", NetKind::kSim, WireCodec::kBinary, 1, 1, 5000,
       Shape::kSmall,
       LinkParams{microseconds(1000), microseconds(1000), 0.01, 0.0}, 64, 20},
  };
  return kSpecs;
}

const StreamSpec& specNamed(const std::string& name) {
  for (const auto& s : streamSpecs()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown stream workload " + name);
}

std::uint64_t valueHash(const Value& v, std::uint64_t h) {
  if (v.isInt()) return mix64(h, static_cast<std::uint64_t>(v.asInt()));
  if (v.isDouble()) {
    const double d = v.asDouble();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    return mix64(h ^ 0xd0, bits);
  }
  if (v.isString()) return fnv1a(v.asString(), mix64(h, 0x5));
  if (v.isList()) {
    for (const Value& e : v.asList()) h = valueHash(e, h);
    return mix64(h, v.asList().size());
  }
  if (v.isMap()) {
    for (const auto& [k, e] : v.asMap()) h = valueHash(e, fnv1a(k, h));
    return mix64(h, v.asMap().size());
  }
  if (v.isBool()) return mix64(h, v.asBool() ? 0xb1 : 0xb0);
  return mix64(h, 0x0);
}

/// Hash of the payload fields: everything but the per-send stamps.
std::uint64_t contentHash(const DataMessage& m) {
  std::uint64_t h = fnv1a(m.kind());
  for (const auto& [k, v] : m.body()) {
    if (k == "ch" || k == "seq" || k == "due" || k == "sum") continue;
    h = valueHash(v, fnv1a(k, h));
  }
  return h;
}

std::string randomText(std::mt19937_64& rng, std::size_t n) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::string s(n, ' ');
  for (char& c : s) c = kAlphabet[rng() % (sizeof kAlphabet - 1)];
  return s;
}

/// The message every send reuses; only ch/seq/due/sum change per send.
struct Template {
  DataMessage msg{"bench.stream"};
  Value* ch = nullptr;
  Value* seq = nullptr;
  Value* due = nullptr;
  Value* sum = nullptr;
  std::uint64_t content = 0;
  std::uint64_t channel = 0;

  void setChannel(std::uint64_t id) {
    channel = id;
    *ch = Value(static_cast<long long>(id));
  }

  Template(Shape shape, std::mt19937_64& rng) {
    if (shape == Shape::kSmall) {
      msg.set("data", Value(randomText(rng, 64)));
    } else {
      ValueMap ints;
      for (int i = 0; i < 48; ++i) {
        char key[8];
        std::snprintf(key, sizeof key, "k%02d", i);
        ints[key] = Value(static_cast<long long>(rng() % 2'000'000'000) -
                          1'000'000'000LL);
      }
      ValueList reals;
      std::uniform_real_distribution<double> u(-1e6, 1e6);
      for (int i = 0; i < 16; ++i) reals.emplace_back(u(rng));
      msg.set("m", Value(std::move(ints)));
      msg.set("l", Value(std::move(reals)));
      msg.set("s", Value(randomText(rng, 256)));
    }
    for (const char* k : {"ch", "seq", "due", "sum"}) msg.set(k, Value(0));
    ch = &msg.body()["ch"];
    seq = &msg.body()["seq"];
    due = &msg.body()["due"];
    sum = &msg.body()["sum"];
    content = contentHash(msg);
  }

  void stamp(std::uint64_t s, std::int64_t dueNs) {
    *seq = Value(static_cast<long long>(s));
    *due = Value(static_cast<long long>(dueNs));
    *sum = Value(static_cast<long long>(messageSum(content, channel, s)));
  }
};

/// A [lo, lo+n) range of sequence numbers whose samples are recorded.
struct SeqWindow {
  std::atomic<std::uint64_t> lo{0};
  std::atomic<std::uint64_t> hi{0};
  bool contains(std::uint64_t s, std::size_t* idx) const {
    const std::uint64_t l = lo.load(std::memory_order_acquire);
    if (s < l || s >= hi.load(std::memory_order_acquire)) return false;
    *idx = static_cast<std::size_t>(s - l);
    return true;
  }
  void open(std::uint64_t l, std::uint64_t n) {
    hi.store(0, std::memory_order_release);
    lo.store(l, std::memory_order_release);
    hi.store(l + n, std::memory_order_release);
  }
  void close() { hi.store(0, std::memory_order_release); }
};

struct Receiver {
  std::unique_ptr<Dapplet> dapplet;
  Inbox* inbox = nullptr;
  std::uint64_t channel = 0;
  // Strand-only state (the inbox's handler never runs concurrently).
  std::uint64_t expect = 0;
  // Shared with the generator thread.
  std::atomic<std::uint64_t> handled{0};
  std::atomic<std::uint64_t> good{0};
  std::atomic<std::uint64_t> late{0};   ///< seq below the next expected
  std::atomic<std::uint64_t> gaps{0};   ///< seq above the next expected
  std::atomic<std::uint64_t> corrupt{0};
  std::atomic<std::int64_t> firstHandledNs{0};
  // Samples, indexed by seq - window.lo.
  StampArray latency;  ///< due -> handler start
  StampArray tap;      ///< delivery-tap stamp
  StampArray hStart;
  StampArray hEnd;
};

/// One fully wired outbox -> inboxes stack.  Construction is the measured
/// set-up: it returns once the first message was handled on every channel.
class StreamRig {
 public:
  StreamRig(const StreamSpec& spec, std::uint64_t seed, Template& tmpl,
            std::int64_t busyNs)
      : spec_(spec), tmpl_(tmpl), busyNs_(busyNs) {
    net_ = makeNetwork(spec.net, seed, spec.link, &sim_, &udp_);
    Reactor::Options ro;
    ro.threads = spec.loops;
    reactor_ = std::make_unique<Reactor>(ro);

    DappletConfig cfg;
    cfg.wireCodec = spec.codec;
    cfg.runtime.reactor = reactor_.get();
    cfg.host = 1;
    sender_ = std::make_unique<Dapplet>(*net_, "sender", cfg);
    out_ = &sender_->createOutbox();
    tmpl_.setChannel(out_->id());
    for (int i = 0; i < spec.fanout; ++i) {
      auto r = std::make_unique<Receiver>();
      cfg.host = static_cast<std::uint32_t>(2 + i);
      r->dapplet = std::make_unique<Dapplet>(*net_, "r" + std::to_string(i), cfg);
      r->inbox = &r->dapplet->createInbox("in");
      r->channel = out_->id();
      out_->add(r->inbox->ref());
      Receiver* raw = r.get();
      r->inbox->onMessage([this, raw](Delivery d) { handle(*raw, d); });
      rx_.push_back(std::move(r));
    }
    send(0, nowNs());
    if (!waitHandled(1, nowNs() + 10'000'000'000LL)) {
      throw std::runtime_error("set-up: first message was not handled in 10 s");
    }
  }

  ~StreamRig() {
    for (auto& r : rx_) r->inbox->onMessage(nullptr);
    for (auto& r : rx_) r->dapplet.reset();
    sender_.reset();
    reactor_->stop();
  }

  StreamRig(const StreamRig&) = delete;
  StreamRig& operator=(const StreamRig&) = delete;

  /// Handler time of the first message on the last channel to see it.
  std::int64_t firstHandledNs() const {
    std::int64_t t = 0;
    for (const auto& r : rx_) t = std::max(t, r->firstHandledNs.load());
    return t;
  }

  int fanout() const { return spec_.fanout; }
  std::uint64_t sent() const { return sent_; }
  std::uint64_t sendErrors() const { return sendErrors_; }

  /// Generator thread only.
  void send(std::uint64_t seq, std::int64_t due) {
    tmpl_.stamp(seq, due);
    ++sent_;
    try {
      out_->send(tmpl_.msg);
    } catch (const DeliveryError&) {
      ++sendErrors_;  // also missing at the receivers
    }
  }

  std::uint64_t handledTotal() const {
    std::uint64_t n = 0;
    for (const auto& r : rx_) n += r->handled.load(std::memory_order_acquire);
    return n;
  }

  /// Blocks until `total` deliveries were handled across all receivers or
  /// `deadline` passes.  Handlers wake the waiter only once the target is
  /// reached, so a parked generator costs no context switch per message.
  bool waitForTotal(std::uint64_t total, std::int64_t deadline) {
    std::unique_lock lock(waitMutex_);
    waitTarget_.store(total);
    while (handledTotal() < total && nowNs() < deadline) {
      waitCv_.wait_for(lock, std::chrono::milliseconds(1));
    }
    waitTarget_.store(kNoTarget);
    return handledTotal() >= total;
  }

  /// Waits until every receiver handled `perReceiver` messages or
  /// `deadline` passes.
  bool waitHandled(std::uint64_t perReceiver, std::int64_t deadline) {
    waitForTotal(perReceiver * rx_.size(), deadline);
    for (const auto& r : rx_) {
      if (r->handled.load(std::memory_order_acquire) < perReceiver) return false;
    }
    return true;
  }

  /// Waits (bounded) for every message sent so far.  A drain that times
  /// out marks the rig stalled: the run stops measuring, and the missing
  /// messages count as failed.
  bool drain() {
    if (!waitHandled(sent_, nowNs() + static_cast<std::int64_t>(
                                          spec_.drainSeconds * 1e9))) {
      stalled_ = true;
    }
    return !stalled_;
  }
  bool stalled() const { return stalled_; }

  /// Starts recording latencies for seqs [lo, lo+n).
  void recordLatency(std::uint64_t lo, std::uint64_t n) {
    for (auto& r : rx_) r->latency.reset(n);
    latWindow_.open(lo, n);
  }
  void stopLatency() { latWindow_.close(); }

  /// Starts the traced phase: spans for seqs [lo, lo+n) and a delivery tap.
  void startTrace(std::uint64_t lo, std::uint64_t n) {
    for (auto& r : rx_) {
      r->tap.reset(n);
      r->hStart.reset(n);
      r->hEnd.reset(n);
      Receiver* raw = r.get();
      r->dapplet->setDeliveryTap([this, raw](Inbox&, Delivery& d) {
        const std::int64_t t = nowNs();
        const auto* m = dynamic_cast<const DataMessage*>(d.message.get());
        if (m == nullptr) return false;
        const auto it = m->body().find("seq");
        if (it == m->body().end() || !it->second.isInt()) return false;
        std::size_t i = 0;
        if (traceWindow_.contains(static_cast<std::uint64_t>(it->second.asInt()),
                                  &i)) {
          raw->tap.set(i, t);
        }
        return false;  // observe only, never consume
      });
    }
    traceWindow_.open(lo, n);
  }
  void stopTrace() {
    traceWindow_.close();
    for (auto& r : rx_) r->dapplet->setDeliveryTap(nullptr);
  }

  Counters counters() const {
    Counters c;
    c.t = nowNs();
    c.handled = handledTotal();
    c.reactor = reactor_->stats();
    c.tx = sender_->transport().stats();
    for (const auto& r : rx_) addStats(c.rx, r->dapplet->transport().stats());
    readNetwork(sim_, udp_, c);
    return c;
  }

  std::size_t inboxHighWater() const {
    std::size_t hwm = 0;
    for (const auto& r : rx_) hwm = std::max(hwm, r->inbox->queueHighWater());
    return hwm;
  }

  const std::vector<std::unique_ptr<Receiver>>& receivers() const {
    return rx_;
  }

 private:
  void handle(Receiver& r, Delivery& d) {
    const std::int64_t t = nowNs();
    const auto* m = dynamic_cast<const DataMessage*>(d.message.get());
    std::int64_t seq = -1;
    std::int64_t due = 0;
    bool intact = false;
    if (m != nullptr) {
      const ValueMap& b = m->body();
      const auto field = [&](const char* k) -> std::int64_t {
        const auto it = b.find(k);
        return it == b.end() || !it->second.isInt() ? -1 : it->second.asInt();
      };
      seq = field("seq");
      due = field("due");
      const std::int64_t ch = field("ch");
      intact = seq >= 0 && ch >= 0 &&
               static_cast<std::uint64_t>(ch) == r.channel &&
               d.srcOutbox == r.channel &&
               field("sum") == messageSum(contentHash(*m), r.channel,
                                          static_cast<std::uint64_t>(seq));
    }
    if (!intact) {
      r.corrupt.fetch_add(1, std::memory_order_relaxed);
      // In its place but damaged: the next message is not a FIFO gap.
      if (seq >= 0 && static_cast<std::uint64_t>(seq) == r.expect) ++r.expect;
    } else {
      const auto s = static_cast<std::uint64_t>(seq);
      if (s == r.expect) {
        ++r.expect;
        r.good.fetch_add(1, std::memory_order_relaxed);
      } else if (s > r.expect) {
        r.gaps.fetch_add(1, std::memory_order_relaxed);
        r.expect = s + 1;
      } else {
        r.late.fetch_add(1, std::memory_order_relaxed);
      }
      if (s == 0) r.firstHandledNs.store(t);
      std::size_t i = 0;
      if (latWindow_.contains(s, &i)) r.latency.set(i, t - due);
      const bool traced = traceWindow_.contains(s, &i);
      if (busyNs_ > 0) busyWaitNs(busyNs_);
      if (traced) {
        r.hStart.set(i, t);
        r.hEnd.set(i, nowNs());
      }
    }
    r.handled.fetch_add(1, std::memory_order_acq_rel);
    const std::uint64_t target = waitTarget_.load();
    if (target != kNoTarget && handledTotal() >= target) {
      std::scoped_lock lock(waitMutex_);
      waitCv_.notify_one();
    }
  }

  static constexpr std::uint64_t kNoTarget = ~std::uint64_t{0};

  const StreamSpec& spec_;
  Template& tmpl_;
  const std::int64_t busyNs_;
  SeqWindow latWindow_;
  SeqWindow traceWindow_;
  std::mutex waitMutex_;
  std::condition_variable waitCv_;
  std::atomic<std::uint64_t> waitTarget_{kNoTarget};
  // Teardown order matters: receivers/sender (dapplets) go first, then the
  // reactor they schedule on, then the network their endpoints live on.
  std::unique_ptr<Network> net_;
  SimNetwork* sim_ = nullptr;
  UdpNetwork* udp_ = nullptr;
  std::unique_ptr<Reactor> reactor_;
  std::unique_ptr<Dapplet> sender_;
  Outbox* out_ = nullptr;
  std::vector<std::unique_ptr<Receiver>> rx_;
  std::uint64_t sent_ = 0;
  std::uint64_t sendErrors_ = 0;
  bool stalled_ = false;
};

struct FixedPhase {
  std::vector<std::int64_t> due;
  std::vector<std::int64_t> sendStart;
  std::vector<std::int64_t> sendEnd;
  std::vector<std::int64_t> latency;  ///< all receivers' samples
  SliceStats slices;
  std::uint64_t firstSeq = 0;  ///< seq of index 0
};

/// Open loop: message i is due at t0 + i/rate; the generator sleeps until
/// then, stamps the due time into the message and sends.
FixedPhase runFixed(StreamRig& rig, std::uint64_t& nextSeq, double rate,
                    double seconds, bool traced) {
  FixedPhase p;
  if (rig.stalled()) return p;
  const auto n = static_cast<std::uint64_t>(rate * seconds);
  const auto perSlice =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(rate * kSliceSeconds));
  const std::uint64_t lo = nextSeq;
  p.firstSeq = lo;
  rig.recordLatency(lo, n);
  if (traced) rig.startTrace(lo, n);
  p.due.resize(n);
  p.sendStart.resize(n);
  p.sendEnd.resize(n);
  std::vector<double> cpuMarks{cpuSeconds()};
  std::vector<std::uint64_t> handledMarks{rig.handledTotal()};
  const std::int64_t t0 = nowNs() + 1'000'000;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (i > 0 && i % perSlice == 0) {
      cpuMarks.push_back(cpuSeconds());
      handledMarks.push_back(rig.handledTotal());
    }
    const std::int64_t due =
        t0 + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate);
    if (nowNs() < due) sleepUntilNs(due);
    const std::int64_t s = nowNs();
    rig.send(lo + i, due);
    p.due[i] = due;
    p.sendStart[i] = s;
    p.sendEnd[i] = nowNs();
  }
  nextSeq = lo + n;
  rig.drain();
  cpuMarks.push_back(cpuSeconds());
  handledMarks.push_back(rig.handledTotal());
  rig.stopLatency();
  if (traced) rig.stopTrace();

  for (std::size_t k = 0; k + 1 < cpuMarks.size(); ++k) {
    std::vector<std::int64_t> slice;
    const std::uint64_t end = std::min(n, (k + 1) * perSlice);
    for (const auto& r : rig.receivers()) {
      for (std::uint64_t i = k * perSlice; i < end; ++i) {
        if (r->latency[i] >= 0) slice.push_back(r->latency[i]);
      }
    }
    p.latency.insert(p.latency.end(), slice.begin(), slice.end());
    p.slices.add(slice, cpuMarks[k + 1] - cpuMarks[k],
                 handledMarks[k + 1] - handledMarks[k]);
  }
  return p;
}

/// Closed loop: at most `window` sent-but-unhandled messages per receiver;
/// once the window is full the generator waits until half of it drained.
/// Adds each time slice's messages handled per second to `slices`.
void runWindow(StreamRig& rig, std::uint64_t& nextSeq, int window,
               double seconds, SliceStats& slices) {
  if (rig.stalled()) return;
  const auto fan = static_cast<std::uint64_t>(rig.fanout());
  const std::uint64_t limit = static_cast<std::uint64_t>(window) * fan;
  const auto sliceNs = static_cast<std::int64_t>(kSliceSeconds * 1e9);
  std::int64_t t = nowNs();
  const std::int64_t end = t + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t markT = t;
  std::uint64_t markH = rig.handledTotal();
  while (t < end) {
    if (rig.sent() * fan - rig.handledTotal() >= limit) {
      rig.waitForTotal(rig.sent() * fan - limit / 2, end + 10'000'000'000LL);
    }
    rig.send(nextSeq++, nowNs());
    t = nowNs();
    if (t - markT >= sliceNs) {
      const std::uint64_t h = rig.handledTotal();
      slices.throughput.push_back(static_cast<double>(h - markH) /
                                  (static_cast<double>(t - markT) * 1e-9));
      markT = t;
      markH = h;
    }
  }
  rig.drain();
}

/// Span checks and per-layer span metrics of a traced fixed-rate phase.
void analyzeTrace(const StreamRig& rig, const FixedPhase& p, Result& res,
                  std::int64_t origin, const std::string& spansPath) {
  std::vector<std::int64_t> send, transit, wait, handler, genLate, complete;
  std::uint64_t broken = 0;
  std::ofstream spans;
  if (!spansPath.empty()) {
    spans.open(spansPath);
    spans << "receiver,seq,due,send_start,send_end,tap,handler_start,"
             "handler_end\n";
  }
  for (std::size_t i = 0; i < p.due.size(); ++i) {
    send.push_back(p.sendEnd[i] - p.sendStart[i]);
    genLate.push_back(p.sendStart[i] - p.due[i]);
  }
  const auto& rxs = rig.receivers();
  for (std::size_t r = 0; r < rxs.size(); ++r) {
    const Receiver& rx = *rxs[r];
    for (std::size_t i = 0; i < p.due.size(); ++i) {
      const std::int64_t gl = p.sendStart[i] - p.due[i];
      const std::int64_t tr = rx.tap[i] - p.sendStart[i];
      const std::int64_t iw = rx.hStart[i] - rx.tap[i];
      // The handler measured latency from the due stamp the message
      // itself carried; the stages come from the generator's and the
      // tap's stamps.  They must meet exactly, with no stage negative.
      if (rx.tap[i] < 0 || rx.hStart[i] < 0 || rx.latency[i] < 0 || gl < 0 ||
          tr < 0 || iw < 0 || gl + tr + iw != rx.latency[i]) {
        ++broken;
      } else {
        transit.push_back(tr);
        wait.push_back(iw);
        handler.push_back(rx.hEnd[i] - rx.hStart[i]);
        complete.push_back(rx.hEnd[i] - p.due[i]);
      }
      if (spans.is_open()) {
        auto rel = [&](std::int64_t v) { return v < 0 ? -1 : v - origin; };
        spans << r << ',' << p.firstSeq + i << ',' << rel(p.due[i]) << ','
              << rel(p.sendStart[i]) << ',' << rel(p.sendEnd[i]) << ','
              << rel(rx.tap[i]) << ',' << rel(rx.hStart[i]) << ','
              << rel(rx.hEnd[i]) << '\n';
      }
    }
  }
  if (broken > 0) {
    res.problems.push_back("trace: " + std::to_string(broken) +
                           " traced deliveries whose stages do not sum to "
                           "their latency");
  }
  Metrics& m = res.perLayer;
  m.set("core.send_us.p50", usOf(percentileNs(send, 0.5)), "us");
  m.set("core.send_us.p99", usOf(percentileNs(send, 0.99)), "us");
  m.set("core.transit_us.p50", usOf(percentileNs(transit, 0.5)), "us");
  m.set("core.transit_us.p99", usOf(percentileNs(transit, 0.99)), "us");
  m.set("core.inbox_wait_us.p50", usOf(percentileNs(wait, 0.5)), "us");
  m.set("core.inbox_wait_us.p99", usOf(percentileNs(wait, 0.99)), "us");
  m.set("core.handler_us.p50", usOf(percentileNs(handler, 0.5)), "us");
  m.set("bench.complete_us.p50", usOf(percentileNs(complete, 0.5)), "us");
  m.set("bench.gen_late_us.p50", usOf(percentileNs(genLate, 0.5)), "us");
  m.set("bench.gen_late_us.p99", usOf(percentileNs(genLate, 0.99)), "us");
  m.set("bench.traced_msgs", static_cast<double>(transit.size()), "count");
}

/// Integrity verdict over every message sent in the run.
void tally(const StreamRig& rig, Result& res) {
  const std::uint64_t sent = rig.sent();
  res.attempted = sent * static_cast<std::uint64_t>(rig.fanout());
  std::uint64_t failed = 0;
  const auto& rxs = rig.receivers();
  for (std::size_t i = 0; i < rxs.size(); ++i) {
    const Receiver& r = *rxs[i];
    const std::uint64_t good = r.good.load();
    const std::uint64_t late = r.late.load();
    const std::uint64_t gaps = r.gaps.load();
    const std::uint64_t corrupt = r.corrupt.load();
    failed += (sent - std::min(sent, good)) + late;
    const std::string who = "receiver " + std::to_string(i) + ": ";
    if (good < sent) {
      res.problems.push_back(who + std::to_string(sent - good) + " of " +
                             std::to_string(sent) +
                             " messages not delivered intact and in order");
    }
    if (gaps > 0) res.problems.push_back(who + std::to_string(gaps) + " FIFO gaps");
    if (late > 0) {
      res.problems.push_back(who + std::to_string(late) +
                             " duplicate or reordered deliveries");
    }
    if (corrupt > 0) {
      res.problems.push_back(who + std::to_string(corrupt) +
                             " payload/channel checksum mismatches");
    }
  }
  if (rig.sendErrors() > 0) {
    res.problems.push_back(std::to_string(rig.sendErrors()) +
                           " sends threw DeliveryError");
  }
  res.failed = std::min(failed, res.attempted);
}

}  // namespace

bool isStreamWorkload(const std::string& name) {
  for (const auto& s : streamSpecs()) {
    if (s.name == name) return true;
  }
  return false;
}

Result runStreamWorkload(const std::string& name, const RunOptions& opt) {
  const StreamSpec& spec = specNamed(name);
  const double rate = opt.rateOverride > 0 ? opt.rateOverride : spec.rate;
  Result res;
  res.context["network"] = spec.net == NetKind::kUdp ? "udp" : "sim";
  res.context["codec"] = spec.codec == WireCodec::kBinary ? "binary" : "text";
  res.context["fanout"] = std::to_string(spec.fanout);
  res.context["reactor_loops"] = std::to_string(spec.loops);
  res.context["fixed_rate_sends_per_s"] = std::to_string(rate);
  res.context["window_per_receiver"] = std::to_string(spec.window);

  std::mt19937_64 rng(opt.seed);
  Template tmpl(spec.shape, rng);

  // Set-up, several times: the median is the reported set-up time.  Each
  // simulated network gets its own seed, so the link's first delay draw
  // differs between set-ups instead of repeating in all of them.
  std::vector<std::int64_t> setups;
  std::unique_ptr<StreamRig> rig;
  for (int k = 0; k < kSetupRepeats; ++k) {
    rig.reset();
    const std::int64_t t0 = nowNs();
    rig = std::make_unique<StreamRig>(spec, opt.seed * kSetupRepeats + k, tmpl,
                                      opt.handlerBusyNs);
    setups.push_back(rig->firstHandledNs() - t0);
  }
  useFineTimerSlack();
  std::uint64_t nextSeq = 1;
  // Warm-up at the fixed rate: lazy allocations, RTT estimates, windows.
  runFixed(*rig, nextSeq, rate, kWarmupSeconds, false);
  res.context["threads"] = std::to_string(threadCount());

  const std::int64_t origin = nowNs();
  if (!opt.trace) {
    const Counters c0 = rig->counters();
    SliceStats slices;
    for (int r = 0; r < kRounds; ++r) {
      slices.merge(runFixed(*rig, nextSeq, rate,
                            opt.seconds * kFixedShare / kRounds, false)
                       .slices);
      runWindow(*rig, nextSeq, spec.window,
                opt.seconds * (1 - kFixedShare) / kRounds, slices);
    }
    const Counters c1 = rig->counters();
    // Lossless workloads should never retransmit; when one does, a slow
    // run shows it here.
    res.context["retransmits"] = std::to_string(c1.tx.retransmits - c0.tx.retransmits);
    res.context["window_deferred"] =
        std::to_string(c1.tx.windowDeferred - c0.tx.windowDeferred);
    Metrics& m = res.endToEnd;
    reportSetup(setups, m, res.context);
    slices.report(m, res.context);
  } else {
    // Untraced fixed-rate phase: counter deltas, the tail and the baseline
    // for the tracing overhead.
    const Counters c0 = rig->counters();
    FixedPhase plain = runFixed(*rig, nextSeq, rate,
                                opt.seconds * kTracedUntracedShare, false);
    const Counters c1 = rig->counters();
    FixedPhase traced = runFixed(*rig, nextSeq, rate,
                                 opt.seconds * kTracedShare, true);
    Metrics& m = res.perLayer;
    analyzeTrace(*rig, traced, res, origin, opt.spansPath);
    counterMetrics(c0, c1, m);
    m.set("core.inbox_hwm", static_cast<double>(rig->inboxHighWater()), "count");
    const double plainP50 = percentileNs(plain.latency, 0.5);
    const double tracedP50 = percentileNs(traced.latency, 0.5);
    m.set("bench.trace_overhead_frac", ratio(tracedP50, plainP50) - 1, "1");
    m.set("latency_p99_us", usOf(percentileNs(plain.latency, 0.99)), "us");
    m.set("latency_p999_us", usOf(percentileNs(plain.latency, 0.999)), "us");
    m.set("latency_samples", static_cast<double>(plain.latency.size()), "count");

    serialFloors(tmpl.msg, spec.codec, m);
    tally(*rig, res);
    rig.reset();
    // The raw one-way needs a loss-free link: a lost probe has no retry.
    if (spec.link.lossProb == 0) {
      const auto frame = static_cast<std::size_t>(
          ratio(static_cast<double>(c1.tx.dataBytes - c0.tx.dataBytes),
                static_cast<double>(c1.tx.dataSent - c0.tx.dataSent)));
      m.set("net.oneway_us.p50",
            rawOnewayP50(spec.net, spec.link, opt.seed, frame, kOnewaySamples),
            "us");
    } else {
      res.markNotApplicable({"net.oneway_us.p50"}, "us");
    }
    if (spec.net == NetKind::kUdp) {
      probeRpc(opt, res);
    } else {
      res.markNotApplicable({"rpc.request_us.p50", "rpc.request_us.p99",
                             "rpc.server_wait_us.p50", "rpc.method_us.p50",
                             "rpc.reply_us.p50", "rpc.wake_us.p50",
                             "rpc.wake_us.p99"},
                            "us");
    }
    return res;
  }
  tally(*rig, res);
  return res;
}

}  // namespace perfbench
