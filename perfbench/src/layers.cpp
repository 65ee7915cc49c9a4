#include "layers.hpp"

#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using namespace dapple;

std::unique_ptr<Network> makeNetwork(NetKind kind, std::uint64_t seed,
                                     const LinkParams& link, SimNetwork** sim,
                                     UdpNetwork** udp) {
  *sim = nullptr;
  *udp = nullptr;
  if (kind == NetKind::kUdp) {
    auto net = std::make_unique<UdpNetwork>();
    *udp = net.get();
    return net;
  }
  auto net = std::make_unique<SimNetwork>(seed);
  net->setDefaultLink(link);
  *sim = net.get();
  return net;
}

void addStats(ReliableEndpoint::Stats& into, const ReliableEndpoint::Stats& s) {
  into.dataSent += s.dataSent;
  into.retransmits += s.retransmits;
  into.fastRetransmits += s.fastRetransmits;
  into.windowDeferred += s.windowDeferred;
  into.dataBytes += s.dataBytes;
  into.retransmitBytes += s.retransmitBytes;
  into.delivered += s.delivered;
  into.duplicates += s.duplicates;
  into.ackFramesSent += s.ackFramesSent;
  into.payloadCopies += s.payloadCopies;
  into.outOfOrderBuffered += s.outOfOrderBuffered;
  into.failures += s.failures;
}

void readNetwork(const SimNetwork* sim, const UdpNetwork* udp, Counters& c) {
  if (sim != nullptr) {
    const auto s = sim->stats();
    c.netSent = s.sent;
    c.netLost = s.dropped;
  } else if (udp != nullptr) {
    const auto s = udp->stats();
    c.netSent = s.sent;
    c.netLost = s.sendErrors;
  }
}

void counterMetrics(const Counters& a, const Counters& b, Metrics& m) {
  const double handled = static_cast<double>(b.handled - a.handled);
  const double secs = static_cast<double>(b.t - a.t) * 1e-9;
  const double dataSent = static_cast<double>(b.tx.dataSent - a.tx.dataSent);
  const double delivered = static_cast<double>(b.rx.delivered - a.rx.delivered);
  m.set("reactor.tasks_per_msg",
        ratio(static_cast<double>(b.reactor.tasksRun - a.reactor.tasksRun),
              handled),
        "1");
  m.set("reactor.timers_per_s",
        ratio(static_cast<double>(b.reactor.timersFired - a.reactor.timersFired),
              secs),
        "1/s");
  m.set("reliable.retransmit_ratio",
        ratio(static_cast<double>(b.tx.retransmitBytes - a.tx.retransmitBytes),
              static_cast<double>(b.tx.dataBytes - a.tx.dataBytes)),
        "1");
  m.set("reliable.fast_retransmit_ratio",
        ratio(static_cast<double>(b.tx.fastRetransmits - a.tx.fastRetransmits),
              dataSent),
        "1");
  m.set("reliable.window_deferred_ratio",
        ratio(static_cast<double>(b.tx.windowDeferred - a.tx.windowDeferred),
              dataSent),
        "1");
  m.set("reliable.out_of_order_ratio",
        ratio(static_cast<double>(b.rx.outOfOrderBuffered -
                                  a.rx.outOfOrderBuffered),
              delivered),
        "1");
  m.set("reliable.duplicate_ratio",
        ratio(static_cast<double>(b.rx.duplicates - a.rx.duplicates), delivered),
        "1");
  m.set("reliable.ack_frames_per_msg",
        ratio(static_cast<double>(b.rx.ackFramesSent - a.rx.ackFramesSent),
              delivered),
        "1");
  m.set("reliable.copies_per_msg",
        ratio(static_cast<double>(b.tx.payloadCopies - a.tx.payloadCopies),
              dataSent),
        "1");
  m.set("reliable.failures",
        static_cast<double>(b.tx.failures), "count");
  m.set("net.datagrams_per_msg",
        ratio(static_cast<double>(b.netSent - a.netSent), handled), "1");
  m.set("net.loss_frac",
        ratio(static_cast<double>(b.netLost - a.netLost),
              static_cast<double>(b.netSent - a.netSent)),
        "1");
}

namespace {

/// Median over batches of the mean time per call of `fn`.
template <typename Fn>
double medianCallNs(Fn&& fn) {
  constexpr int kBatches = 201;
  constexpr int kPerBatch = 16;
  for (int i = 0; i < kPerBatch * 4; ++i) fn();  // warm caches
  std::vector<std::int64_t> perCall;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = nowNs();
    for (int i = 0; i < kPerBatch; ++i) fn();
    perCall.push_back((nowNs() - t0) / kPerBatch);
  }
  return percentileNs(perCall, 0.5);
}

}  // namespace

void serialFloors(const Message& msg, WireCodec codec, Metrics& out) {
  const std::string wire = encodeMessage(msg, codec);
  const double enc = medianCallNs([&] { (void)encodeMessage(msg, codec); });
  const double dec = medianCallNs([&] { (void)decodeMessage(wire); });
  out.set("serial.encode_us.p50", usOf(enc), "us");
  out.set("serial.decode_us.p50", usOf(dec), "us");
  out.set("serial.frame_bytes", static_cast<double>(wire.size()), "bytes");
}

double rawOnewayP50(NetKind kind, const LinkParams& link, std::uint64_t seed,
                    std::size_t frameBytes, int samples) {
  SimNetwork* sim = nullptr;
  UdpNetwork* udp = nullptr;
  auto net = makeNetwork(kind, seed, link, &sim, &udp);
  auto a = net->openAt(1);
  auto b = net->openAt(2);
  std::mutex mutex;
  std::condition_variable cv;
  std::int64_t arrived = -1;  // guarded by mutex
  b->setHandler([&](const NodeAddress&, std::string_view) {
    const std::int64_t t = nowNs();
    std::scoped_lock lock(mutex);
    arrived = t;
    cv.notify_one();
  });
  const std::string payload(frameBytes, 'x');
  std::vector<std::int64_t> oneway;
  for (int i = 0; i < samples; ++i) {
    {
      std::scoped_lock lock(mutex);
      arrived = -1;
    }
    std::vector<Datagram> batch;
    batch.push_back(Datagram{b->address(), payload});
    const std::int64_t t0 = nowNs();
    a->sendBatch(std::move(batch));
    std::unique_lock lock(mutex);
    if (cv.wait_for(lock, std::chrono::milliseconds(200),
                    [&] { return arrived >= 0; })) {
      oneway.push_back(arrived - t0);
    }
  }
  a->close();
  b->close();
  return usOf(percentileNs(oneway, 0.5));
}

}  // namespace perfbench
