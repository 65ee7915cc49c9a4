#include "dapple/reliable/reliable.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dapple/serial/wire.hpp"
#include "dapple/util/error.hpp"
#include "dapple/util/log.hpp"

namespace dapple {

namespace {

constexpr const char* kLog = "reliable";
constexpr std::uint64_t kKindData = 0;
constexpr std::uint64_t kKindAck = 1;
constexpr std::uint64_t kKindBundle = 2;
constexpr std::size_t kMaxSack = 32;
/// Largest bundle datagram: QUIC's safe datagram size (RFC 9000 §14.1),
/// which fits every path MTU an internet peer can be expected to carry.
constexpr std::size_t kMaxBundle = 1200;

std::int64_t toMicros(Duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

/// Key of a stream as seen from this endpoint: peer node + stream id.
struct StreamKey {
  NodeAddress peer;
  std::uint64_t streamId;
  friend bool operator==(const StreamKey&, const StreamKey&) = default;
};

struct StreamKeyHash {
  std::size_t operator()(const StreamKey& k) const noexcept {
    return std::hash<NodeAddress>{}(k.peer) ^
           std::hash<std::uint64_t>{}(k.streamId * 0x9e3779b97f4a7c15ull);
  }
};

/// One receive stream's acknowledgement: the receiver's nextExpected
/// (cumulative) plus up to kMaxSack out-of-order sequence numbers.  ACK
/// datagrams and DATA piggyback slots carry a *list* of blocks so a single
/// datagram acknowledges every stream owed to that peer at once.
struct AckBlock {
  std::uint64_t streamId = 0;
  std::uint64_t epoch = 0;
  std::uint64_t cumAck = 0;
  std::vector<std::uint64_t> sacks;
};

void writeAckBlocks(WireWriter& w, const std::vector<AckBlock>& blocks) {
  w.beginList(blocks.size());
  for (const AckBlock& b : blocks) {
    w.writeU64(b.streamId);
    w.writeU64(b.epoch);
    w.writeU64(b.cumAck);
    w.beginList(b.sacks.size());
    for (std::uint64_t s : b.sacks) w.writeU64(s);
  }
}

/// List counts come off the wire, so they only cap a reservation: a count
/// larger than the frame runs the reader off its end (SerializationError)
/// instead of asking the allocator for it.
std::vector<AckBlock> readAckBlocks(WireReader& r) {
  const std::size_t n = r.beginList();
  std::vector<AckBlock> blocks;
  blocks.reserve(std::min(n, kMaxSack));
  for (std::size_t i = 0; i < n; ++i) {
    AckBlock b;
    b.streamId = r.readU64();
    b.epoch = r.readU64();
    b.cumAck = r.readU64();
    const std::size_t k = r.beginList();
    b.sacks.reserve(std::min(k, kMaxSack));
    for (std::size_t j = 0; j < k; ++j) b.sacks.push_back(r.readU64());
    blocks.push_back(std::move(b));
  }
  return blocks;
}

std::string encodeAck(WireCodec codec, const std::vector<AckBlock>& blocks) {
  WireWriter w(codec);
  w.writeU64(kKindAck);
  writeAckBlocks(w, blocks);
  return std::move(w).str();
}

}  // namespace

ReliableConfig ReliableConfig::normalized(
    std::vector<std::string>* notes) const {
  ReliableConfig out = *this;
  const auto note = [&](std::string s) {
    if (notes != nullptr) notes->push_back(std::move(s));
  };
  if (out.tickInterval <= Duration::zero()) {
    out.tickInterval = milliseconds(1);
    note("tickInterval <= 0; raised to 1ms");
  }
  if (out.ackEvery == 0) {
    out.ackEvery = 1;
    note("ackEvery == 0; raised to 1");
  }
  if (out.initialCwnd == 0) {
    out.initialCwnd = 1;
    note("initialCwnd == 0; raised to 1");
  }
  if (out.maxCwnd < out.initialCwnd) {
    out.maxCwnd = out.initialCwnd;
    note("maxCwnd below initialCwnd; raised to initialCwnd");
  }
  if (out.ackDelay < Duration::zero()) {
    out.ackDelay = Duration::zero();
    note("ackDelay < 0; raised to 0");
  }
  // The RTO floor must clear the clock granularity, or a single tick of
  // scheduling slop reads as a loss.
  if (out.minRto < 2 * out.tickInterval) {
    out.minRto = 2 * out.tickInterval;
    note("minRto below 2*tickInterval; raised to " +
         std::to_string(toMicros(out.minRto)) + "us");
  }
  // The spurious-retransmit invariant: the receiver may defer an ack for up
  // to ackDelay + tickInterval, so every RTO the sender can ever use (the
  // initial rto and the adaptive floor minRto) must stay comfortably above
  // that deferral.  Misconfiguring this used to cause silent retransmit
  // storms; now the ackDelay is clamped and the clamp is traced.
  if (out.rto < out.minRto) {
    out.rto = out.minRto;
    note("initial rto below minRto; raised to " +
         std::to_string(toMicros(out.rto)) + "us");
  }
  if (out.maxRto < out.rto) {
    out.maxRto = out.rto;
    note("maxRto below rto; raised to " + std::to_string(toMicros(out.maxRto)) +
         "us");
  }
  if (out.ackDelay + out.tickInterval > out.minRto / 2) {
    const Duration clamped =
        std::max(Duration::zero(), out.minRto / 2 - out.tickInterval);
    note("ackDelay " + std::to_string(toMicros(out.ackDelay)) +
         "us + tickInterval " + std::to_string(toMicros(out.tickInterval)) +
         "us exceeds minRto/2; ackDelay clamped to " +
         std::to_string(toMicros(clamped)) + "us");
    out.ackDelay = clamped;
  }
  return out;
}

struct ReliableEndpoint::Impl {
  Impl(std::shared_ptr<Endpoint> rawEp, ReliableConfig config,
       obs::MetricsRegistry* metrics, ClockSource* clock)
      : raw(std::move(rawEp)),
        cfg(config.normalized(&clampNotes)),
        clk(clock != nullptr ? clock : &ClockSource::system()) {
    if (metrics != nullptr) {
      // Resolve once; recording below is wait-free.
      mDatagramsIn = &metrics->counter("net.datagrams_in");
      mDatagramsOut = &metrics->counter("net.datagrams_out");
      mBatchSize = &metrics->histogram("net.batch_size");
      mAckLatencyUs = &metrics->histogram("reliable.ack_latency_us");
      mReorderDepth = &metrics->histogram("reliable.reorder_depth");
      mSrttUs = &metrics->histogram("reliable.srtt_us");
      mCwnd = &metrics->gauge("reliable.cwnd");
      mFastRetransmits = &metrics->counter("reliable.fast_retransmits");
      trace = &metrics->trace();
    }
    for (const std::string& n : clampNotes) {
      DAPPLE_LOG(kDebug, kLog) << "config clamped: " << n;
      if (trace != nullptr) trace->emit("reliable", "config.clamp", n);
    }
  }

  std::shared_ptr<Endpoint> raw;
  std::vector<std::string> clampNotes;  ///< normalized() adjustments (traced)
  const ReliableConfig cfg;
  ClockSource* const clk;  ///< all timestamps, timer ticks and flush waits

  // Optional instrumentation (null when no registry was supplied).
  obs::Counter* mDatagramsIn = nullptr;
  obs::Counter* mDatagramsOut = nullptr;
  obs::Histogram* mBatchSize = nullptr;     ///< datagrams per sendBatch submit
  obs::Histogram* mAckLatencyUs = nullptr;  ///< admission -> cum/selective ack
  obs::Histogram* mReorderDepth = nullptr;  ///< buffered frames per gap event
  obs::Histogram* mSrttUs = nullptr;        ///< smoothed RTT after each sample
  obs::Gauge* mCwnd = nullptr;              ///< last updated stream's window
  obs::Counter* mFastRetransmits = nullptr;
  obs::TraceRing* trace = nullptr;

  mutable std::mutex mutex;
  std::condition_variable flushed;

  /// Timer pacing: the retransmission scan parks here between ticks so a
  /// virtual clock can advance straight to the next tick instead of the
  /// thread wall-sleeping (`timerMutex` only guards the parked wait).
  std::mutex timerMutex;
  std::condition_variable timerWake;

  DeliverFn deliver;
  FailFn onFailure;

  /// Per-peer Jacobson RTT estimator (shared by every stream to that peer —
  /// the path is what has an RTT, not the stream).
  struct PeerRtt {
    bool hasSample = false;
    Duration srtt{};
    Duration rttvar{};
    /// Karn's backoff retention: while no clean sample exists, new frames
    /// inherit the largest per-frame backoff reached so far.  Without this
    /// a path whose true RTT exceeds cfg.rto never collects a sample (every
    /// frame retransmits first, and retransmitted frames never sample), so
    /// the estimator could never bootstrap out of spurious retransmits.
    Duration noSampleRto{};
    /// Smallest clean sample: a resend acked sooner than this after it
    /// went out was answered by the original transmission.
    Duration minRtt{};
  };
  std::unordered_map<NodeAddress, PeerRtt> peerRtt;

  /// Sender-side state per outgoing stream.
  struct SendStream {
    std::uint64_t epoch = 0;  ///< bumped by resetStream(); resyncs receiver
    std::uint64_t nextSeq = 0;
    bool failed = false;
    std::string failReason;
    // ---- congestion control (slow start + AIMD, in datagrams) ----------
    double cwnd = 0;          ///< seeded from cfg.initialCwnd on creation
    double ssthresh = 0;      ///< slow start below, additive increase above
    std::uint64_t recoverSeq = 0;  ///< no second window cut until acks pass
    /// RACK (RFC 8985): the latest-sent frame known delivered.  A pending
    /// frame sent before it is lost once rtt + reorder window has passed
    /// since the pending frame's own last send.
    struct Rack {
      TimePoint xmit{};  ///< its last send; the epoch means no ack yet
      std::uint64_t seq = 0;  ///< its sequence number, breaks xmit ties
      Duration rtt{};
      /// Reorder window in steps of minRtt/4, capped at srtt.  It widens to
      /// cover each overtaken frame acked without a resend, and by one step
      /// per proven spurious resend.
      std::uint32_t reoWndSteps = 1;
    } rack;
    /// Eifel undo (RFC 4015): the window before the last cut, restored if
    /// every resend since the cut proves spurious.
    struct Undo {
      bool armed = false;
      TimePoint since{};  ///< the cut; resends from here on belong to it
      double cwnd = 0;
      double ssthresh = 0;
      std::uint32_t resends = 0;  ///< not yet proven spurious
    } undo;
    struct Pending {
      /// Per-destination head + refcounted shared body.  Retransmit state
      /// holds a reference, not a frame copy; the wire bytes (frame header
      /// + head + body) are assembled fresh at each transmission.
      WireBuffer envelope;
      TimePoint enqueued;   ///< admission: delivery-timeout + ack-latency base
      TimePoint lastSent;   ///< last wire transmission: the RTT sample base
      TimePoint nextResend;
      Duration backoff;
      bool retransmitted = false;  ///< Karn's rule: never RTT-sample
      std::uint64_t dgram = 0;     ///< the datagram it last rode in
    };
    std::map<std::uint64_t, Pending> pending;  // in flight
    /// A pending frame picked for a resend.
    using PendingRef = std::pair<std::uint64_t, Pending*>;
    /// Frames admitted beyond the window: they hold their sequence number
    /// and shared envelope but have never touched the wire.  The delivery
    /// timeout runs from admission for these too.
    struct Queued {
      std::uint64_t seq;
      WireBuffer envelope;
      TimePoint enqueued;
    };
    std::deque<Queued> sendQueue;
    /// The flight the window counts, in datagrams.  dgramLive[i] holds the
    /// live frames (neither acked nor resent since) of datagram
    /// dgramBase + i; a datagram leaves the flight when that reaches zero.
    std::size_t dgramsInFlight = 0;
    std::uint64_t dgramBase = 0;
    std::deque<std::uint32_t> dgramLive;

    /// Puts a datagram of `frames` frames in flight; returns its id.
    std::uint64_t openDatagram(std::uint32_t frames) {
      dgramLive.push_back(frames);
      ++dgramsInFlight;
      return dgramBase + dgramLive.size() - 1;
    }
    /// One frame left datagram `id` (acked or resent).  True when it was
    /// the last live one, so the datagram left the flight.
    bool leaveDatagram(std::uint64_t id) {
      if (--dgramLive[id - dgramBase] != 0) return false;
      --dgramsInFlight;
      while (!dgramLive.empty() && dgramLive.front() == 0) {
        dgramLive.pop_front();
        ++dgramBase;
      }
      return true;
    }
    /// Discards every in-flight and queued frame (failure, reset).
    void dropFrames() {
      pending.clear();
      sendQueue.clear();
      dgramsInFlight = 0;
      dgramBase += dgramLive.size();
      dgramLive.clear();
    }
  };
  std::unordered_map<StreamKey, SendStream, StreamKeyHash> sendStreams;

  /// Receiver-side state per incoming stream.
  using Buffered = std::map<std::uint64_t, std::string>;
  struct RecvStream {
    std::uint64_t epoch = 0;
    std::uint64_t nextExpected = 0;
    Buffered buffered;  // out-of-order frames
    // ---- coalesced-ack state ------------------------------------------
    bool ackPending = false;   ///< >=1 arrival not yet acknowledged
    TimePoint pendingSince{};  ///< when ackPending last became true
    std::uint32_t pendingFrames = 0;  ///< arrivals folded into pending ack
  };
  std::unordered_map<StreamKey, RecvStream, StreamKeyHash> recvStreams;

  /// Peers owed an acknowledgement -> their pending stream keys.  Entries
  /// can go stale (the flag cleared by a piggyback ride or an earlier
  /// flush); collectAckBlocksLocked skips those.
  std::unordered_map<NodeAddress, std::vector<StreamKey>> ackQueue;

  Stats stats;
  bool closed = false;
  std::jthread timer;

  // ---------------------------------------------------------------------

  bool anyPendingLocked() const {
    for (const auto& [key, ss] : sendStreams) {
      if (ss.failed) continue;
      if (!ss.pending.empty() || !ss.sendQueue.empty()) return true;
    }
    return false;
  }

  bool anyFailedLocked() const {
    for (const auto& [key, ss] : sendStreams) {
      if (ss.failed) return true;
    }
    return false;
  }

  SendStream& streamLocked(const StreamKey& key) {
    auto [it, inserted] = sendStreams.try_emplace(key);
    if (inserted) {
      it->second.cwnd = static_cast<double>(cfg.initialCwnd);
      it->second.ssthresh = static_cast<double>(cfg.maxCwnd);
    }
    return it->second;
  }

  /// Datagrams this stream may have in flight right now.
  std::size_t windowLocked(const SendStream& ss) const {
    const double w =
        std::clamp(ss.cwnd, 1.0, static_cast<double>(cfg.maxCwnd));
    return static_cast<std::size_t>(w);
  }

  /// Whether frames may share a datagram: only once the peer's RTT has a
  /// clean sample.  First sends also wait for congestion avoidance: in slow
  /// start the window doubles every RTT anyway, and one frame per datagram
  /// gives every frame its own RTT sample and reordering evidence.  Resends
  /// never sample (Karn's rule), so they pack in slow start too, which
  /// includes the restart from one datagram after a timer expiry.
  bool bundlingLocked(const StreamKey& key, const SendStream& ss,
                      bool resend) const {
    if (!resend && ss.cwnd < ss.ssthresh) return false;
    const auto it = peerRtt.find(key.peer);
    return it != peerRtt.end() && it->second.hasSample;
  }

  // ---- RTT estimation (Jacobson/Karels, RFC 6298 coefficients) ----------

  Duration rtoForLocked(const NodeAddress& peer) const {
    Duration rto = cfg.rto;
    const auto it = peerRtt.find(peer);
    if (it != peerRtt.end()) {
      if (it->second.hasSample) {
        rto = it->second.srtt +
              std::max(cfg.tickInterval, 4 * it->second.rttvar);
      } else {
        rto = std::max(rto, it->second.noSampleRto);
      }
    }
    return std::clamp(rto, cfg.minRto, cfg.maxRto);
  }

  void sampleRttLocked(const NodeAddress& peer, Duration r) {
    if (r < Duration::zero()) return;
    PeerRtt& p = peerRtt[peer];
    if (!p.hasSample) {
      p.hasSample = true;
      p.srtt = r;
      p.rttvar = r / 2;
      p.minRtt = r;
    } else {
      const Duration err = r > p.srtt ? r - p.srtt : p.srtt - r;
      p.rttvar = (3 * p.rttvar + err) / 4;
      p.srtt = (7 * p.srtt + r) / 8;
      p.minRtt = std::min(p.minRtt, r);
    }
    ++stats.rttSamples;
    if (mSrttUs != nullptr) {
      mSrttUs->record(static_cast<std::uint64_t>(toMicros(p.srtt)));
    }
  }

  // ---- congestion responses ---------------------------------------------

  void ackGrowLocked(SendStream& ss, std::size_t newlyAcked) {
    for (std::size_t i = 0; i < newlyAcked; ++i) {
      if (ss.cwnd < ss.ssthresh) {
        ss.cwnd += 1.0;  // slow start: +1 per acked frame (~doubles per RTT)
      } else {
        ss.cwnd += 1.0 / ss.cwnd;  // congestion avoidance: +1 per window
      }
    }
    ss.cwnd = std::min(ss.cwnd, static_cast<double>(cfg.maxCwnd));
    if (mCwnd != nullptr) mCwnd->set(static_cast<std::int64_t>(ss.cwnd));
  }

  /// One multiplicative decrease per flight: frames below recoverSeq were in
  /// flight when the window was last cut and do not cut it again.
  void lossCutLocked(SendStream& ss, std::uint64_t seq, bool timerExpiry,
                     TimePoint now) {
    if (seq < ss.recoverSeq) return;
    if (!ss.undo.armed) ss.undo = {true, now, ss.cwnd, ss.ssthresh, 0};
    ss.ssthresh = std::max(ss.cwnd / 2, 2.0);
    // Timer expiry means the pipe drained: restart from one frame.  A RACK
    // loss means later frames still arrive: resume at half.
    ss.cwnd = timerExpiry ? 1.0 : ss.ssthresh;
    ss.recoverSeq = ss.nextSeq;
    if (mCwnd != nullptr) mCwnd->set(static_cast<std::int64_t>(ss.cwnd));
  }

  /// Builds one complete DATA frame: header tokens (every token up to and
  /// including the payload string header) written straight into the
  /// datagram's own string, then the envelope bytes (head + shared body)
  /// gathered after it — the single point on the transmit path where
  /// payload bytes are copied, with no intermediate head string.  Caller
  /// holds `mutex` (stats).
  std::string assembleData(std::uint64_t streamId, std::uint64_t epoch,
                           std::uint64_t seq,
                           const std::vector<AckBlock>& piggyback,
                           const WireBuffer& envelope) {
    std::string out;
    WireWriter w(cfg.codec, out);
    out.reserve(64 + envelope.size());
    w.writeU64(kKindData);
    w.writeU64(streamId);
    w.writeU64(epoch);
    w.writeU64(seq);
    writeAckBlocks(w, piggyback);
    w.beginString(envelope.size());
    envelope.appendTo(out);
    ++stats.payloadCopies;
    return out;
  }

  /// A frame about to go on the wire: its sequence number and envelope.
  struct OutFrame {
    std::uint64_t seq;
    const WireBuffer& envelope;
  };

  /// Stages one datagram to `key.peer` carrying frame 0 of `count`
  /// candidates (`frameAt(i)` yields the i-th) — and, when `bundle`, the
  /// candidates after it that fit in kMaxBundle bytes and the transport's
  /// datagram limit, as one bundle:
  ///   [kKindBundle, streamId, epoch, ack blocks, list of (seq, body)]
  /// A datagram that ends up with one frame is a plain DATA frame.  Returns
  /// the number of frames staged.  Caller holds `mutex`.
  template <class FrameAt>
  std::size_t stageDatagramLocked(std::vector<Datagram>& batch,
                                  const StreamKey& key, const SendStream& ss,
                                  std::size_t count, bool bundle,
                                  FrameAt frameAt) {
    // The ack blocks owed to the peer ride along.
    const std::vector<AckBlock> piggyback =
        cfg.ackPiggyback ? collectAckBlocksLocked(key.peer)
                         : std::vector<AckBlock>{};
    if (bundle && count > 1) {
      const std::size_t limit = std::min(kMaxBundle, raw->maxDatagramSize());
      std::string out;
      out.reserve(limit);
      WireWriter w(cfg.codec, out);
      w.writeU64(kKindBundle);
      w.writeU64(key.streamId);
      w.writeU64(ss.epoch);
      writeAckBlocks(w, piggyback);
      // A writer's only state is its buffer, so a token's exact size is
      // measured by writing it and cutting it off again.
      const std::size_t header = out.size();
      const auto measure = [&](auto write) {
        write();
        const std::size_t n = out.size() - header;
        out.resize(header);
        return n;
      };
      std::size_t size = header + measure([&] { w.beginList(count); });
      std::size_t n = 0;
      for (; n < count; ++n) {
        const OutFrame f = frameAt(n);
        const std::size_t add = f.envelope.size() + measure([&] {
                                  w.writeU64(f.seq);
                                  w.beginString(f.envelope.size());
                                });
        if (size + add > limit) break;
        size += add;
      }
      if (n > 1) {
        w.beginList(n);
        for (std::size_t i = 0; i < n; ++i) {
          const OutFrame f = frameAt(i);
          w.writeU64(f.seq);
          w.beginString(f.envelope.size());
          f.envelope.appendTo(out);
        }
        stats.payloadCopies += n;
        stats.bundledFrames += n;
        batch.push_back(Datagram{key.peer, std::move(out)});
        return n;
      }
    }
    const OutFrame f = frameAt(0);
    batch.push_back(Datagram{
        key.peer,
        assembleData(key.streamId, ss.epoch, f.seq, piggyback, f.envelope)});
    return 1;
  }

  /// Puts pending frames back on the wire, packed into bundles when the
  /// stream may bundle; the caller has already rearmed their timers.
  void resendLocked(std::vector<Datagram>& batch, const StreamKey& key,
                    SendStream& ss,
                    std::span<const SendStream::PendingRef> frames,
                    TimePoint now) {
    for (const auto& [seq, p] : frames) {
      p->retransmitted = true;
      p->lastSent = now;
      ss.leaveDatagram(p->dgram);
      if (ss.undo.armed) ++ss.undo.resends;
      ++stats.retransmits;
      stats.retransmitBytes += p->envelope.size();
    }
    const bool bundle = bundlingLocked(key, ss, /*resend=*/true);
    for (std::size_t i = 0; i < frames.size();) {
      const std::size_t n = stageDatagramLocked(
          batch, key, ss, frames.size() - i, bundle, [&](std::size_t k) {
            return OutFrame{frames[i + k].first, frames[i + k].second->envelope};
          });
      const std::uint64_t dgram = ss.openDatagram(n);
      for (std::size_t k = 0; k < n; ++k) frames[i + k].second->dgram = dgram;
      i += n;
    }
  }

  /// RFC 8985 order of sends: a later last send, ties broken by sequence.
  static bool sentAfter(TimePoint t1, std::uint64_t seq1, TimePoint t2,
                        std::uint64_t seq2) {
    return t1 > t2 || (t1 == t2 && seq1 > seq2);
  }

  /// RACK loss detection: resends every pending frame that a later-sent
  /// frame has overtaken by more than rack.rtt + the reorder window.
  /// Runs on every ack and every tick.
  void detectLossesLocked(std::vector<Datagram>& batch, const StreamKey& key,
                          SendStream& ss, TimePoint now) {
    if (!cfg.fastRetransmit || ss.rack.xmit == TimePoint{}) return;
    const auto pit = peerRtt.find(key.peer);
    if (pit == peerRtt.end() || !pit->second.hasSample) return;
    const PeerRtt& pr = pit->second;
    const Duration deadline =
        ss.rack.rtt + std::min(pr.minRtt / 4 * ss.rack.reoWndSteps, pr.srtt);
    std::vector<SendStream::PendingRef> lost;
    for (auto& [seq, p] : ss.pending) {
      if (!sentAfter(ss.rack.xmit, ss.rack.seq, p.lastSent, seq) ||
          now - p.lastSent < deadline) {
        // First transmissions leave in sequence order, so once one is not
        // yet lost no later frame is either; resends are out of order.
        if (!p.retransmitted) break;
        continue;
      }
      if (now - p.enqueued > cfg.deliveryTimeout) continue;  // doomed
      lossCutLocked(ss, seq, /*timerExpiry=*/false, now);
      p.backoff = rtoForLocked(key.peer);
      p.nextResend = now + p.backoff;
      lost.emplace_back(seq, &p);
    }
    if (lost.empty()) return;
    resendLocked(batch, key, ss, lost, now);
    stats.fastRetransmits += lost.size();
    if (mFastRetransmits != nullptr) mFastRetransmits->inc(lost.size());
  }

  /// Moves queued frames into flight while the window has room, packing
  /// them into bundles when the stream may bundle.  Frames already past
  /// the delivery timeout stay queued — the next tick declares the stream
  /// failed, and transmitting a doomed frame wastes wire.
  void transmitQueuedLocked(std::vector<Datagram>& batch,
                            const StreamKey& key, SendStream& ss,
                            TimePoint now) {
    if (ss.sendQueue.empty()) return;
    const std::size_t window = windowLocked(ss);
    const bool bundle = bundlingLocked(key, ss, /*resend=*/false);
    while (!ss.sendQueue.empty() && ss.dgramsInFlight < window) {
      // Admission order is time order: if the head is not doomed, no frame
      // behind it is either.
      if (now - ss.sendQueue.front().enqueued > cfg.deliveryTimeout) return;
      const std::size_t n = stageDatagramLocked(
          batch, key, ss, ss.sendQueue.size(), bundle, [&](std::size_t i) {
            return OutFrame{ss.sendQueue[i].seq, ss.sendQueue[i].envelope};
          });
      const std::uint64_t dgram = ss.openDatagram(n);
      for (std::size_t i = 0; i < n; ++i) {
        SendStream::Queued& q = ss.sendQueue.front();
        SendStream::Pending p;
        p.envelope = std::move(q.envelope);
        p.enqueued = q.enqueued;
        p.lastSent = now;
        p.backoff = rtoForLocked(key.peer);
        p.nextResend = now + p.backoff;
        p.dgram = dgram;
        ++stats.dataSent;
        stats.dataBytes += p.envelope.size();
        ss.pending.emplace(q.seq, std::move(p));
        ss.sendQueue.pop_front();
      }
    }
  }

  /// Emits and clears every pending ack block owed to `peer`.  Caller holds
  /// `mutex` and is responsible for putting the blocks on the wire (either
  /// a standalone ACK datagram or a DATA piggyback).
  std::vector<AckBlock> collectAckBlocksLocked(const NodeAddress& peer) {
    std::vector<AckBlock> blocks;
    const auto it = ackQueue.find(peer);
    if (it == ackQueue.end()) return blocks;
    for (const StreamKey& key : it->second) {
      const auto rit = recvStreams.find(key);
      if (rit == recvStreams.end()) continue;
      RecvStream& rs = rit->second;
      if (!rs.ackPending) continue;  // stale queue entry
      AckBlock b;
      b.streamId = key.streamId;
      b.epoch = rs.epoch;
      b.cumAck = rs.nextExpected;
      for (const auto& [bufSeq, unused] : rs.buffered) {
        b.sacks.push_back(bufSeq);
        if (b.sacks.size() >= kMaxSack) break;
      }
      ++stats.acksSent;
      if (rs.pendingFrames > 1) stats.acksCoalesced += rs.pendingFrames - 1;
      rs.ackPending = false;
      rs.pendingFrames = 0;
      blocks.push_back(std::move(b));
    }
    ackQueue.erase(it);
    return blocks;
  }

  void submitBatch(std::vector<Datagram>&& batch) {
    if (batch.empty()) return;
    if (mBatchSize != nullptr) mBatchSize->record(batch.size());
    const std::size_t n = batch.size();
    raw->sendBatch(std::move(batch));
    if (mDatagramsOut != nullptr) mDatagramsOut->inc(n);
  }

  /// One frame of an arriving DATA or bundle datagram, and what onFrames
  /// made of it.
  struct RxFrame {
    std::uint64_t seq = 0;
    std::string_view body;
    bool inOrder = false;     ///< delivered straight from the datagram
    std::size_t drained = 0;  ///< buffered frames it released, in order
  };

  /// Decodes a whole datagram before any state is touched, so a malformed
  /// one (SerializationError) has no effect at all.
  void onDatagram(const NodeAddress& src, std::string_view payload) {
    if (mDatagramsIn != nullptr) mDatagramsIn->inc();
    WireReader r(payload);
    try {
      const std::uint64_t kind = r.readU64();
      if (kind == kKindData) {
        const std::uint64_t streamId = r.readU64();
        const std::uint64_t epoch = r.readU64();
        RxFrame frame;
        frame.seq = r.readU64();
        const std::vector<AckBlock> piggyback = readAckBlocks(r);
        frame.body = r.readStringView();
        if (!piggyback.empty()) onAckBlocks(src, piggyback);
        onFrames(src, streamId, epoch, {&frame, 1});
      } else if (kind == kKindBundle) {
        const std::uint64_t streamId = r.readU64();
        const std::uint64_t epoch = r.readU64();
        const std::vector<AckBlock> piggyback = readAckBlocks(r);
        const std::size_t n = r.beginList();
        std::vector<RxFrame> frames;  // n is untrusted: no reserve from it
        for (std::size_t i = 0; i < n; ++i) {
          RxFrame& f = frames.emplace_back();
          f.seq = r.readU64();
          f.body = r.readStringView();
        }
        if (!piggyback.empty()) onAckBlocks(src, piggyback);
        if (!frames.empty()) onFrames(src, streamId, epoch, frames);
      } else if (kind == kKindAck) {
        onAckBlocks(src, readAckBlocks(r));
      }
    } catch (const SerializationError& e) {
      DAPPLE_LOG(kDebug, kLog) << "malformed frame from " << src.toString()
                               << ": " << e.what();
    }
  }

  /// Applies the frames of one datagram (ascending sequence numbers for a
  /// well-formed sender) under one lock with one ack decision, then
  /// delivers what became deliverable, in order.
  void onFrames(const NodeAddress& src, std::uint64_t streamId,
                std::uint64_t epoch, std::span<RxFrame> frames) {
    std::vector<Buffered::node_type> drained;  // nodes keep their addresses
    std::string ackDatagram;
    DeliverFn deliverFn;
    {
      std::scoped_lock lock(mutex);
      if (closed) return;
      const StreamKey key{src, streamId};
      RecvStream& rs = recvStreams[key];
      if (epoch > rs.epoch) {
        // The sender reset the stream (e.g. after a healed partition):
        // abandon the old epoch's reassembly state and resynchronize.
        rs = RecvStream{};
        rs.epoch = epoch;
      } else if (epoch < rs.epoch) {
        return;  // stale frame from a pre-reset retransmission
      }
      const bool hadGap = !rs.buffered.empty();
      bool deliveredAny = false;
      for (RxFrame& f : frames) {
        if (f.seq < rs.nextExpected || rs.buffered.count(f.seq) != 0) {
          ++stats.duplicates;
          // A duplicate means our ack was lost or is still in flight.  The
          // re-ack folds into the coalesced flush below instead of costing
          // an immediate datagram — a burst of dups used to trigger one ack
          // datagram each (an ack storm).
          ++stats.dupAcksSuppressed;
        } else if (f.seq == rs.nextExpected) {
          // In order: delivered as a view into the transport's receive
          // buffer, zero copies.
          f.inOrder = deliveredAny = true;
          ++rs.nextExpected;
          ++stats.delivered;
          stats.deliveredBytes += f.body.size();
          // Drain any directly following buffered frames.
          auto it = rs.buffered.begin();
          while (it != rs.buffered.end() && it->first == rs.nextExpected) {
            stats.deliveredBytes += it->second.size();
            drained.push_back(rs.buffered.extract(it++));
            ++f.drained;
            ++rs.nextExpected;
            ++stats.delivered;
          }
        } else {
          // Out of order: the one place the receive path pays an owned copy
          // (the view dies with the datagram; the frame must outlive it).
          rs.buffered.emplace(f.seq, std::string(f.body));
          ++stats.payloadCopies;
          ++stats.outOfOrderBuffered;
          if (mReorderDepth != nullptr) {
            mReorderDepth->record(rs.buffered.size());
          }
        }
      }
      if (!rs.ackPending) {
        rs.ackPending = true;
        rs.pendingSince = clk->now();
        ackQueue[src].push_back(key);
      }
      rs.pendingFrames += static_cast<std::uint32_t>(frames.size());
      // Flush at once when this datagram opened or filled a gap, every
      // ackEvery/2 arrivals while a gap stays open (the sender's RACK needs
      // prompt SACKs to tell loss from reordering), and every ackEvery
      // arrivals in order.  Otherwise the timer flushes after ackDelay, or
      // the next outgoing DATA frame to this peer piggybacks the blocks for
      // free.  Deferral is safe for the RTO because
      // `ReliableConfig::normalized()` enforces ackDelay + tickInterval <
      // minRto/2: every RTO the sender's estimator can produce leaves room
      // for a deferred SACK to arrive before the retransmission fires.
      const bool gap = !rs.buffered.empty();
      const bool gapEdge = hadGap ? deliveredAny : gap;
      const std::uint32_t every =
          gap ? std::max<std::uint32_t>(1, cfg.ackEvery / 2) : cfg.ackEvery;
      if (gapEdge || rs.pendingFrames >= every) {
        const std::vector<AckBlock> blocks = collectAckBlocksLocked(src);
        if (!blocks.empty()) {
          ackDatagram = encodeAck(cfg.codec, blocks);
          ++stats.ackFramesSent;
        }
      }
      deliverFn = deliver;
    }
    if (!ackDatagram.empty()) {
      raw->send(src, std::move(ackDatagram));
      if (mDatagramsOut != nullptr) mDatagramsOut->inc();
    }
    if (!deliverFn) return;
    auto next = drained.begin();
    for (const RxFrame& f : frames) {
      if (f.inOrder) deliverFn(src, streamId, f.body);
      for (std::size_t i = 0; i < f.drained; ++i, ++next) {
        deliverFn(src, streamId, next->mapped());
      }
    }
  }

  /// Marks one pending frame acknowledged: ack-latency histogram, the RACK
  /// update, and the spurious-resend check behind the Eifel undo.  The RTT
  /// sample is the caller's: one per ack, see onAckBlocks.
  void ackFrameLocked(const StreamKey& key, SendStream& ss, std::uint64_t seq,
                      const SendStream::Pending& p, TimePoint now) {
    if (mAckLatencyUs != nullptr) {
      mAckLatencyUs->record(
          static_cast<std::uint64_t>(toMicros(now - p.enqueued)));
    }
    const Duration rtt = now - p.lastSent;
    if (!p.retransmitted) {
      // Overtaken by a later send yet never resent: reordering, measured
      // directly.  The window grows to cover it before it costs a resend.
      if (!sentAfter(p.lastSent, seq, ss.rack.xmit, ss.rack.seq)) {
        widenReoWndLocked(ss, peerRtt[key.peer], rtt - ss.rack.rtt);
      }
    } else {
      const bool inEpisode = ss.undo.armed && p.lastSent >= ss.undo.since;
      const PeerRtt& pr = peerRtt[key.peer];
      if (!pr.hasSample || rtt >= pr.minRtt) {
        if (inEpisode) ss.undo.armed = false;  // the cut was warranted
      } else {
        // Acked sooner than the path can answer the resend: the original
        // got through, so the resend was spurious.  Its RTT is ambiguous
        // and teaches RACK nothing.
        ++stats.spuriousRetransmits;
        widenReoWndLocked(ss, pr, pr.minRtt / 4 * (ss.rack.reoWndSteps + 1));
        if (inEpisode && --ss.undo.resends == 0) undoCutLocked(key, ss);
        return;
      }
    }
    if (sentAfter(p.lastSent, seq, ss.rack.xmit, ss.rack.seq)) {
      ss.rack.xmit = p.lastSent;
      ss.rack.seq = seq;
      ss.rack.rtt = rtt;
    }
  }

  /// Widens the reorder window to cover `span`, in whole minRtt/4 steps and
  /// never past srtt.
  static void widenReoWndLocked(SendStream& ss, const PeerRtt& pr,
                                Duration span) {
    const Duration step = pr.minRtt / 4;
    if (step <= Duration::zero() || span <= Duration::zero()) return;
    const auto steps = [step](Duration d) {
      return static_cast<std::uint32_t>((d + step - Duration(1)) / step);
    };
    ss.rack.reoWndSteps = std::max(ss.rack.reoWndSteps,
                                   std::min(steps(span), steps(pr.srtt)));
  }

  /// Every resend since the last cut proved spurious: restore the window.
  void undoCutLocked(const StreamKey& key, SendStream& ss) {
    ss.cwnd = std::max(ss.cwnd, ss.undo.cwnd);
    ss.ssthresh = std::max(ss.ssthresh, ss.undo.ssthresh);
    ss.undo.armed = false;
    if (mCwnd != nullptr) mCwnd->set(static_cast<std::int64_t>(ss.cwnd));
    if (trace != nullptr) {
      trace->emit("reliable", "loss.undo",
                  "cwnd restored to " +
                      std::to_string(static_cast<std::int64_t>(ss.cwnd)) +
                      " to " + key.peer.toString(),
                  static_cast<std::int64_t>(key.streamId));
    }
  }

  void onAckBlocks(const NodeAddress& src,
                   const std::vector<AckBlock>& blocks) {
    std::vector<Datagram> batch;
    {
      std::scoped_lock lock(mutex);
      if (closed) return;
      bool ackedAny = false;
      const TimePoint now = clk->now();
      for (const AckBlock& b : blocks) {
        const StreamKey key{src, b.streamId};
        const auto it = sendStreams.find(key);
        if (it == sendStreams.end()) continue;
        SendStream& ss = it->second;
        if (b.epoch != ss.epoch) continue;  // ack for a previous epoch
        std::size_t newlyAcked = 0;
        std::size_t ackedDatagrams = 0;  // the window grows per datagram
        // One RTT sample per ack, from the newest frame it acks that was
        // sent only once (Karn's rule: a resend's ack is ambiguous).  The
        // frames of a burst or a bundle leave and are acked together, and
        // n equal samples would drive rttvar, and with it the RTO's margin
        // for a deferred ack, towards zero.
        std::optional<std::pair<TimePoint, std::uint64_t>> newestClean;
        const auto ack = [&](std::uint64_t seq, const SendStream::Pending& p) {
          ackFrameLocked(key, ss, seq, p, now);
          if (!p.retransmitted &&
              (!newestClean || sentAfter(p.lastSent, seq, newestClean->first,
                                         newestClean->second))) {
            newestClean.emplace(p.lastSent, seq);
          }
          if (ss.leaveDatagram(p.dgram)) ++ackedDatagrams;
          ++newlyAcked;
        };
        // cumAck = receiver's nextExpected: everything below is delivered.
        const auto ackedEnd = ss.pending.lower_bound(b.cumAck);
        for (auto it2 = ss.pending.begin(); it2 != ackedEnd; ++it2) {
          ack(it2->first, it2->second);
        }
        ss.pending.erase(ss.pending.begin(), ackedEnd);
        for (std::uint64_t sack : b.sacks) {
          const auto it2 = ss.pending.find(sack);
          if (it2 == ss.pending.end()) continue;
          ack(sack, it2->second);
          ss.pending.erase(it2);
        }
        if (newestClean) sampleRttLocked(key.peer, now - newestClean->first);
        if (newlyAcked > 0) {
          ackedAny = true;
          ackGrowLocked(ss, ackedDatagrams);
        }
        if (!ss.failed) detectLossesLocked(batch, key, ss, now);
        // Acks freed window space: move queued frames into flight.
        transmitQueuedLocked(batch, key, ss, now);
      }
      if (ackedAny && !anyPendingLocked()) clk->notifyAll(flushed);
    }
    submitBatch(std::move(batch));
  }

  void tick() {
    std::vector<Datagram> batch;
    std::vector<std::tuple<NodeAddress, std::uint64_t, std::string>> failures;
    FailFn failFn;
    {
      std::scoped_lock lock(mutex);
      if (closed) return;
      const TimePoint now = clk->now();
      for (auto& [key, ss] : sendStreams) {
        if (ss.failed) continue;
        // ---- phase 1: delivery-timeout verdict, in-flight AND queued ----
        // Decided for the whole stream before anything is staged, so a
        // stream failing this tick can never leak frames into the batch
        // (previously a retransmission staged earlier in the same scan
        // still hit the wire after ss.pending.clear()).
        for (const auto& [seq, pending] : ss.pending) {
          if (now - pending.enqueued > cfg.deliveryTimeout) {
            ss.failed = true;
            ss.failReason = "delivery timeout on stream " +
                            std::to_string(key.streamId) + " to " +
                            key.peer.toString() + " (seq " +
                            std::to_string(seq) + ")";
            break;
          }
        }
        if (!ss.failed) {
          for (const auto& q : ss.sendQueue) {
            if (now - q.enqueued > cfg.deliveryTimeout) {
              ss.failed = true;
              ss.failReason = "delivery timeout on stream " +
                              std::to_string(key.streamId) + " to " +
                              key.peer.toString() + " (seq " +
                              std::to_string(q.seq) + ", never transmitted: " +
                              "window closed)";
              break;
            }
          }
        }
        if (ss.failed) {
          ++stats.failures;
          failures.emplace_back(key.peer, key.streamId, ss.failReason);
          ss.dropFrames();
          continue;
        }
        // ---- phase 2: RACK reorder deadlines, then the timer -------------
        detectLossesLocked(batch, key, ss, now);
        std::vector<SendStream::PendingRef> expired;
        for (auto& [seq, pending] : ss.pending) {
          if (now < pending.nextResend) continue;
          PeerRtt& pr = peerRtt[key.peer];
          if (pr.hasSample) {
            lossCutLocked(ss, seq, /*timerExpiry=*/true, now);
          } else {
            // Before the first RTT sample an expiry says that cfg.rto is
            // short for this path, not that the path is congested (TCP
            // treats a lost SYN the same way): restart from one datagram,
            // still in slow start.
            ss.cwnd = 1.0;
          }
          pending.backoff = std::min(pending.backoff * 2, cfg.maxRto);
          pending.nextResend = now + pending.backoff;
          if (!pr.hasSample) {
            pr.noSampleRto = std::max(pr.noSampleRto, pending.backoff);
          }
          expired.emplace_back(seq, &pending);
        }
        if (!expired.empty()) resendLocked(batch, key, ss, expired, now);
        // ---- phase 3: window openings (acks shrank the flight) ----------
        transmitQueuedLocked(batch, key, ss, now);
      }
      // Deferred-ack flush: every peer holding a block older than ackDelay
      // gets ONE datagram carrying all of its pending blocks.
      std::vector<NodeAddress> duePeers;
      for (const auto& [peer, keys] : ackQueue) {
        for (const StreamKey& key : keys) {
          const auto rit = recvStreams.find(key);
          if (rit == recvStreams.end()) continue;
          const RecvStream& rs = rit->second;
          if (rs.ackPending && now - rs.pendingSince >= cfg.ackDelay) {
            duePeers.push_back(peer);
            break;
          }
        }
      }
      for (const NodeAddress& peer : duePeers) {
        const std::vector<AckBlock> blocks = collectAckBlocksLocked(peer);
        if (blocks.empty()) continue;
        batch.push_back(Datagram{peer, encodeAck(cfg.codec, blocks)});
        ++stats.ackFramesSent;
      }
      if (!failures.empty() && !anyPendingLocked()) clk->notifyAll(flushed);
      failFn = onFailure;
    }
    submitBatch(std::move(batch));
    for (const auto& [dst, streamId, reason] : failures) {
      DAPPLE_LOG(kDebug, kLog) << "stream failed: " << reason;
      if (trace != nullptr) {
        trace->emit("reliable", "stream.fail", reason,
                    static_cast<std::int64_t>(streamId));
      }
      if (failFn) failFn(dst, streamId, reason);
    }
  }

  void runTimer(std::stop_token stop) {
    // A worker in virtual time: the clock advances to the next tick the
    // moment everything else is parked, so a lossy scenario's retransmit
    // schedule plays out in microseconds of wall time.
    ClockSource::WorkerScope workerScope(*clk);
    std::unique_lock lock(timerMutex);
    while (!stop.stop_requested()) {
      clk->waitFor(lock, timerWake, cfg.tickInterval,
                   [&] { return stop.stop_requested(); });
      if (stop.stop_requested()) break;
      lock.unlock();
      tick();
      lock.lock();
    }
  }
};

ReliableEndpoint::ReliableEndpoint(std::shared_ptr<Endpoint> raw,
                                   ReliableConfig config,
                                   obs::MetricsRegistry* metrics,
                                   ClockSource* clock)
    : impl_(std::make_unique<Impl>(std::move(raw), config, metrics, clock)) {
  impl_->raw->setHandler(
      [impl = impl_.get()](const NodeAddress& src, std::string_view payload) {
        impl->onDatagram(src, payload);
      });
  if (!impl_->cfg.externalTick) {
    // Announce before spawn: a virtual clock advancing in the window before
    // the timer thread registers could leap past the delivery timeout and
    // fail streams that never got a single retransmit.
    impl_->clk->announceWorker();
    impl_->timer = std::jthread(
        [impl = impl_.get()](std::stop_token stop) { impl->runTimer(stop); });
  }
}

void ReliableEndpoint::tick() { impl_->tick(); }

ReliableEndpoint::~ReliableEndpoint() { close(); }

NodeAddress ReliableEndpoint::address() const { return impl_->raw->address(); }

void ReliableEndpoint::setDeliver(DeliverFn fn) {
  std::scoped_lock lock(impl_->mutex);
  impl_->deliver = std::move(fn);
}

void ReliableEndpoint::setOnFailure(FailFn fn) {
  std::scoped_lock lock(impl_->mutex);
  impl_->onFailure = std::move(fn);
}

std::uint64_t ReliableEndpoint::send(const NodeAddress& dst,
                                     std::uint64_t streamId,
                                     std::string payload) {
  std::vector<OutSend> one;
  one.push_back(OutSend{dst, std::move(payload)});
  return sendMany(std::move(one), streamId, Payload())[0];
}

std::vector<std::uint64_t> ReliableEndpoint::sendMany(
    std::vector<OutSend> sends, std::uint64_t streamId, Payload body) {
  std::vector<std::uint64_t> seqs;
  seqs.reserve(sends.size());
  std::vector<Datagram> batch;
  batch.reserve(sends.size());
  {
    std::scoped_lock lock(impl_->mutex);
    if (impl_->closed) throw ShutdownError("reliable endpoint closed");
    // All-or-nothing admission: probe every target stream before queueing
    // anything so a failed stream cannot leave a partial fan-out behind.
    // Oversize payloads are rejected here too: the transport counts them as
    // loss (never delivers, never throws — see Endpoint::sendBatch), so a
    // payload at or past the datagram limit would otherwise surface only as
    // an eventual delivery timeout.  The frame header only adds bytes, so
    // envelope size alone is a sufficient reject condition; payloads just
    // under the limit can still exceed it with the header attached and then
    // follow the loss path.
    const std::size_t maxDatagram = impl_->raw->maxDatagramSize();
    for (const OutSend& s : sends) {
      if (s.head.size() + body.size() >= maxDatagram) {
        throw DeliveryError(
            "payload of " + std::to_string(s.head.size() + body.size()) +
            " bytes cannot fit the transport datagram limit (" +
            std::to_string(maxDatagram) + " bytes)");
      }
      const auto it = impl_->sendStreams.find(StreamKey{s.dst, streamId});
      if (it != impl_->sendStreams.end() && it->second.failed) {
        throw DeliveryError(it->second.failReason.empty()
                                ? "stream failed"
                                : it->second.failReason);
      }
    }
    const TimePoint now = impl_->clk->now();
    for (OutSend& s : sends) {
      const StreamKey key{s.dst, streamId};
      Impl::SendStream& ss = impl_->streamLocked(key);
      const std::uint64_t seq = ss.nextSeq++;
      WireBuffer envelope(std::move(s.head), body);
      if (ss.sendQueue.empty() &&
          ss.dgramsInFlight < impl_->windowLocked(ss)) {
        Impl::SendStream::Pending pending;
        pending.envelope = std::move(envelope);
        pending.enqueued = now;
        pending.lastSent = now;
        pending.backoff = impl_->rtoForLocked(s.dst);
        pending.nextResend = now + pending.backoff;
        pending.dgram = ss.openDatagram(1);
        impl_->stageDatagramLocked(
            batch, key, ss, 1, /*bundle=*/false, [&](std::size_t) {
              return Impl::OutFrame{seq, pending.envelope};
            });
        ++impl_->stats.dataSent;
        impl_->stats.dataBytes += pending.envelope.size();
        ss.pending.emplace(seq, std::move(pending));
      } else {
        // Window full (or earlier frames already queued — FIFO): park the
        // frame instead of flooding the link; acks and ticks drain it.
        ss.sendQueue.push_back(
            Impl::SendStream::Queued{seq, std::move(envelope), now});
        ++impl_->stats.windowDeferred;
      }
      seqs.push_back(seq);
    }
  }
  // Transmit outside the lock: the raw endpoint has its own locking and a
  // delivery thread that re-enters this class, so holding our mutex across
  // the submit would invert the lock order.
  impl_->submitBatch(std::move(batch));
  return seqs;
}

ReliableEndpoint::FlushOutcome ReliableEndpoint::flushEx(Duration timeout) {
  std::unique_lock lock(impl_->mutex);
  const bool drained =
      impl_->clk->waitFor(lock, impl_->flushed, timeout,
                          [this] { return !impl_->anyPendingLocked(); });
  if (!drained) return FlushOutcome::kTimedOut;
  return impl_->anyFailedLocked() ? FlushOutcome::kFailed
                                  : FlushOutcome::kFlushed;
}

bool ReliableEndpoint::flush(Duration timeout) {
  // NOTE: kFailed counts as "drained" here — a failed stream discarded its
  // frames, so nothing is left in flight even though nothing was delivered.
  // Callers that must tell the difference use flushEx().
  return flushEx(timeout) != FlushOutcome::kTimedOut;
}

void ReliableEndpoint::resetStream(const NodeAddress& dst,
                                   std::uint64_t streamId) {
  std::scoped_lock lock(impl_->mutex);
  const auto it = impl_->sendStreams.find(StreamKey{dst, streamId});
  if (it != impl_->sendStreams.end()) {
    it->second.failed = false;
    it->second.failReason.clear();
    it->second.dropFrames();
    // New epoch: undelivered old-epoch frames are abandoned and the
    // receiver resynchronizes from sequence 0.  The congestion window
    // restarts too — the old estimate described a path that just failed.
    ++it->second.epoch;
    it->second.nextSeq = 0;
    it->second.cwnd = static_cast<double>(impl_->cfg.initialCwnd);
    it->second.ssthresh = static_cast<double>(impl_->cfg.maxCwnd);
    it->second.recoverSeq = 0;
    it->second.rack = {};
    it->second.undo = {};
  }
}

void ReliableEndpoint::close() {
  {
    std::scoped_lock lock(impl_->mutex);
    if (impl_->closed) return;
    impl_->closed = true;
  }
  impl_->timer.request_stop();
  impl_->clk->notifyAll(impl_->timerWake);  // wake the parked tick wait
  if (impl_->timer.joinable()) impl_->timer.join();
  impl_->raw->close();
  impl_->clk->notifyAll(impl_->flushed);
}

ReliableEndpoint::Stats ReliableEndpoint::stats() const {
  std::scoped_lock lock(impl_->mutex);
  return impl_->stats;
}

ReliableEndpoint::PeerProbe ReliableEndpoint::probePeer(
    const NodeAddress& peer) const {
  std::scoped_lock lock(impl_->mutex);
  PeerProbe probe;
  probe.rto = impl_->rtoForLocked(peer);
  const auto it = impl_->peerRtt.find(peer);
  if (it != impl_->peerRtt.end() && it->second.hasSample) {
    probe.hasRtt = true;
    probe.srtt = it->second.srtt;
    probe.rttvar = it->second.rttvar;
  }
  return probe;
}

ReliableEndpoint::StreamProbe ReliableEndpoint::probeStream(
    const NodeAddress& dst, std::uint64_t streamId) const {
  std::scoped_lock lock(impl_->mutex);
  StreamProbe probe;
  const auto it = impl_->sendStreams.find(StreamKey{dst, streamId});
  if (it == impl_->sendStreams.end()) return probe;
  probe.exists = true;
  probe.failed = it->second.failed;
  probe.cwnd = it->second.cwnd;
  probe.ssthresh = static_cast<std::uint64_t>(it->second.ssthresh);
  probe.inFlight = it->second.pending.size();
  probe.queued = it->second.sendQueue.size();
  return probe;
}

}  // namespace dapple
