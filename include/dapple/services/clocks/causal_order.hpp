#pragma once
/// \file causal_order.hpp
/// \brief Causally-ordered multicast built on vector clocks.
///
/// The cheaper sibling of `TotalOrderGroup`: messages are delivered
/// respecting happened-before (a reply can never arrive before the message
/// it answers) but concurrent messages may be delivered in different
/// orders at different members.  No acks are needed — each message carries
/// a vector timestamp and receivers hold back messages until their causal
/// predecessors have been delivered (the classic Birman–Schiper–Stephenson
/// scheme, expressed with the `VectorClock` the clock service provides).
///
/// Together with TotalOrderGroup this gives the library the standard
/// ordered-delivery ladder — FIFO (every channel, §3.2) ⊂ causal ⊂ total —
/// and the causal/total pair is compared in `bench_totalorder`.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dapple/core/dapplet.hpp"
#include "dapple/serial/value.hpp"
#include "dapple/services/clocks/vector_clock.hpp"

namespace dapple {

/// One member's handle on a causally-ordered group.
class CausalGroup {
 public:
  struct Delivered {
    std::size_t from = 0;
    std::uint64_t seq = 0;  ///< per-publisher sequence (1-based)
    Value payload;
  };

  CausalGroup(Dapplet& dapplet, const std::string& name);
  ~CausalGroup();

  CausalGroup(const CausalGroup&) = delete;
  CausalGroup& operator=(const CausalGroup&) = delete;

  InboxRef ref() const;

  void attach(const std::vector<InboxRef>& members, std::size_t selfIndex);

  /// Publishes `payload`; everything this member has delivered (or
  /// published) so far causally precedes it.
  void publish(const Value& payload);

  /// Blocks for the next causally-deliverable message.
  Delivered take(Duration timeout = seconds(30));

  std::optional<Delivered> tryTake();

  struct Stats {
    std::uint64_t published = 0;
    std::uint64_t delivered = 0;
    std::uint64_t heldBack = 0;  ///< arrivals that had to wait for a cause
  };
  Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dapple
