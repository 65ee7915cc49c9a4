#pragma once
/// \file total_order.hpp
/// \brief Totally-ordered multicast built on the paper's clock service.
///
/// Paper §4.2 resolves conflicts by *"the request with the earlier
/// timestamp; ties are broken in favor of the process with the lower id"*,
/// citing Lamport's "Time, clocks, and the ordering of events" [ref 8].
/// This service applies that exact rule to message delivery: every member
/// of a group delivers every published message in the same global
/// (timestamp, member-id) order — Lamport's classic mutual-consistency
/// algorithm over the dapplet FIFO channels.
///
/// Mechanism: publishers stamp messages with their Lamport clock and
/// multicast to all members (including themselves); receivers hold
/// messages in a priority queue and acknowledge to everyone.  The head of
/// the queue is delivered once every member has been heard from with a
/// later timestamp — FIFO channels then guarantee nothing earlier can
/// still arrive.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dapple/core/dapplet.hpp"
#include "dapple/serial/value.hpp"
#include "dapple/services/clocks/dist_mutex.hpp"  // LamportStamp

namespace dapple {

/// One member's handle on a totally-ordered group.
class TotalOrderGroup {
 public:
  /// A message in its global delivery order.
  struct Delivered {
    LamportStamp stamp;      ///< the global order key
    std::size_t from = 0;    ///< publisher's member index
    Value payload;
  };

  /// Creates the member's group inbox ("tob.<name>") on `dapplet`.
  TotalOrderGroup(Dapplet& dapplet, const std::string& name);
  ~TotalOrderGroup();

  TotalOrderGroup(const TotalOrderGroup&) = delete;
  TotalOrderGroup& operator=(const TotalOrderGroup&) = delete;

  InboxRef ref() const;

  /// Wires the group; identical, identically-ordered `members` everywhere.
  void attach(const std::vector<InboxRef>& members, std::size_t selfIndex);

  /// Publishes `payload` to the group (including this member).  Returns
  /// the message's global order stamp.
  LamportStamp publish(const Value& payload);

  /// Blocks until the next message in global order is deliverable.
  /// Throws TimeoutError / ShutdownError.
  Delivered take(Duration timeout = seconds(30));

  /// Non-blocking take.
  std::optional<Delivered> tryTake();

  struct Stats {
    std::uint64_t published = 0;
    std::uint64_t delivered = 0;
    std::uint64_t acksSent = 0;
    std::uint64_t maxQueueDepth = 0;
  };
  Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dapple
