#pragma once
/// \file distributed.hpp
/// \brief Synchronization constructs for threads in *different* dapplets.
///
/// Paper §4.3: *"We are extending these designs to allow synchronizations
/// between threads in different dapplets in different address spaces."*
/// This module delivers that extension:
///
///  * `DistributedBarrier` — coordinator-based multiway synchronization
///    (also the paper's §2.2 "multiway synchronization" servlet);
///  * `DistributedSingleAssignment` — a write-once value replicated to all
///    members on set; readers block;
///  * a distributed semaphore is simply a `TokenManager` colour: acquire =
///    `request({{color, 1}})`, release = `release({{color, 1}})` — see
///    `DistributedSemaphore` below for the thin wrapper.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dapple/core/dapplet.hpp"
#include "dapple/services/tokens/token_manager.hpp"

namespace dapple {

/// Barrier across dapplets.  Member 0 of the ref vector coordinates: it
/// collects ARRIVE from everyone and broadcasts RELEASE.  Reusable
/// (generation counted).
class DistributedBarrier {
 public:
  /// Creates the barrier inbox ("bar.<name>") on `dapplet`.
  DistributedBarrier(Dapplet& dapplet, const std::string& name);
  ~DistributedBarrier();

  DistributedBarrier(const DistributedBarrier&) = delete;
  DistributedBarrier& operator=(const DistributedBarrier&) = delete;

  InboxRef ref() const;

  /// Wires the member; `members[0]` is the coordinator.
  void attach(const std::vector<InboxRef>& members, std::size_t selfIndex);

  /// Blocks until every member has arrived at the same generation.
  /// Returns the completed generation.  Throws TimeoutError.
  std::uint64_t arriveAndWait(Duration timeout = seconds(30));

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Write-once value shared by a group of dapplets.  Any member may set();
/// the value is broadcast and all members' get() unblock.  A second set()
/// anywhere throws Error on the setter whose message arrives second
/// (first-writer-wins, resolved by the paper's timestamp order).
class DistributedSingleAssignment {
 public:
  DistributedSingleAssignment(Dapplet& dapplet, const std::string& name);
  ~DistributedSingleAssignment();

  DistributedSingleAssignment(const DistributedSingleAssignment&) = delete;
  DistributedSingleAssignment& operator=(const DistributedSingleAssignment&) =
      delete;

  InboxRef ref() const;
  void attach(const std::vector<InboxRef>& members, std::size_t selfIndex);

  /// Proposes the value.  The earliest-timestamped proposal wins
  /// everywhere; a losing set() returns false.
  bool set(const Value& value);

  /// Blocks until some member's set() has propagated here.
  Value get(Duration timeout = seconds(30)) const;

  bool isSet() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Distributed counting semaphore backed by a token colour — the canonical
/// "tokens as capabilities" usage of §4.1.
class DistributedSemaphore {
 public:
  /// `manager` must be attached; `color` must have been seeded with the
  /// semaphore's initial count at its home member.
  DistributedSemaphore(TokenManager& manager, TokenColor color)
      : manager_(manager), color_(std::move(color)) {}

  void acquire(std::int64_t n = 1, Duration timeout = seconds(30)) {
    manager_.request({{color_, n}}, timeout);
  }

  void release(std::int64_t n = 1) { manager_.release({{color_, n}}); }

  const TokenColor& color() const { return color_; }

 private:
  TokenManager& manager_;
  TokenColor color_;
};

}  // namespace dapple
