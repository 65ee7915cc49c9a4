#pragma once
/// \file dist_mutex.hpp
/// \brief Timestamp-based distributed conflict resolution.
///
/// Paper §4.2: *"Each request for a set of resources is timestamped with
/// the time at which the request is made.  Conflicts between two or more
/// requests for a common indivisible resource are resolved in favor of the
/// request with the earlier timestamp.  Ties are broken in favor of the
/// process with the lower id."*  `DistributedMutex` implements exactly that
/// policy as Ricart–Agrawala mutual exclusion over the dapplet message
/// layer, using the built-in Lamport clocks for the timestamps.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dapple/core/dapplet.hpp"

namespace dapple {

/// A logical-clock timestamp with the paper's total order: earlier time
/// first, ties broken by lower process id.
struct LamportStamp {
  std::uint64_t time = 0;
  std::uint64_t id = 0;

  friend bool operator==(const LamportStamp&, const LamportStamp&) = default;
  friend auto operator<=>(const LamportStamp& a, const LamportStamp& b) {
    if (a.time != b.time) return a.time <=> b.time;
    return a.id <=> b.id;
  }
};

/// One member's handle on a named distributed mutex shared by N dapplets.
/// Construct one per member with the same `name` and the same `members`
/// vector (the refs returned by `inboxRefFor` on each member, in the same
/// order).  All members must be constructed before any acquire().
class DistributedMutex {
 public:
  /// Creates the member's mutex inbox ("ra.<name>") on `dapplet`.  Call
  /// `attach` once all members' inbox refs are known.
  DistributedMutex(Dapplet& dapplet, const std::string& name);
  ~DistributedMutex();

  DistributedMutex(const DistributedMutex&) = delete;
  DistributedMutex& operator=(const DistributedMutex&) = delete;

  /// This member's mutex inbox (to be shared with the other members).
  InboxRef ref() const;

  /// Supplies every member's mutex inbox ref; `selfIndex` locates this
  /// member in the vector.  Must be called exactly once before acquire().
  void attach(const std::vector<InboxRef>& members, std::size_t selfIndex);

  /// Requests the critical section; blocks until every other member has
  /// replied.  Throws TimeoutError after `timeout`.
  void acquire(Duration timeout = seconds(30));

  /// Leaves the critical section, releasing deferred peers.
  void release();

  /// True while this member is in the critical section.
  bool held() const;

  struct Stats {
    std::uint64_t acquisitions = 0;
    std::uint64_t requestsDeferred = 0;  ///< peer requests we postponed
    std::uint64_t messages = 0;          ///< protocol messages sent
  };
  Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dapple
