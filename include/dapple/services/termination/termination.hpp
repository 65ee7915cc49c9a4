#pragma once
/// \file termination.hpp
/// \brief Termination detection (named as a desired "servlet" service in
/// paper §2.2 "Composition of Services").
///
/// Implements Dijkstra–Scholten diffusing-computation termination detection.
/// The application is a diffusing computation rooted at one member: work
/// spreads via application messages and the computation has terminated when
/// every member is idle and no application message is in flight.
///
/// Protocol.  Each member tracks a *deficit* (messages it sent that are not
/// yet acknowledged) and an *engagement tree*: the first message that
/// activates an idle member makes the sender its parent; every other
/// received message is acknowledged immediately.  A member that is idle
/// with zero deficit acknowledges its parent and disengages.  When the root
/// is idle with zero deficit, the whole computation has terminated.
///
/// Integration contract — the application must call:
///  * `onSend(dest)`   just before sending each application message,
///  * `onReceive(src)` when it starts processing a received message,
///  * `onQuiet()`      whenever it finishes processing and has no local
///                     work left (idempotent; safe to call repeatedly).
/// Acks travel on the detector's own control channels, so application
/// channels are untouched.

#include <cstdint>
#include <memory>
#include <vector>

#include "dapple/core/dapplet.hpp"

namespace dapple {

class TerminationDetector {
 public:
  /// Creates the detector's control inbox ("td.ctl") on `dapplet`.
  explicit TerminationDetector(Dapplet& dapplet);
  ~TerminationDetector();

  TerminationDetector(const TerminationDetector&) = delete;
  TerminationDetector& operator=(const TerminationDetector&) = delete;

  InboxRef ref() const;

  /// Wires the detector group; `rootIndex` is the computation's source.
  void attach(const std::vector<InboxRef>& members, std::size_t selfIndex,
              std::size_t rootIndex);

  /// The root calls this once to mark itself active before seeding work.
  void start();

  // --- application hooks ---------------------------------------------------

  /// Must run before each application message send to member `dest`.
  void onSend(std::size_t dest);

  /// Must run when beginning to process an application message received
  /// from member `src`.
  void onReceive(std::size_t src);

  /// Declares this member locally idle (no queued work).  The detector
  /// disengages once the member's deficit reaches zero.
  void onQuiet();

  /// Root only: blocks until the diffusing computation has terminated.
  /// Throws TimeoutError.
  void awaitTermination(Duration timeout = seconds(30));

  /// True once termination has been detected (root only).
  bool terminated() const;

  struct Stats {
    std::uint64_t acksSent = 0;
    std::uint64_t engagements = 0;  ///< times this member became active
  };
  Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dapple
