#pragma once
/// \file service_inbox.hpp
/// \brief The one way a service serves its control inbox.
///
/// Every service (tokens, snapshot, sync, termination, the clock services,
/// RPC, liveness, the session agent) is a state machine that reacts to
/// messages arriving on one control inbox (paper §3.1, §4).  A
/// `ServiceInbox` creates that inbox and serves it with an
/// `Inbox::onMessage` handler on the dapplet's reactor — the shared one from
/// `DappletConfig::runtime.reactor`, or the dapplet's owned one — so a
/// service holds no thread of its own.
///
/// Lifetime is scoped, in the manner of a scope guard: the destructor
/// removes the handler (`onMessage(nullptr)`, which waits out an invocation
/// in flight) and then destroys the inbox, so once it returns no handler or
/// close hook touches the service's state again.  Declare the ServiceInbox
/// after every member its handler uses, so it is destroyed first.

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>

#include "dapple/core/dapplet.hpp"

namespace dapple {

class ServiceInbox {
 public:
  using Handler = std::function<void(const Delivery&)>;

  /// Creates the inbox `name` on `dapplet` and, when `handler` is set,
  /// serves it at once (see serve()).
  ServiceInbox(Dapplet& dapplet, const std::string& name,
               Handler handler = nullptr);

  /// Removes the handler, waiting out an invocation in flight, then
  /// destroys the inbox (which runs or waits out the close hook).  Must not
  /// run inside the handler.
  ~ServiceInbox();

  ServiceInbox(const ServiceInbox&) = delete;
  ServiceInbox& operator=(const ServiceInbox&) = delete;

  /// Installs `handler`: deliveries, including those queued before this
  /// call, reach it in FIFO order, one at a time, on a reactor loop.  A
  /// ShutdownError thrown by the handler ends that delivery quietly; any
  /// other exception is logged and serving continues.
  void serve(Handler handler);

  /// When the inbox closes (the dapplet stops or crashes), takes `mutex`
  /// and wakes every waiter on `cv` through the dapplet's clock, so a caller
  /// blocked in the service's API re-checks closed() and throws
  /// ShutdownError.  Both must outlive this object.
  void wakeOnClose(std::mutex& mutex, std::condition_variable& cv);

  /// True once the inbox has closed.
  bool closed() const { return inbox_.isClosed(); }

  Inbox& inbox() const { return inbox_; }
  InboxRef ref() const { return inbox_.ref(); }

 private:
  Dapplet& dapplet_;
  Inbox& inbox_;
};

}  // namespace dapple
