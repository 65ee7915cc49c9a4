#include "dapple/core/service_inbox.hpp"

#include <exception>

#include "dapple/util/log.hpp"

namespace dapple {

ServiceInbox::ServiceInbox(Dapplet& dapplet, const std::string& name,
                           Handler handler)
    : dapplet_(dapplet), inbox_(dapplet.createInbox(name)) {
  if (handler) serve(std::move(handler));
}

ServiceInbox::~ServiceInbox() {
  inbox_.onMessage(nullptr);
  try {
    dapplet_.destroyInbox(inbox_);
  } catch (const Error&) {
  }
}

void ServiceInbox::serve(Handler handler) {
  inbox_.onMessage([this, handler = std::move(handler)](Delivery del) {
    try {
      handler(del);
    } catch (const ShutdownError&) {
      // The dapplet is stopping under the handler.
    } catch (const std::exception& e) {
      // Error subclasses and standard exceptions alike (a malformed
      // message can surface std::out_of_range): log and keep serving.
      DAPPLE_LOG(kWarn, "service")
          << dapplet_.name() << ": '" << inbox_.name()
          << "' dispatch error: " << e.what();
    }
  });
}

void ServiceInbox::wakeOnClose(std::mutex& mutex,
                               std::condition_variable& cv) {
  inbox_.onClose([&mutex, &cv, clk = &dapplet_.clockSource()] {
    std::scoped_lock lock(mutex);
    clk->notifyAll(cv);
  });
}

}  // namespace dapple
