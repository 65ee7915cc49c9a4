// Service dispatch: every service serves its control inbox through
// Inbox::onMessage (core/service_inbox.hpp).  These tests pin what that
// gives and what it must keep: no standing threads on a shared reactor,
// dapplet stop() waking a caller blocked in a service API, teardown after
// the dapplet has stopped, and FIFO service of deliveries queued before a
// token manager's attach().
#include <gtest/gtest.h>

#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "dapple/core/rpc.hpp"
#include "dapple/core/session.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/serial/data_message.hpp"
#include "dapple/services/clocks/causal_order.hpp"
#include "dapple/services/clocks/dist_mutex.hpp"
#include "dapple/services/clocks/total_order.hpp"
#include "dapple/services/liveness/liveness.hpp"
#include "dapple/services/snapshot/snapshot.hpp"
#include "dapple/services/sync/distributed.hpp"
#include "dapple/services/termination/termination.hpp"
#include "dapple/services/tokens/token_manager.hpp"

namespace dapple {
namespace {

/// OS threads of this process right now.
std::size_t osThreads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Polls `pred` for up to five seconds.
template <typename Pred>
bool eventually(Pred pred) {
  const Stopwatch sw;
  while (!pred()) {
    if (sw.elapsed() > seconds(5)) return false;
    std::this_thread::sleep_for(milliseconds(2));
  }
  return true;
}

TEST(ServiceInbox, ServicesHoldNoThreadsOnASharedReactor) {
  SimNetwork net(7);
  Reactor::Options opts;
  opts.threads = 1;
  Reactor reactor(opts);
  DappletConfig cfg;
  cfg.runtime.reactor = &reactor;
  Dapplet d(net, "svc", cfg);
  Dapplet peer(net, "peer", cfg);
  {
    // One delivery first, so every lazily started transport thread exists
    // before the count.
    Inbox& warm = d.createInbox("warm");
    Outbox& out = peer.createOutbox();
    out.add(warm.ref());
    out.send(DataMessage("warm"));
    ASSERT_TRUE(warm.receiveFor(seconds(10)).has_value());
  }
  const std::size_t before = osThreads();
  {
    TokenManager tokens(d);
    CheckpointService checkpoint(d, [] { return Value(); });
    MarkerRegion marker(d, [] { return Value(); });
    DistributedBarrier barrier(d, "b");
    DistributedSingleAssignment assignment(d, "v");
    TerminationDetector termination(d);
    TotalOrderGroup total(d, "t");
    CausalGroup causal(d, "c");
    DistributedMutex mutex(d, "m");
    RpcServer rpc(d);
    LivenessMonitor liveness(d);
    SessionAgent agent(d);
    EXPECT_EQ(osThreads(), before) << "a service started a thread";

    // They serve, too — on the reactor's one loop.
    rpc.bind("echo", [](const Value& args) { return args; });
    RpcClient client(peer, rpc.ref());
    EXPECT_EQ(client.call("echo", Value(7)).asInt(), 7);
    total.attach({total.ref()}, 0);
    total.publish(Value("x"));
    EXPECT_EQ(total.take(seconds(10)).payload.asString(), "x");
    EXPECT_EQ(osThreads(), before);
  }
  EXPECT_EQ(osThreads(), before);
  d.stop();
  peer.stop();
}

// ---------------------------------------------------------------------------
// Teardown, per service with a blocking API call
// ---------------------------------------------------------------------------

/// A service whose API call blocks until its timeout: no member ever
/// answers it ("silent" is an inbox nobody reads).
struct Blocked {
  std::shared_ptr<void> service;
  std::function<void(Duration)> call;
};

struct BlockingCase {
  std::string name;
  std::function<Blocked(Dapplet&)> make;
};

std::vector<BlockingCase> blockingCases() {
  return {
      {"TerminationAwait",
       [](Dapplet& d) {
         auto td = std::make_shared<TerminationDetector>(d);
         td->attach({td->ref()}, 0, 0);
         td->start();  // the root stays engaged: never quiet
         return Blocked{td, [td = td.get()](Duration t) {
                          td->awaitTermination(t);
                        }};
       }},
      {"BarrierWait",
       [](Dapplet& d) {
         auto bar = std::make_shared<DistributedBarrier>(d, "b");
         bar->attach({bar->ref(), d.createInbox("silent").ref()}, 0);
         return Blocked{bar, [bar = bar.get()](Duration t) {
                          bar->arriveAndWait(t);
                        }};
       }},
      {"AssignmentGet",
       [](Dapplet& d) {
         auto var = std::make_shared<DistributedSingleAssignment>(d, "v");
         var->attach({var->ref()}, 0);
         return Blocked{var,
                        [var = var.get()](Duration t) { var->get(t); }};
       }},
      {"TotalOrderTake",
       [](Dapplet& d) {
         auto group = std::make_shared<TotalOrderGroup>(d, "g");
         group->attach({group->ref()}, 0);
         return Blocked{group,
                        [group = group.get()](Duration t) { group->take(t); }};
       }},
      {"CausalTake",
       [](Dapplet& d) {
         auto group = std::make_shared<CausalGroup>(d, "g");
         group->attach({group->ref()}, 0);
         return Blocked{group,
                        [group = group.get()](Duration t) { group->take(t); }};
       }},
      {"MutexLock",
       [](Dapplet& d) {
         auto mutex = std::make_shared<DistributedMutex>(d, "m");
         mutex->attach({mutex->ref(), d.createInbox("silent").ref()}, 0);
         return Blocked{mutex, [mutex = mutex.get()](Duration t) {
                          mutex->acquire(t);
                        }};
       }},
      {"TokenRequest",
       [](Dapplet& d) {
         TokenConfig cfg;
         cfg.probeDelay = seconds(60);  // no deadlock verdict in the test
         auto tokens = std::make_shared<TokenManager>(d, cfg);
         tokens->attach({tokens->ref()}, 0, {{"red", 1}});
         tokens->request({{"red", 1}});  // the only token is held here
         return Blocked{tokens, [tokens = tokens.get()](Duration t) {
                          tokens->request({{"red", 1}}, t);
                        }};
       }},
      {"CheckpointTake",
       [](Dapplet& d) {
         auto ckpt =
             std::make_shared<CheckpointService>(d, [] { return Value(); });
         ckpt->attach({ckpt->ref(), d.createInbox("silent").ref()}, 0);
         return Blocked{ckpt, [ckpt = ckpt.get()](Duration t) {
                          ckpt->take(milliseconds(10), t);
                        }};
       }},
      {"MarkerTake",
       [](Dapplet& d) {
         auto region =
             std::make_shared<MarkerRegion>(d, [] { return Value(); });
         region->attach({region->ref(), d.createInbox("silent").ref()}, 0, {},
                        0);
         return Blocked{region, [region = region.get()](Duration t) {
                          region->take(t);
                        }};
       }},
  };
}

struct TeardownParam {
  BlockingCase blocking;
  bool sharedReactor;
};

void PrintTo(const TeardownParam& p, std::ostream* os) {
  *os << p.blocking.name << (p.sharedReactor ? " (shared)" : " (owned)");
}

std::vector<TeardownParam> teardownParams() {
  std::vector<TeardownParam> out;
  for (const BlockingCase& c : blockingCases()) {
    out.push_back({c, true});
    out.push_back({c, false});
  }
  return out;
}

class ServiceTeardown : public ::testing::TestWithParam<TeardownParam> {
 protected:
  ServiceTeardown() : net_(21) {
    DappletConfig cfg;
    if (GetParam().sharedReactor) {
      Reactor::Options opts;
      opts.threads = 1;
      reactor_ = std::make_unique<Reactor>(opts);
      cfg.runtime.reactor = reactor_.get();
    }
    dapplet_ = std::make_unique<Dapplet>(net_, "svc", cfg);
  }

  SimNetwork net_;
  std::unique_ptr<Reactor> reactor_;
  std::unique_ptr<Dapplet> dapplet_;
};

// dapplet.stop() from another thread wakes a caller blocked in the API with
// ShutdownError, long before the call's own timeout.
TEST_P(ServiceTeardown, StopWakesABlockedCaller) {
  Blocked blocked = GetParam().blocking.make(*dapplet_);
  std::exception_ptr outcome;
  const Stopwatch sw;
  std::thread caller([&] {
    try {
      blocked.call(seconds(60));
    } catch (...) {
      outcome = std::current_exception();
    }
  });
  std::this_thread::sleep_for(milliseconds(100));
  dapplet_->stop();
  caller.join();
  EXPECT_LT(sw.elapsed(), seconds(10));
  ASSERT_TRUE(outcome) << "the call returned although nothing answered it";
  EXPECT_THROW(std::rethrow_exception(outcome), ShutdownError);
}

// A service destroyed after its dapplet stopped (an owned reactor is then
// stopped too) tears down at once.
TEST_P(ServiceTeardown, DestroyedAfterItsDappletStopped) {
  Blocked blocked = GetParam().blocking.make(*dapplet_);
  dapplet_->stop();
  const Stopwatch sw;
  blocked.service.reset();
  EXPECT_LT(sw.elapsed(), seconds(1));
}

INSTANTIATE_TEST_SUITE_P(
    Services, ServiceTeardown, ::testing::ValuesIn(teardownParams()),
    [](const ::testing::TestParamInfo<TeardownParam>& info) {
      return info.param.blocking.name +
             (info.param.sharedReactor ? "_SharedReactor" : "_OwnedReactor");
    });

// Requests that reach a token manager before its attach() wait in its inbox
// and are served in arrival order after it — not in timestamp order: the
// second request carries the lower Lamport stamp, yet the first to arrive
// takes the one free token.
TEST(ServiceInbox, TokenRequestsBeforeAttachAreServedInArrivalOrder) {
  SimNetwork net(11);
  constexpr std::size_t kMembers = 3;
  const std::size_t home = TokenManager::homeOfColor("red", kMembers);
  const std::size_t first = (home + 1) % kMembers;
  const std::size_t second = (home + 2) % kMembers;
  std::vector<std::unique_ptr<Dapplet>> dapplets;
  std::vector<std::unique_ptr<TokenManager>> managers;
  std::vector<InboxRef> refs;
  for (std::size_t i = 0; i < kMembers; ++i) {
    dapplets.push_back(
        std::make_unique<Dapplet>(net, "t" + std::to_string(i)));
    managers.push_back(std::make_unique<TokenManager>(*dapplets.back()));
    refs.push_back(managers.back()->ref());
  }
  managers[first]->attach(refs, first, {});
  managers[second]->attach(refs, second, {});
  dapplets[first]->clock().advanceTo(1000);  // first's stamp is the later

  std::mutex mutex;
  std::vector<std::size_t> granted;
  const auto request = [&](std::size_t i) {
    try {
      managers[i]->request({{"red", 1}}, seconds(20));
    } catch (const Error&) {
      return;  // never granted: the final order check fails
    }
    std::scoped_lock lock(mutex);
    granted.push_back(i);
  };
  const auto grantedCount = [&] {
    std::scoped_lock lock(mutex);
    return granted.size();
  };
  Inbox& homeInbox = dapplets[home]->inbox("tokens.mgr");
  std::jthread t1([&] { request(first); });
  ASSERT_TRUE(eventually([&] { return homeInbox.size() == 1; }));
  std::jthread t2([&] { request(second); });
  ASSERT_TRUE(eventually([&] { return homeInbox.size() == 2; }));

  managers[home]->attach(refs, home, {{"red", 1}});
  ASSERT_TRUE(eventually([&] { return grantedCount() == 1; }));
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_EQ(grantedCount(), 1u) << "one token granted twice";
  managers[first]->release({{"red", 1}});
  t1.join();
  t2.join();
  EXPECT_EQ(granted, (std::vector<std::size_t>{first, second}));

  managers.clear();
  for (auto& d : dapplets) d->stop();
}

}  // namespace
}  // namespace dapple
