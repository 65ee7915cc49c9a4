#pragma once
// Per-layer measurements taken from outside the layers: counter snapshots
// whose deltas over a measured phase give per-message ratios, and layer
// floors — a layer's cost measured alone by calling it directly with the
// workload's own inputs (the serial codec on the workload's message, a raw
// `Endpoint` datagram one-way on the workload's network).

#include <cstdint>
#include <memory>

#include "dapple/core/reactor.hpp"
#include "dapple/net/sim.hpp"
#include "dapple/net/udp.hpp"
#include "dapple/reliable/reliable.hpp"
#include "dapple/serial/message.hpp"
#include "harness.hpp"

namespace perfbench {

enum class NetKind { kUdp, kSim };

/// Builds the workload's network; `sim`/`udp` receive the typed pointer of
/// whichever kind was built (the other is set to null).
std::unique_ptr<dapple::Network> makeNetwork(NetKind kind, std::uint64_t seed,
                                             const dapple::LinkParams& link,
                                             dapple::SimNetwork** sim,
                                             dapple::UdpNetwork** udp);

/// Counters of the layers under one workload at one instant.
struct Counters {
  std::int64_t t = 0;
  std::uint64_t handled = 0;  ///< deliveries handled / calls completed
  dapple::Reactor::Stats reactor;
  dapple::ReliableEndpoint::Stats tx;  ///< endpoints sending the data
  dapple::ReliableEndpoint::Stats rx;  ///< endpoints receiving it
  std::uint64_t netSent = 0;  ///< datagrams handed to the network
  std::uint64_t netLost = 0;  ///< dropped by the link or failed to send
};

/// Adds `s` into `into` (the fields counterMetrics reads).
void addStats(dapple::ReliableEndpoint::Stats& into,
              const dapple::ReliableEndpoint::Stats& s);

/// Fills `c.netSent`/`c.netLost` from whichever network is non-null.
void readNetwork(const dapple::SimNetwork* sim, const dapple::UdpNetwork* udp,
                 Counters& c);

/// The reactor.*, reliable.* and net.* per-layer metrics from the deltas
/// between snapshots `a` and `b`.
void counterMetrics(const Counters& a, const Counters& b, Metrics& m);

/// Times direct `encodeMessage`/`decodeMessage` calls on `msg` and records
/// `serial.encode_us.p50`, `serial.decode_us.p50` and `serial.frame_bytes`.
void serialFloors(const dapple::Message& msg, dapple::WireCodec codec,
                  Metrics& out);

/// Median one-way time of a `frameBytes` datagram between two raw
/// endpoints of a fresh network of the workload's kind: `sendBatch` start
/// to the receiving handler, one datagram in flight at a time.  In us.
double rawOnewayP50(NetKind kind, const dapple::LinkParams& link,
                    std::uint64_t seed, std::size_t frameBytes, int samples);

}  // namespace perfbench
