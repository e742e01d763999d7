#include "sim/interconnect.h"

#include <algorithm>

#include "common/timer.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "sim/device_model.h"

namespace papyrus::sim {

Interconnect::Interconnect(const Topology& topo, LinkPerf inter,
                           LinkPerf intra)
    : topo_(topo),
      inter_(inter),
      intra_(intra),
      nic_busy_until_(static_cast<size_t>(std::max(1, topo.NumNodes()))) {
  for (auto& n : nic_busy_until_) n.store(0);
}

namespace {

// Reserves xfer_us on the serial channel `busy` and returns the completion
// timestamp.
uint64_t Reserve(std::atomic<uint64_t>& busy, uint64_t now, uint64_t xfer_us) {
  uint64_t prev = busy.load(std::memory_order_relaxed);
  uint64_t start, done;
  do {
    start = std::max(now, prev);
    done = start + xfer_us;
  } while (!busy.compare_exchange_weak(prev, done,
                                       std::memory_order_relaxed));
  return done;
}

}  // namespace

uint64_t Interconnect::Charge(int src, int dst, uint64_t bytes) {
  messages_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
  // Charge runs on the sending rank's thread, so these land in the sender's
  // per-rank registry.  Each thread resolves the two counters once per
  // registry, keyed by Registry::id(): a registry address can come back
  // (finalize, then init) holding different counters.
  {
    struct NetCounters {
      uint64_t registry_id = 0;
      obs::Counter* messages = nullptr;
      obs::Counter* bytes = nullptr;
    };
    thread_local NetCounters cached;
    obs::Registry& reg = obs::Current();
    if (cached.registry_id != reg.id()) {
      cached.messages = &reg.GetCounter("sim.net.messages");
      cached.bytes = &reg.GetCounter("sim.net.bytes");
      cached.registry_id = reg.id();
    }
    cached.messages->Inc();
    cached.bytes->Inc(bytes);
  }

  // net.msg.delay adds propagation delay even at TimeScale 0, so delay
  // faults work in the tests' zero-latency configuration.
  uint64_t fault_delay_us = 0;
  if (fault::Enabled() && src != dst) {
    static fault::Point& delay =
        fault::Registry::Instance().GetPoint("net.msg.delay");
    if (delay.Fire()) fault_delay_us = fault::DelayMicros();
  }

  const double scale = TimeScale();
  if (scale <= 0 || src == dst) return fault_delay_us;

  const bool same_node = topo_.SameNode(src, dst);
  const LinkPerf& link = same_node ? intra_ : inter_;
  const uint64_t lat_us = static_cast<uint64_t>(link.latency_us * scale);
  const uint64_t inj_us = static_cast<uint64_t>(link.injection_us * scale);
  const uint64_t xfer_us = static_cast<uint64_t>(
      link.bw_mbps > 0 ? (static_cast<double>(bytes) / link.bw_mbps) * scale
                       : 0);

  uint64_t send_done;
  const uint64_t now = NowMicros();
  if (same_node) {
    // Shared-memory copy: no NIC involvement; the sender performs the copy.
    send_done = now + inj_us + xfer_us;
  } else {
    // The payload must pass through both endpoints' NICs; congestion on
    // either serializes.  The sender blocks until its payload has cleared
    // both (occupancy), but NOT for the propagation latency.
    const size_t sn = static_cast<size_t>(topo_.NodeOf(src));
    const size_t dn = static_cast<size_t>(topo_.NodeOf(dst));
    const uint64_t d1 = Reserve(nic_busy_until_[sn], now, xfer_us);
    const uint64_t d2 = Reserve(nic_busy_until_[dn], now, xfer_us);
    send_done = std::max(d1, d2) + inj_us;
  }
  if (send_done > now) PreciseSleepMicros(send_done - now);
  return lat_us + fault_delay_us;
}

void Interconnect::ResetCounters() {
  messages_ = 0;
  bytes_ = 0;
}

}  // namespace papyrus::sim
