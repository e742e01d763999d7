#include "sim/device_model.h"

#include <algorithm>
#include <map>

#include "common/env.h"
#include "common/mutex.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace papyrus::sim {

const char* DeviceClassName(DeviceClass c) {
  switch (c) {
    case DeviceClass::kDram: return "dram";
    case DeviceClass::kNvme: return "nvme";
    case DeviceClass::kSataSsd: return "ssd";
    case DeviceClass::kBurstBuffer: return "bb";
    case DeviceClass::kLustre: return "lustre";
  }
  return "dram";
}

DeviceClass ParseDeviceClass(const std::string& name) {
  if (name == "nvme") return DeviceClass::kNvme;
  if (name == "ssd") return DeviceClass::kSataSsd;
  if (name == "bb" || name == "burstbuffer") return DeviceClass::kBurstBuffer;
  if (name == "lustre") return DeviceClass::kLustre;
  return DeviceClass::kDram;
}

DevicePerf PerfFor(DeviceClass c) {
  // Latencies in microseconds, bandwidths in MB/s per channel.  Calibrated
  // to 2017-era devices: enterprise NVMe (~10us read latency, 2+ GB/s),
  // SATA SSD (~80us, ~500 MB/s), Cray DataWarp burst buffer (network hop +
  // striping over BB nodes), Lustre (client→OSS round trip ~ms, striped
  // OSTs giving high aggregate bandwidth but poor small random reads).
  switch (c) {
    case DeviceClass::kDram:
      return DevicePerf{0, 0, 0, 0, 1};
    case DeviceClass::kNvme:
      return DevicePerf{10, 15, 2400, 1200, 1};
    case DeviceClass::kSataSsd:
      return DevicePerf{80, 90, 500, 400, 1};
    case DeviceClass::kBurstBuffer:
      return DevicePerf{250, 250, 1400, 1400, 8};
    case DeviceClass::kLustre:
      return DevicePerf{1500, 900, 550, 550, 8};
  }
  return DevicePerf{};
}

namespace {
std::atomic<double> g_time_scale{-1.0};
}

double TimeScale() {
  double s = g_time_scale.load(std::memory_order_relaxed);
  if (s < 0) {
    auto env = EnvString("PAPYRUS_TIMESCALE");
    s = env ? strtod(env->c_str(), nullptr) : 0.0;
    g_time_scale.store(s, std::memory_order_relaxed);
  }
  return s;
}

void SetTimeScale(double s) {
  g_time_scale.store(s, std::memory_order_relaxed);
}

Device::Device(DeviceClass cls)
    : cls_(cls),
      perf_(PerfFor(cls)),
      channel_busy_until_(static_cast<size_t>(std::max(1, perf_.stripes))) {
  for (auto& c : channel_busy_until_) c.store(0);
  const std::string prefix = std::string("sim.dev.") + DeviceClassName(cls);
  m_ops_[0] = prefix + ".read_ops";
  m_ops_[1] = prefix + ".write_ops";
  m_bytes_[0] = prefix + ".bytes_read";
  m_bytes_[1] = prefix + ".bytes_written";
  m_us_[0] = prefix + ".read_us";
  m_us_[1] = prefix + ".write_us";
}

void Device::ChargeRead(uint64_t bytes) {
  read_ops_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
  Charge(bytes, /*is_write=*/false);
}

void Device::ChargeWrite(uint64_t bytes) {
  write_ops_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  Charge(bytes, /*is_write=*/true);
}

void Device::Charge(uint64_t bytes, bool is_write) {
  // The calling rank's metrics.  Each thread resolves them once per
  // registry, device class and direction, keyed by Registry::id() (a
  // registry address can come back holding different metrics); the
  // latency histogram only once a delay is modelled.
  struct DevMetrics {
    uint64_t registry_id = 0;
    obs::Counter* ops = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Histogram* us = nullptr;
  };
  constexpr size_t kClasses = static_cast<size_t>(DeviceClass::kLustre) + 1;
  thread_local DevMetrics cached[kClasses][2];
  const int dir = is_write ? 1 : 0;
  DevMetrics& m = cached[static_cast<size_t>(cls_)][dir];
  obs::Registry& reg = obs::Current();
  if (m.registry_id != reg.id()) {
    m.ops = &reg.GetCounter(m_ops_[dir]);
    m.bytes = &reg.GetCounter(m_bytes_[dir]);
    m.us = nullptr;
    m.registry_id = reg.id();
  }
  m.ops->Inc();
  m.bytes->Inc(bytes);

  const double scale = TimeScale();
  if (scale <= 0 || cls_ == DeviceClass::kDram) return;

  const double lat_us =
      (is_write ? perf_.write_latency_us : perf_.read_latency_us) * scale;
  const double bw = is_write ? perf_.write_bw_mbps : perf_.read_bw_mbps;
  // Transfer time on one channel, scaled.  bw is MB/s => bytes/us = bw.
  const double xfer_us = bw > 0 ? (static_cast<double>(bytes) / bw) * scale : 0;

  // Reserve time on a channel: transfers on the same channel serialize,
  // channels run in parallel (striping).
  const size_t ch =
      next_channel_.fetch_add(1, std::memory_order_relaxed) %
      channel_busy_until_.size();
  const uint64_t now = NowMicros();
  uint64_t prev = channel_busy_until_[ch].load(std::memory_order_relaxed);
  uint64_t start, done;
  do {
    start = std::max(now, prev);
    done = start + static_cast<uint64_t>(xfer_us);
  } while (!channel_busy_until_[ch].compare_exchange_weak(
      prev, done, std::memory_order_relaxed));

  // The caller experiences submission latency plus its queued transfer.
  const uint64_t completion =
      std::max(done, now + static_cast<uint64_t>(lat_us));
  if (m.us == nullptr) m.us = &reg.GetHistogram(m_us_[dir]);
  m.us->Record(completion > now ? completion - now : 0);
  if (completion > now) PreciseSleepMicros(completion - now);
}

void Device::ResetCounters() {
  bytes_read_ = 0;
  bytes_written_ = 0;
  read_ops_ = 0;
  write_ops_ = 0;
}

struct DeviceRegistry::Impl {
  // Leaf lock: guards the mount→device map; Device counters are atomics.
  Mutex mu{"device_registry_mu"};
  std::map<std::string, std::shared_ptr<Device>> devices GUARDED_BY(mu);
};

DeviceRegistry::DeviceRegistry() : impl_(std::make_shared<Impl>()) {}

DeviceRegistry& DeviceRegistry::Instance() {
  static DeviceRegistry reg;
  return reg;
}

std::shared_ptr<Device> DeviceRegistry::GetOrCreate(const std::string& root,
                                                    DeviceClass cls) {
  MutexLock lock(&impl_->mu);
  auto it = impl_->devices.find(root);
  if (it != impl_->devices.end()) return it->second;
  auto dev = std::make_shared<Device>(cls);
  impl_->devices.emplace(root, dev);
  return dev;
}

std::shared_ptr<Device> DeviceRegistry::Lookup(const std::string& root) {
  MutexLock lock(&impl_->mu);
  // Longest-prefix match so a file path under a mounted root finds its
  // device.
  std::shared_ptr<Device> best;
  size_t best_len = 0;
  for (const auto& [mount, dev] : impl_->devices) {
    if (root.rfind(mount, 0) == 0 && mount.size() >= best_len) {
      best = dev;
      best_len = mount.size();
    }
  }
  if (best) return best;
  static std::shared_ptr<Device> dram =
      std::make_shared<Device>(DeviceClass::kDram);
  return dram;
}

void DeviceRegistry::Clear() {
  MutexLock lock(&impl_->mu);
  impl_->devices.clear();
}

}  // namespace papyrus::sim
