// Simulated storage device performance model.
//
// The paper evaluates on real NVM hardware: node-local NVMe (Summitdev),
// node-local SATA SSD (Stampede), dedicated burst-buffer SSD nodes (Cori),
// and a Lustre parallel filesystem as the conventional alternative.  None of
// those are available here, so this module substitutes a *performance model
// layered over real POSIX files*: every byte still round-trips through the
// filesystem (the real SSTable format, real checksums), and each operation
// additionally pays a calibrated delay for latency and bandwidth of the
// modelled device class.
//
// What the calibration must preserve (the relations the paper's figures
// depend on, see DESIGN.md §1):
//   * NVM ≫ Lustre for small random reads (Fig. 6 get, Fig. 11): local NVM
//     has microsecond-scale latency, Lustre pays a network + OST round trip.
//   * Lustre and the burst buffer stripe files over many OSTs / BB nodes, so
//     their *aggregate* large-transfer bandwidth rivals or beats a single
//     local SSD (Fig. 6 barrier at large value sizes).
//   * The burst buffer is network-attached (higher latency than local NVM)
//     but striped (high bandwidth).
//
// Concurrency: a Device is shared by all ranks using that storage target.
// Latency is paid in parallel (devices pipeline submissions), while
// bandwidth is a contended resource: each transfer reserves time on one of
// `stripes` channels, so concurrent writers share (stripes × channel_bw).
//
// All delays scale with a global time-scale (PAPYRUS_TIMESCALE); tests run
// with 0 (no delays), benches with a small factor so runs take seconds.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace papyrus::sim {

enum class DeviceClass {
  kDram,         // no injected delay (MemTable operations)
  kNvme,         // Summitdev: node-local 800 GB NVMe
  kSataSsd,      // Stampede: node-local 112 GB SSD
  kBurstBuffer,  // Cori: dedicated burst-buffer nodes, striped
  kLustre,       // parallel filesystem, striped over OSTs
};

const char* DeviceClassName(DeviceClass c);
// Parses "nvme", "ssd", "bb", "lustre", "dram"; returns kDram on mismatch.
DeviceClass ParseDeviceClass(const std::string& name);

struct DevicePerf {
  double read_latency_us = 0;   // fixed per-read submission cost
  double write_latency_us = 0;  // fixed per-write submission cost
  double read_bw_mbps = 0;      // per-channel sequential read bandwidth
  double write_bw_mbps = 0;     // per-channel sequential write bandwidth
  int stripes = 1;              // parallel channels (OSTs / BB nodes)
};

// Calibrated per-class parameters (values ≈ published device specs circa
// 2017; see DESIGN.md).
DevicePerf PerfFor(DeviceClass c);

// Global delay multiplier.  0 disables all injected delays.  Initialized
// from PAPYRUS_TIMESCALE (default 0: tests and functional runs are not
// slowed; benches set an explicit scale).
double TimeScale();
void SetTimeScale(double s);

// One simulated device instance.  All ranks mounting the same storage root
// share one Device, so they contend for its bandwidth.
class Device {
 public:
  explicit Device(DeviceClass cls);

  DeviceClass cls() const { return cls_; }
  const DevicePerf& perf() const { return perf_; }

  // Charges a read of `bytes` and sleeps for the modelled duration.
  void ChargeRead(uint64_t bytes);
  // Charges a write of `bytes` and sleeps for the modelled duration.
  void ChargeWrite(uint64_t bytes);

  // Counters for reporting.
  uint64_t bytes_read() const { return bytes_read_.load(); }
  uint64_t bytes_written() const { return bytes_written_.load(); }
  uint64_t read_ops() const { return read_ops_.load(); }
  uint64_t write_ops() const { return write_ops_.load(); }
  void ResetCounters();

 private:
  // Counts the I/O in the calling rank's metrics and sleeps for it.
  void Charge(uint64_t bytes, bool is_write);

  DeviceClass cls_;
  DevicePerf perf_;
  // Per-class metric names, looked up once per thread per registry (the
  // registry consulted is the *calling rank's* — a shared device reports
  // into each user's metrics).
  std::string m_ops_[2], m_bytes_[2], m_us_[2];  // [0]=read, [1]=write
  // busy-until timestamp (in microseconds of NowMicros) per stripe channel.
  std::vector<std::atomic<uint64_t>> channel_busy_until_;
  std::atomic<uint64_t> next_channel_{0};
  std::atomic<uint64_t> bytes_read_{0}, bytes_written_{0};
  std::atomic<uint64_t> read_ops_{0}, write_ops_{0};
};

// Process-wide registry mapping a storage root directory to its shared
// Device.  Two ranks opening files under the same root hit the same Device
// and therefore contend, exactly like two ranks sharing a node-local SSD.
class DeviceRegistry {
 public:
  static DeviceRegistry& Instance();

  // Returns the device for `root`, creating it with class `cls` on first
  // use.  A later call with a different class keeps the original (first
  // mount wins) — mirrors a mounted filesystem.
  std::shared_ptr<Device> GetOrCreate(const std::string& root,
                                      DeviceClass cls);

  // Device for `root` if registered, else a DRAM (no-delay) device.
  std::shared_ptr<Device> Lookup(const std::string& root);

  void Clear();

 private:
  DeviceRegistry();
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace papyrus::sim
