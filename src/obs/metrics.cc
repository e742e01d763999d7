#include "obs/metrics.h"

#include <algorithm>

namespace papyrus::obs {

// ---------------------------------------------------------------------------
// TickClock
// ---------------------------------------------------------------------------

double TickClock::Scale() {
#if defined(__x86_64__) || defined(__i386__)
  // One ~1ms spin per process against the monotonic clock pins the tick
  // rate to well under 1% error — plenty for log2-bucketed histograms.
  static const double scale = [] {
    const uint64_t t0 = NowMicros();
    const uint64_t c0 = __builtin_ia32_rdtsc();
    uint64_t t1, c1;
    do {
      t1 = NowMicros();
      c1 = __builtin_ia32_rdtsc();
    } while (t1 - t0 < 1000);
    return static_cast<double>(t1 - t0) / static_cast<double>(c1 - c0);
  }();
  return scale;
#else
  return 1.0;  // Now() already returns microseconds
#endif
}

// ---------------------------------------------------------------------------
// HistogramData
// ---------------------------------------------------------------------------

double HistogramData::Percentile(double p) const {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: the smallest value with at least rank observations below
  // or at it.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(p / 100.0 * static_cast<double>(count) + 0.5));
  uint64_t cum = 0;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (cum + buckets[b] >= rank) {
      const double lower =
          b == 0 ? 0 : static_cast<double>(HistogramBucketUpper(b - 1) + 1);
      const double upper = static_cast<double>(HistogramBucketUpper(b));
      const double frac = static_cast<double>(rank - cum) /
                          static_cast<double>(buckets[b]);
      const double v = lower + (upper - lower) * frac;
      // The true extremes are tracked exactly; never report beyond them.
      return std::clamp(v, static_cast<double>(min),
                        static_cast<double>(max));
    }
    cum += buckets[b];
  }
  return static_cast<double>(max);
}

void HistogramData::Merge(const HistogramData& other) {
  if (other.count == 0) return;
  min = count == 0 ? other.min : std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    buckets[b] += other.buckets[b];
  }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

HistogramData Histogram::Snapshot() const {
  HistogramData d;
  // Count derives from the buckets so percentile ranks always see an
  // internally consistent distribution, even under concurrent Record().
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    d.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    d.count += d.buckets[b];
  }
  d.sum = sum_.load(std::memory_order_relaxed);
  d.max = max_.load(std::memory_order_relaxed);
  const uint64_t mn = min_.load(std::memory_order_relaxed);
  d.min = d.count == 0 ? 0 : mn;
  return d;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Snapshot / Registry
// ---------------------------------------------------------------------------

void Snapshot::Merge(const Snapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] += v;
  for (const auto& [name, h] : other.histograms) histograms[name].Merge(h);
}

namespace {
std::atomic<uint64_t> next_registry_id{1};
}  // namespace

Registry::Registry()
    : id_(next_registry_id.fetch_add(1, std::memory_order_relaxed)) {
  TickClock::ToMicros(0);
}

Counter& Registry::GetCounter(std::string_view name) {
  MutexLock lock(&mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
  MutexLock lock(&mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::GetHistogram(std::string_view name) {
  MutexLock lock(&mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

Snapshot Registry::TakeSnapshot() const {
  MutexLock lock(&mu_);
  Snapshot out;
  for (const auto& [name, c] : counters_) out.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) out.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) {
    out.histograms[name] = h->Snapshot();
  }
  return out;
}

void Registry::Reset() {
  MutexLock lock(&mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

Registry& Registry::Process() {
  static Registry* process = new Registry();  // leaked: outlives all threads
  return *process;
}

namespace {
thread_local Registry* tls_registry = nullptr;
}  // namespace

Registry& Current() {
  return tls_registry ? *tls_registry : Registry::Process();
}

void SetCurrentRegistry(Registry* r) { tls_registry = r; }

}  // namespace papyrus::obs
