// Continuous time-series telemetry (DESIGN.md §13): a per-rank background
// sampler that turns the cumulative metrics registry into windowed series —
// counter deltas, gauge levels, and per-window log2-histogram percentiles —
// published into a lock-free ring and exported as timeline-v1 JSON next to
// the PAPYRUSKV_STATS dumps.
//
// Design constraints, in order:
//   1. The sampling tick (SampleOnce) must be lock-free: every tracked
//      metric is resolved to its raw pointer once, in Configure/Start (the
//      only place the registry mutex is touched), and a tick reads only
//      relaxed atomics and writes only ring-slot atomics.  papyrus_analyze
//      walks the call graph from SampleOnce and rejects anything blocking
//      or lock-holding on the path, the same way it polices the RPC
//      engine's handler-side path.
//   2. Deltas must be monotone-safe against papyruskv_stats_reset: a
//      counter observed below its previous value restarts the baseline at
//      zero (delta = current) instead of underflowing into a 2^64 spike;
//      histogram windows clamp per bucket the same way.
//   3. Ranks are emulated as threads sharing one steady clock (NowMicros),
//      so per-rank timelines merge into aligned lanes without rebasing —
//      the same property --trace-merge exploits.
//
// The ring reuses the flight recorder's seq-validation slot protocol
// (obs/flight.h): the writer clears seq, stores the payload, then publishes
// seq with release order; a reader racing a wrap sees the mismatch and
// skips the torn slot.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace papyrus::obs {

// ---------------------------------------------------------------------------
// Schema: which metrics a sampler tracks.  Fixed at Configure() time so
// every ring slot has the same shape and the exported series align.
// ---------------------------------------------------------------------------
struct TimelineSchema {
  std::vector<std::string> counters;    // exported as per-window deltas
  std::vector<std::string> gauges;      // exported as point-in-time levels
  std::vector<std::string> histograms;  // exported as (count, p50, p99)

  // The store-wide default set: op latency, pipeline depth/backpressure,
  // replication lag/degraded, and the fault-path counters — the signals
  // the failover and (future) elastic-membership benches bound.
  static TimelineSchema Default();

  size_t TotalSeries() const {
    return counters.size() + gauges.size() + histograms.size();
  }
};

// Index of `name` in `names`, or -1.
int SeriesIndex(const std::vector<std::string>& names, std::string_view name);

// One sampled window, decoded from a ring slot.
struct TimelineSample {
  uint64_t seq = 0;    // 1-based sample ticket
  uint64_t t_us = 0;   // window END on the shared steady clock
  uint64_t dt_us = 0;  // window length (t_us - previous sample's t_us)
  struct HistWindow {
    uint64_t count = 0;  // recordings inside the window
    uint64_t p50 = 0;    // percentile of the window's bucket deltas, us
    uint64_t p99 = 0;
  };
  std::vector<uint64_t> counters;  // deltas, schema.counters order
  std::vector<int64_t> gauges;     // levels, schema.gauges order
  std::vector<HistWindow> hists;   // schema.histograms order
};

// A parsed (or about-to-be-rendered) timeline-v1 document.
struct TimelineDoc {
  int rank = 0;
  int nranks = 1;
  uint64_t interval_us = 0;
  uint64_t samples_taken = 0;  // total ever sampled (incl. overwritten)
  uint64_t dropped = 0;        // overwritten by ring wrap
  TimelineSchema schema;
  std::vector<TimelineSample> samples;  // oldest first
};

std::string TimelineDocToJson(const TimelineDoc& doc);
// Fails on anything that is not a timeline-v1 document.
bool ParseTimelineJson(const std::string& text, TimelineDoc* out);

// ---------------------------------------------------------------------------
// TimelineSampler
// ---------------------------------------------------------------------------
class TimelineSampler {
 public:
  explicit TimelineSampler(Registry* reg) : reg_(reg) {}
  ~TimelineSampler();
  TimelineSampler(const TimelineSampler&) = delete;
  TimelineSampler& operator=(const TimelineSampler&) = delete;

  // Resolves every tracked metric to its raw pointer (creating it if
  // needed) and sizes the ring.  Must be called before Start, from a
  // single thread.  interval_us == 0 leaves the sampler disabled.
  void Configure(TimelineSchema schema, uint64_t interval_us,
                 size_t capacity = kDefaultCapacity);

  // Launches the sampler thread (no-op when disabled).  on_thread_start
  // runs first on the new thread — the runtime uses it to adopt the rank's
  // observability context.
  void Start(std::function<void()> on_thread_start = nullptr);
  // Takes one final sample (so short runs still export a tail window) and
  // joins the thread.  Idempotent.
  void Stop();

  bool enabled() const { return interval_us_ > 0; }
  uint64_t interval_us() const { return interval_us_; }
  const TimelineSchema& schema() const { return schema_; }
  uint64_t samples_taken() const {
    return next_.load(std::memory_order_relaxed);
  }

  // Most recent published sample; false when none yet.  Lock-free.
  bool Latest(TimelineSample* out) const;
  // Surviving window, oldest first, torn slots skipped.  Lock-free.
  std::vector<TimelineSample> Samples() const;
  // The full document for this rank (live: callable while sampling).
  TimelineDoc Doc(int rank, int nranks) const;

  static constexpr size_t kDefaultCapacity = 4096;

 private:
  void SamplerLoop();
  // One tick: read every tracked metric, compute monotone-safe deltas
  // against prev_*, publish one ring slot.  Lock-free by construction —
  // enforced by papyrus_analyze (pipeline-blocking, SAMPLER_ROOTS).
  void SampleOnce();
  bool ReadSlot(uint64_t ticket, TimelineSample* out) const;

  Registry* reg_;
  TimelineSchema schema_;
  uint64_t interval_us_ = 0;
  size_t capacity_ = 0;

  // Resolved once in Configure; the registry never deallocates metrics.
  std::vector<Counter*> counters_;
  std::vector<Gauge*> gauges_;
  std::vector<Histogram*> hists_;

  // Sampler-thread-only delta baselines (also touched by Stop after the
  // join, and by Configure before Start — never concurrently).
  std::vector<uint64_t> prev_counters_;
  std::vector<HistogramData> prev_hists_;
  uint64_t prev_t_us_ = 0;

  // Ring: capacity_ slots of kSlotHeader + TotalSeries-dependent payload
  // words, all atomics.  Slot word 0 is the seq (0 = never written).
  static constexpr size_t kSlotHeader = 3;  // seq, t_us, dt_us
  size_t stride_ = 0;                       // words per slot
  std::unique_ptr<std::atomic<uint64_t>[]> ring_;
  std::atomic<uint64_t> next_{0};  // sample tickets claimed

  std::function<void()> on_thread_start_;
  std::thread thread_;
  Mutex mu_{"timeline_mu"};
  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  bool running_ = false;  // Start/Stop caller-side state, single-threaded
};

// ---------------------------------------------------------------------------
// Merging: per-rank documents -> aligned lanes on the shared steady clock.
// ---------------------------------------------------------------------------

// A flight-recorder event lifted onto the timeline (the overlay).
struct TimelineEvent {
  int rank = 0;
  uint64_t ts_us = 0;
  std::string kind;  // "crash", "promote", "degraded", ...
  std::string what;
  int64_t a = 0;
  int64_t b = 0;
};

// Pulls the events out of a flight-v1 dump.  Kinds worth overlaying are
// the caller's policy (see kOverlayKinds in timeline.cc).
bool ParseFlightEvents(const std::string& text, std::vector<TimelineEvent>* out);

struct MergedTimeline {
  uint64_t t0_us = 0;      // left edge of window 0 (min over all samples)
  uint64_t window_us = 0;  // grid width (max sampler interval)
  size_t windows = 0;
  TimelineSchema schema;
  struct Lane {
    int rank = 0;
    // One cell per grid window; present[w] == 0 marks a gap (rank idle,
    // dead, or its sampler missed the window).
    std::vector<TimelineSample> cells;
    std::vector<char> present;
  };
  std::vector<Lane> lanes;            // sorted by rank
  std::vector<TimelineEvent> events;  // ts-sorted, possibly empty
};

// Aligns every document's samples onto one grid.  Documents whose schema
// differs from docs[0] are skipped (mismatched runs cannot merge).  Events
// outside [t0, end) clamp to the nearest window at render time.
MergedTimeline MergeTimelines(const std::vector<TimelineDoc>& docs,
                              std::vector<TimelineEvent> events = {});

// Versioned machine-readable merge (timeline-merged-v1) — byte-stable for
// a given input (golden-tested).
std::string MergedTimelineToJson(const MergedTimeline& m);

// Human tables: per-rank throughput lanes (kop/s over the kv.* histogram
// windows) with total, approximate aggregate p50/p99, and the flight-event
// overlay, followed by a per-series window table for counters/gauges that
// moved.  Returned as text so benches and tests can bound a transient on
// the same rendering the CLI prints.
std::string RenderTimelineTables(const MergedTimeline& m);

// Per-window total ops/s summed over `m`'s kv.* histogram lanes (the
// series the lanes table plots); empty when the schema has none.
std::vector<double> WindowOpsPerSec(const MergedTimeline& m);

}  // namespace papyrus::obs
