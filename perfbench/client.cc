// perfbench_client — one seeded, closed-loop PapyrusKV workload driven
// through the public C API (papyruskv_*), plus optional layer probes.
// perfbench/run.py builds it, runs it and turns its record into metrics;
// perfbench/README.md explains the workloads and metrics.
//
//   perfbench_client --workload=NAME --seed=N --seconds=S --repo=DIR
//                    [--probes=0|1] [--corrupt-expected=0|1]
//                    [--measured-only=0|1]
//
// Prints one JSON record on stdout: the slowest rank's time per job and
// rate per run round, percentiles of the latencies the client timed around
// every API call, correctness counts, the probe results, and each rank's
// papyruskv_stats() document after every phase (open, load, run, end).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/layout.h"
#include "core/papyruskv.h"
#include "net/runtime.h"
#include "obs/export.h"
#include "sim/device_model.h"
#include "sim/storage.h"
#include "store/format.h"

namespace perfbench {
namespace {

constexpr int kRanks = 2;
constexpr char kDbName[] = "perfbench";

enum class LoadPath {
  kStagedRemote,  // papyruskv_put of peer-owned keys, relaxed staging
  kLocal,         // papyruskv_put of own keys only: no migration
  kAsyncRemote,   // papyruskv_put_async of peer-owned keys, then fence
};

struct Workload {
  const char* name;
  int consistency;
  int replicas;
  LoadPath load;
  size_t keys_per_rank;
  int load_barrier;     // closing barrier level; 0 = papyruskv_fence
  double update_share;  // run-phase share of sync puts
  double absent_share;  // run-phase share of gets on never-written keys
  bool flushed_start;   // the run starts from a fully flushed store
  int load_reps;
};

// Sizes (2 ranks, 16 B keys, 100 B values, 4 MiB MemTable, 8 MiB cache):
//  * remote_get: 16384 keys per owner, 2.5 MiB of MemTable charge, so the
//    working set stays in the owner's MemTable.
//  * local_sstable_get: 440000 keys per rank is 51 MB of user data, over
//    4 x (MemTable + local cache) = 48 MiB, so most gets reach SSTables.
//  * replicated_update: 131072 keys per owner, 20 MiB of MemTable charge,
//    so uniform updates keep filling and flushing the owner's MemTable.
// flushed_start: an untimed barrier(SSTABLE) after the load, so the run and
// the load-phase store counters never depend on how far background flushes
// got.  load_reps: how many fresh jobs load the data; a cheap load is
// repeated so its median is steady.
constexpr Workload kWorkloads[] = {
    {"remote_get", PAPYRUSKV_RELAXED, 1, LoadPath::kStagedRemote, 16384,
     PAPYRUSKV_MEMTABLE, 0.0, 0.0, false, 9},
    {"local_sstable_get", PAPYRUSKV_RELAXED, 1, LoadPath::kLocal, 440000,
     PAPYRUSKV_SSTABLE, 0.0, 0.1, true, 1},
    {"replicated_update", PAPYRUSKV_SEQUENTIAL, 2, LoadPath::kAsyncRemote,
     131072, 0, 0.5, 0.0, true, 3},
};

// Timed phases are cut into windows (run rounds of seconds/kRounds, load
// chunks of keys/kLoadChunks per load job); a latency is reported as the
// median over windows of the per-window percentile, which a short burst of
// host noise cannot move.
constexpr int kRounds = 10;
constexpr int kLoadChunks = 8;
constexpr int kSetupReps = 45;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string repo;
  bool probes = false;
  bool corrupt_expected = false;
  bool measured_only = false;  // skip the extra load and set-up jobs
};

// Latency samples in ns, one vector per window.
struct Samples {
  std::vector<std::vector<uint64_t>> windows;
  void Add(size_t w, uint64_t ns) {
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(ns);
  }
};

// Everything one rank measured, over every job of the run.
struct RankState {
  std::vector<double> setup_s, load_s, close_s;  // one per job
  std::vector<uint64_t> round_ops;
  std::vector<double> round_s;
  uint64_t run_gets = 0, run_puts = 0;
  uint64_t attempted = 0, failed = 0;
  long long repl_lag_max = 0;
  // Client spans around API calls.  put holds the run-phase updates where
  // the run has them, else the load-phase papyruskv_puts.
  Samples get_local, get_remote, put, submit;
  std::vector<std::string> stats;  // papyruskv_stats after each phase
  int target = 0;                  // owner of every key this rank writes
  std::vector<std::string> keys;
  std::vector<uint32_t> versions;  // last version written; 0 = unknown
  std::vector<std::string> absent;
  std::vector<std::string> errors;  // first few failures, for stderr
  uint64_t repo_bytes = 0;
};

void Check(int rc, const char* what) {
  if (rc != PAPYRUSKV_SUCCESS) {
    throw std::runtime_error(std::string(what) + ": " +
                             papyrus::ErrorName(rc));
  }
}

void NoteFailure(RankState* st, const std::string& what) {
  ++st->failed;
  if (st->errors.size() < 5) st->errors.push_back(what);
}

std::string RankStats() {
  // Background threads keep counting, so the document may outgrow the size
  // just queried; the call then reports the new size and is retried.
  size_t len = 0;
  Check(papyruskv_stats(-1, nullptr, &len), "papyruskv_stats");
  std::string buf;
  int rc;
  do {
    buf.assign(len + 4096, '\0');
    len = buf.size();
    rc = papyruskv_stats(-1, buf.data(), &len);
  } while (rc == PAPYRUSKV_INVALID_ARG && len > buf.size());
  Check(rc, "papyruskv_stats");
  buf.resize(len);
  return buf;
}

double Counter(const std::string& stats, const std::string& name) {
  papyrus::obs::JsonValue doc;
  if (!papyrus::obs::ParseJson(stats, &doc)) return -1;
  const papyrus::obs::JsonValue* counters = doc.Find("counters");
  const papyrus::obs::JsonValue* v = counters ? counters->Find(name) : nullptr;
  return v ? v->number : 0;
}

// Waits until this rank's flush and compaction counters stop changing, so a
// timed phase never starts with background store work still running.
void Settle() {
  const std::string db = std::string("db.") + kDbName + ".";
  double last = -1;
  for (int i = 0; i < 600; ++i) {
    const std::string s = RankStats();
    const double now = Counter(s, db + "flushes") * 1e6 +
                       Counter(s, db + "compactions");
    if (now == last) return;
    last = now;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  throw std::runtime_error("store did not settle within 30 s");
}

double OpenDb(const Workload& w, const std::string& spec,
              papyruskv_db_t* db) {
  const uint64_t t0 = NowNs();
  Check(papyruskv_init(nullptr, nullptr, spec.c_str()), "papyruskv_init");
  papyruskv_option_t opt;
  Check(papyruskv_option_init(&opt), "papyruskv_option_init");
  opt.consistency = w.consistency;
  opt.replicas = w.replicas;
  Check(papyruskv_open(kDbName, PAPYRUSKV_CREATE | PAPYRUSKV_RDWR, &opt, db),
        "papyruskv_open");
  return static_cast<double>(NowNs() - t0) / 1e9;
}

uint32_t InitialVersion(uint64_t seed, uint64_t i) {
  return 1 + static_cast<uint32_t>(Mix64(seed ^ Mix64(i)) % 1000);
}

// Keys are drawn from one seeded stream; each rank keeps the ones whose
// owner is its target, so no two ranks ever write the same key.
void GenerateKeys(const Workload& w, const Args& a, int rank, int nranks,
                  papyruskv_db_t db, RankState* st) {
  st->target = w.load == LoadPath::kLocal ? rank : (rank + 1) % nranks;
  st->keys.clear();
  st->versions.clear();
  st->absent.clear();
  for (uint64_t i = 0; st->keys.size() < w.keys_per_rank; ++i) {
    std::string k = MakeKey('w', a.seed, i);
    int owner = -1;
    Check(papyruskv_hash(db, k.data(), k.size(), &owner), "papyruskv_hash");
    if (owner != st->target) continue;
    st->keys.push_back(std::move(k));
    st->versions.push_back(InitialVersion(a.seed, i));
  }
  if (w.absent_share <= 0) return;
  // Never-written keys the issuing rank owns: the bloom filter's negatives.
  for (uint64_t i = 0; st->absent.size() < w.keys_per_rank / 8; ++i) {
    std::string k = MakeKey('a', a.seed, i);
    int owner = -1;
    Check(papyruskv_hash(db, k.data(), k.size(), &owner), "papyruskv_hash");
    if (owner == rank) st->absent.push_back(std::move(k));
  }
}

void Load(const Workload& w, int job, papyruskv_db_t db, RankState* st) {
  const size_t chunk = (st->keys.size() + kLoadChunks - 1) / kLoadChunks;
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < st->keys.size(); ++i) {
    const std::string& k = st->keys[i];
    const std::string v = MakeValue(k, st->versions[i]);
    const size_t window = job * kLoadChunks + i / chunk;
    const uint64_t t = NowNs();
    int rc;
    if (w.load == LoadPath::kAsyncRemote) {
      rc = papyruskv_put_async(db, k.data(), k.size(), v.data(), v.size(),
                               nullptr);
      st->submit.Add(window, NowNs() - t);
    } else {
      rc = papyruskv_put(db, k.data(), k.size(), v.data(), v.size());
      st->put.Add(window, NowNs() - t);
    }
    ++st->attempted;
    if (rc != PAPYRUSKV_SUCCESS) {
      NoteFailure(st, "load put: " + std::string(papyrus::ErrorName(rc)));
    }
  }
  const uint64_t tc = NowNs();
  const int rc = w.load_barrier ? papyruskv_barrier(db, w.load_barrier)
                                : papyruskv_fence(db);
  const uint64_t end = NowNs();
  st->close_s.push_back(static_cast<double>(end - tc) / 1e9);
  ++st->attempted;
  if (rc != PAPYRUSKV_SUCCESS) {
    NoteFailure(st, "load close: " + std::string(papyrus::ErrorName(rc)));
  }
  st->load_s.push_back(static_cast<double>(end - t0) / 1e9);
}

void Run(const Workload& w, const Args& a, int rank, papyruskv_db_t db,
         RankState* st) {
  const bool remote = st->target != rank;
  const uint32_t update_cut = static_cast<uint32_t>(w.update_share * 65536);
  const uint32_t absent_cut = static_cast<uint32_t>(w.absent_share * 65536);
  uint64_t h = Mix64(a.seed ^ (0x5bd1e995ull * (rank + 1)));
  char buf[kValLen + 32];
  const uint64_t round_ns = static_cast<uint64_t>(a.seconds * 1e9 / kRounds);
  uint64_t now = NowNs();
  uint64_t ops = 0;
  for (int round = 0; round < kRounds; ++round) {
    // Rounds are cut by time alone, so both ranks' round r overlap.
    const uint64_t start = now;
    const uint64_t deadline = start + round_ns;
    uint64_t round_ops = 0;
    while (now < deadline) {
      h = Mix64(h);
      const bool update = (h & 0xffff) < update_cut;
      const bool absent = !update && ((h >> 16) & 0xffff) < absent_cut;
      const size_t idx = (h >> 32) % (absent ? st->absent.size()
                                             : st->keys.size());
      const std::string& k = absent ? st->absent[idx] : st->keys[idx];
      int rc;
      if (update) {
        const uint32_t ver = st->versions[idx] + 1;
        const std::string v = MakeValue(k, ver);
        const uint64_t t0 = NowNs();
        rc = papyruskv_put(db, k.data(), k.size(), v.data(), v.size());
        now = NowNs();
        st->put.Add(round, now - t0);
        ++st->run_puts;
        if (rc == PAPYRUSKV_SUCCESS) {
          st->versions[idx] = ver;
        } else {
          st->versions[idx] = 0;  // the owner may or may not have applied it
          NoteFailure(st, "put: " + std::string(papyrus::ErrorName(rc)));
        }
      } else {
        char* p = buf;
        size_t len = sizeof(buf);
        const uint64_t t0 = NowNs();
        rc = papyruskv_get(db, k.data(), k.size(), &p, &len);
        now = NowNs();
        (remote && !absent ? st->get_remote : st->get_local)
            .Add(round, now - t0);
        ++st->run_gets;
        if (absent) {
          if (rc != PAPYRUSKV_NOT_FOUND) {
            NoteFailure(st, "get of a never-written key returned " +
                                std::string(papyrus::ErrorName(rc)));
          }
        } else if (rc != PAPYRUSKV_SUCCESS) {
          NoteFailure(st, "get: " + std::string(papyrus::ErrorName(rc)));
        } else if (st->versions[idx] != 0) {
          std::string want_key = k;
          if (a.corrupt_expected && idx % 16 == 0) want_key[1] ^= 1;
          if (!ValueMatches(p, len, want_key, st->versions[idx])) {
            NoteFailure(st, "get returned a wrong value for " + k);
          }
        }
      }
      ++st->attempted;
      ++round_ops;
      if ((++ops & 1023) == 0) {
        papyruskv_health_t health;
        if (papyruskv_health(&health) == PAPYRUSKV_SUCCESS) {
          st->repl_lag_max = std::max(st->repl_lag_max, health.repl_lag_ops);
        }
      }
    }
    st->round_ops.push_back(round_ops);
    st->round_s.push_back(static_cast<double>(now - start) / 1e9);
  }
}

uint64_t TreeBytes(const std::string& root) {
  uint64_t bytes = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(root)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

// One job: set up, load, and (for the measured job) run and close.
void RankMain(const Workload& w, const Args& a, const std::string& spec,
              int job, bool measured, papyrus::net::RankContext& ctx,
              RankState* st) {
  papyruskv_db_t db;
  st->setup_s.push_back(OpenDb(w, spec, &db));
  if (measured) st->stats.push_back(RankStats());
  GenerateKeys(w, a, ctx.rank, ctx.size(), db, st);
  ctx.comm.Barrier();

  Load(w, job, db, st);
  ctx.comm.Barrier();
  if (measured) {
    if (w.flushed_start) {
      Check(papyruskv_barrier(db, PAPYRUSKV_SSTABLE), "papyruskv_barrier");
    }
    Settle();
    st->stats.push_back(RankStats());

    ctx.comm.Barrier();
    Run(w, a, ctx.rank, db, st);
    ctx.comm.Barrier();
    st->stats.push_back(RankStats());

    // Closing state for space amplification: everything on NVM, no
    // background work left.
    Check(papyruskv_barrier(db, PAPYRUSKV_SSTABLE), "papyruskv_barrier");
    Settle();
    ctx.comm.Barrier();
    if (ctx.rank == 0) {
      papyrus::sim::DeviceClass cls;
      std::string root;
      papyrus::core::ParseRepositorySpec(spec, &cls, &root);
      st->repo_bytes = TreeBytes(root);
    }
    st->stats.push_back(RankStats());
  }
  Check(papyruskv_close(db), "papyruskv_close");
  Check(papyruskv_finalize(), "papyruskv_finalize");
}

// Slowest rank's init+open over kSetupReps jobs on an empty repository.
std::vector<double> SetupSamples(const Workload& w, const std::string& spec,
                                 const std::string& root) {
  std::vector<double> out;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    papyrus::sim::Storage::RemoveDirRecursive(root).IgnoreError();
    double slowest[kRanks] = {};
    papyrus::net::RunRanks(kRanks, [&](papyrus::net::RankContext& ctx) {
      papyruskv_db_t db;
      slowest[ctx.rank] = OpenDb(w, spec, &db);
      Check(papyruskv_close(db), "papyruskv_close");
      Check(papyruskv_finalize(), "papyruskv_finalize");
    });
    out.push_back(*std::max_element(slowest, slowest + kRanks));
  }
  return out;
}

// Wire sizes of one remote get, averaged from the run phase's counters;
// shape-derived when the workload sends no get frames.
void GetFrameSizes(const std::vector<RankState>& st, size_t* req,
                   size_t* resp) {
  double req_b = 0, req_n = 0, resp_b = 0, resp_n = 0;
  for (const RankState& s : st) {
    const std::string& load = s.stats[1];
    const std::string& run = s.stats[2];
    req_b += Counter(run, "net.req.get_multi.bytes") -
             Counter(load, "net.req.get_multi.bytes");
    req_n += Counter(run, "net.req.get_multi.msgs") -
             Counter(load, "net.req.get_multi.msgs");
    resp_b += Counter(run, "net.resp.bytes") - Counter(load, "net.resp.bytes");
    resp_n += Counter(run, "net.resp.msgs") - Counter(load, "net.resp.msgs");
  }
  *req = req_n > 0 ? static_cast<size_t>(req_b / req_n) : kKeyLen + 32;
  *resp = resp_n > 0 ? static_cast<size_t>(resp_b / resp_n) : kValLen + 32;
}

std::string Probes(const Workload& w, const Args& a, const std::string& spec,
                   std::vector<RankState>& st) {
  size_t req = 0, resp = 0;
  GetFrameSizes(st, &req, &resp);
  const double rtt = NetRttP50Us(req, resp, 20000);

  const size_t mem_keys = std::min<size_t>(st[0].keys.size(), 16384);
  std::vector<std::string> keys(st[0].keys.begin(),
                                st[0].keys.begin() + mem_keys);
  std::vector<uint32_t> vers(st[0].versions.begin(),
                             st[0].versions.begin() + mem_keys);
  for (uint32_t& v : vers) v = std::max<uint32_t>(v, 1);
  const double memtable = MemTableGetP50Ns(keys, vers, 200000, a.seed);

  const double crc = Crc32cMbps(papyrus::store::kRecordHeaderSize - 4 +
                                kKeyLen + kValLen);

  // The same key mix the run phase drew, looked up in the tables the job
  // left behind (close flushed every MemTable).
  papyrus::sim::Topology topo;
  topo.nranks = kRanks;
  topo.ranks_per_node = kRanks;
  papyrus::core::StorageLayout layout(spec, topo, -1);
  std::vector<SstLookup> lookups;
  const uint32_t absent_cut = static_cast<uint32_t>(w.absent_share * 65536);
  uint64_t h = Mix64(a.seed ^ 0x9e3779b9ull);
  for (int i = 0; i < 50000; ++i) {
    h = Mix64(h);
    const RankState& s = st[i % kRanks];
    const bool absent = ((h >> 16) & 0xffff) < absent_cut;
    const size_t idx =
        (h >> 32) % (absent ? s.absent.size() : s.keys.size());
    const int rank = &s - st.data();
    SstLookup l;
    l.dir = layout.RankDir(kDbName, absent ? rank : s.target);
    l.key = absent ? s.absent[idx] : s.keys[idx];
    l.version = absent ? 0 : s.versions[idx];
    if (absent || l.version != 0) lookups.push_back(std::move(l));
  }
  uint64_t mismatches = 0;
  const double sst = SSTableGetP50Us(lookups, &mismatches);

  char out[512];
  snprintf(out, sizeof(out),
           "{\"net_rtt_p50_us\": %.4f, \"rtt_req_bytes\": %zu, "
           "\"rtt_resp_bytes\": %zu, \"memtable_get_p50_ns\": %.1f, "
           "\"crc32c_mbps\": %.3f, \"sstable_get_p50_us\": %.4f, "
           "\"sstable_lookups\": %zu, \"sstable_mismatches\": %llu}",
           rtt, req, resp, memtable, crc, sst, lookups.size(),
           static_cast<unsigned long long>(mismatches));
  return out;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

template <typename T, typename F>
std::string List(const std::vector<T>& v, F fmt) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ", ";
    out += fmt(v[i]);
  }
  return out + "]";
}

std::string Num(double v) {
  char b[64];
  snprintf(b, sizeof(b), "%.9g", v);
  return b;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// Window-median p50/p99 of the given samples, in microseconds: window i of
// every rank is merged before its percentiles are taken.
std::string Latency(const std::vector<RankState>& st,
                    std::initializer_list<Samples RankState::*> fields) {
  std::vector<std::vector<uint64_t>> windows;
  for (const RankState& s : st) {
    for (auto field : fields) {
      const auto& ws = (s.*field).windows;
      if (windows.size() < ws.size()) windows.resize(ws.size());
      for (size_t i = 0; i < ws.size(); ++i) {
        windows[i].insert(windows[i].end(), ws[i].begin(), ws[i].end());
      }
    }
  }
  size_t n = 0;
  std::vector<double> p50, p99;
  for (std::vector<uint64_t>& w : windows) {
    if (w.empty()) continue;
    n += w.size();
    p50.push_back(Percentile(&w, 50) / 1e3);
    p99.push_back(Percentile(&w, 99) / 1e3);
  }
  char out[160];
  snprintf(out, sizeof(out),
           "{\"count\": %zu, \"p50\": %.4f, \"p99\": %.4f}", n,
           Median(p50), Median(p99));
  return out;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("bad argument: " + arg);
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    if (key == "workload") a.workload = val;
    else if (key == "seed") a.seed = std::stoull(val);
    else if (key == "seconds") a.seconds = std::stod(val);
    else if (key == "repo") a.repo = val;
    else if (key == "probes") a.probes = val == "1";
    else if (key == "corrupt-expected") a.corrupt_expected = val == "1";
    else if (key == "measured-only") a.measured_only = val == "1";
    else throw std::invalid_argument("unknown argument: " + arg);
  }
  if (a.repo.empty() || a.seconds <= 0) {
    throw std::invalid_argument("--repo and a positive --seconds are required");
  }
  return a;
}

// The value check must reject a corrupted value, or no get is checked.
bool CheckFires() {
  const std::string k = MakeKey('w', 42, 7);
  std::string v = MakeValue(k, 3);
  if (!ValueMatches(v.data(), v.size(), k, 3)) return false;
  if (ValueMatches(v.data(), v.size(), k, 4)) return false;
  v[60] ^= 1;
  return !ValueMatches(v.data(), v.size(), k, 3);
}

int Main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (a.workload == c.name) w = &c;
  }
  if (!w) throw std::invalid_argument("unknown workload: " + a.workload);
  if (!CheckFires()) throw std::logic_error("value check does not fire");

  // No device or interconnect delays: latencies are the software path's.
  papyrus::sim::SetTimeScale(0);
  const std::string root = a.repo;
  const std::string spec = "nvme:" + root;

  std::vector<RankState> st(kRanks);
  auto job = [&](int j, bool measured) {
    papyrus::sim::Storage::RemoveDirRecursive(root).IgnoreError();
    papyrus::net::RunRanks(kRanks, [&](papyrus::net::RankContext& ctx) {
      RankMain(*w, a, spec, j, measured, ctx, &st[ctx.rank]);
    });
  };
  // The measured job runs first, so its peak RSS and timings carry nothing
  // over from earlier jobs in this process; the probes read the tables it
  // leaves.  Extra load jobs and set-up jobs follow.
  job(0, true);
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  const std::string probes = a.probes ? Probes(*w, a, spec, st) : "null";
  std::vector<double> setup;
  if (!a.measured_only) {
    for (int j = 1; j < w->load_reps; ++j) job(j, false);
    setup = SetupSamples(*w, spec, root);
  }
  papyrus::sim::Storage::RemoveDirRecursive(root).IgnoreError();

  uint64_t attempted = 0, failed = 0, written = 0, run_puts = 0;
  for (const RankState& s : st) {
    attempted += s.attempted;
    failed += s.failed;
    written += s.keys.size();
    run_puts += s.run_puts;
    for (const std::string& e : s.errors) {
      fprintf(stderr, "failure: %s\n", e.c_str());
    }
  }
  // Per job (or per round), the slowest rank.
  auto slowest = [&](std::vector<double> RankState::*field) {
    std::vector<double> v((st[0].*field).size(), 0);
    for (const RankState& s : st) {
      for (size_t i = 0; i < v.size(); ++i) {
        v[i] = std::max(v[i], (s.*field)[i]);
      }
    }
    return v;
  };
  for (double s : slowest(&RankState::setup_s)) setup.push_back(s);
  std::vector<double> round_kops(kRounds, 1e300);
  for (const RankState& s : st) {
    for (int r = 0; r < kRounds; ++r) {
      const double kops =
          static_cast<double>(s.round_ops[r]) / s.round_s[r] / 1e3;
      round_kops[r] = std::min(round_kops[r], kops);
    }
  }
  auto per_rank = [&](auto field) {
    std::vector<double> v;
    for (const RankState& s : st) v.push_back(static_cast<double>(s.*field));
    return List(v, Num);
  };

  std::string out = "{";
  out += "\"workload\": " + Quote(w->name);
  out += ", \"seed\": " + std::to_string(a.seed);
  out += ", \"ranks\": " + std::to_string(kRanks);
  out += ", \"keys_per_rank\": " + std::to_string(w->keys_per_rank);
  out += ", \"absent_keys_per_rank\": " + std::to_string(st[0].absent.size());
  out += ", \"key_bytes\": " + std::to_string(kKeyLen);
  out += ", \"value_bytes\": " + std::to_string(kValLen);
  out += ", \"update_share\": " + Num(w->update_share);
  out += ", \"absent_share\": " + Num(w->absent_share);
  out += ", \"replicas\": " + std::to_string(w->replicas);
  out += ", \"load_jobs\": " + std::to_string(st[0].load_s.size());
  out += ", \"rounds\": " + std::to_string(kRounds);
  out += ", \"setup_s\": " + List(setup, Num);
  out += ", \"load_s\": " + List(slowest(&RankState::load_s), Num);
  out += ", \"close_s\": " + List(slowest(&RankState::close_s), Num);
  out += ", \"close\": " + Quote(w->load_barrier ? "barrier" : "fence");
  out += ", \"round_kops\": " + List(round_kops, Num);
  out += ", \"run_gets\": " + per_rank(&RankState::run_gets);
  out += ", \"run_puts\": " + per_rank(&RankState::run_puts);
  out += ", \"repl_lag_max\": " + per_rank(&RankState::repl_lag_max);
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"get_us\": " +
         Latency(st, {&RankState::get_local, &RankState::get_remote});
  out += ", \"get_local_us\": " + Latency(st, {&RankState::get_local});
  out += ", \"get_remote_us\": " + Latency(st, {&RankState::get_remote});
  out += ", \"put_us\": " + Latency(st, {&RankState::put});
  out += ", \"put_phase\": " + Quote(run_puts ? "run" : "load");
  out += ", \"put_submit_us\": " + Latency(st, {&RankState::submit});
  out += ", \"rss_mb\": " + Num(static_cast<double>(ru.ru_maxrss) / 1024.0);
  out += ", \"repo_bytes\": " + std::to_string(st[0].repo_bytes);
  out += ", \"live_user_bytes\": " +
         std::to_string(written * (kKeyLen + kValLen));
  out += ", \"probes\": " + probes;
  out += ", \"stats\": [";
  for (int r = 0; r < kRanks; ++r) {
    if (r) out += ", ";
    out += "{\"open\": " + st[r].stats[0] + ", \"load\": " + st[r].stats[1] +
           ", \"run\": " + st[r].stats[2] + ", \"end\": " + st[r].stats[3] +
           "}";
  }
  out += "]}\n";
  fputs(out.c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    fprintf(stderr, "perfbench_client: %s\n", e.what());
    return 1;
  }
}
