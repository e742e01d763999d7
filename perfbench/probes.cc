// Seeded generators and the per-layer probes of the perfbench client.  Each
// probe calls one module's public functions directly, with the key and value
// shapes of the workloads, so a layer's cost is measured without the layers
// above it.
#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>

#include "common/crc32.h"
#include "common/slice.h"
#include "net/runtime.h"
#include "sim/storage.h"
#include "store/memtable.h"
#include "store/sstable.h"

namespace perfbench {
namespace {

constexpr uint64_t kMask60 = (1ull << 60) - 1;
volatile uint32_t crc_sink;  // keeps the probe's CRCs from being optimized out
constexpr char kAlphabet[] =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";

}  // namespace

std::string MakeKey(char tag, uint64_t seed, uint64_t i) {
  // Every step is invertible on 60-bit words, so the map from i is one-to-one.
  uint64_t x = (i + Mix64(seed)) & kMask60;
  x = (x * 0x5851f42d4c957f2dull) & kMask60;
  x ^= x >> 29;
  x = (x * 0x14057b7ef767814full) & kMask60;
  x ^= x >> 31;
  static const char kHex[] = "0123456789abcdef";
  std::string key(kKeyLen, tag);
  for (size_t d = 1; d < kKeyLen; ++d) {
    key[d] = kHex[(x >> (4 * (kKeyLen - 1 - d))) & 0xf];
  }
  return key;
}

std::string MakeValue(const std::string& key, uint32_t version) {
  std::string v = key;
  char num[16];
  snprintf(num, sizeof(num), ":%010u:", version);
  v += num;
  uint64_t h = version;
  for (char c : key) h = Mix64(h ^ static_cast<unsigned char>(c));
  while (v.size() < kValLen) {
    h = Mix64(h);
    for (int b = 0; b < 8 && v.size() < kValLen; ++b) {
      v.push_back(kAlphabet[(h >> (8 * b)) & 63]);
    }
  }
  v.resize(kValLen);
  return v;
}

bool ValueMatches(const char* got, size_t len, const std::string& key,
                  uint32_t version) {
  if (len != kValLen) return false;
  const std::string want = MakeValue(key, version);
  return memcmp(got, want.data(), kValLen) == 0;
}

double Percentile(std::vector<uint64_t>* v, double p) {
  if (v->empty()) return 0;
  const size_t rank = std::min(
      v->size() - 1,
      static_cast<size_t>(p / 100.0 * static_cast<double>(v->size())));
  std::nth_element(v->begin(), v->begin() + rank, v->end());
  return static_cast<double>((*v)[rank]);
}

double NetRttP50Us(size_t req_bytes, size_t resp_bytes, int iters) {
  constexpr int kTag = 7;
  constexpr int kWarmup = 1000;
  constexpr uint64_t kTimeoutUs = 5'000'000;
  std::vector<uint64_t> rtt;
  papyrus::net::RunRanks(2, [&](papyrus::net::RankContext& ctx) {
    const int peer = 1 - ctx.rank;
    const std::string req(req_bytes, 'q');
    const std::string resp(resp_bytes, 'r');
    papyrus::net::Message m;
    for (int i = 0; i < kWarmup + iters; ++i) {
      if (ctx.rank == 0) {
        const uint64_t t0 = NowNs();
        ctx.comm.Send(peer, kTag, papyrus::Slice(req));
        if (!ctx.comm.RecvFor(peer, kTag, kTimeoutUs, &m)) {
          throw std::runtime_error("rtt probe: response lost");
        }
        if (i >= kWarmup) rtt.push_back(NowNs() - t0);
      } else {
        if (!ctx.comm.RecvFor(peer, kTag, kTimeoutUs, &m)) {
          throw std::runtime_error("rtt probe: request lost");
        }
        ctx.comm.Send(peer, kTag, papyrus::Slice(resp));
      }
    }
  });
  return Percentile(&rtt, 50) / 1e3;
}

double MemTableGetP50Ns(const std::vector<std::string>& keys,
                        const std::vector<uint32_t>& versions, int lookups,
                        uint64_t seed) {
  using papyrus::store::MemTable;
  MemTable mem(MemTable::Kind::kLocal, 4u << 20);
  for (size_t i = 0; i < keys.size(); ++i) {
    mem.Put(keys[i], MakeValue(keys[i], versions[i]), false, -1);
  }
  std::vector<uint64_t> ns;
  ns.reserve(lookups);
  std::string value;
  bool tombstone = false;
  uint64_t h = seed;
  for (int i = 0; i < lookups; ++i) {
    h = Mix64(h);
    const std::string& key = keys[h % keys.size()];
    const uint64_t t0 = NowNs();
    const bool found = mem.Get(key, &value, &tombstone);
    ns.push_back(NowNs() - t0);
    if (!found) throw std::runtime_error("memtable probe: key missing");
  }
  return Percentile(&ns, 50);
}

double Crc32cMbps(size_t record_bytes) {
  constexpr size_t kRecords = 4096;
  std::string buf(record_bytes * kRecords, '\0');
  uint64_t h = 1;
  for (char& c : buf) {
    h = Mix64(h);
    c = static_cast<char>(h);
  }
  std::vector<uint64_t> mbps;
  uint32_t crc = 0;
  for (int rep = 0; rep < 5; ++rep) {
    uint64_t bytes = 0;
    const uint64_t t0 = NowNs();
    uint64_t t1 = t0;
    while (t1 - t0 < 100'000'000) {
      for (size_t r = 0; r < kRecords; ++r) {
        crc ^= papyrus::Crc32c(buf.data() + r * record_bytes, record_bytes);
      }
      bytes += buf.size();
      t1 = NowNs();
    }
    // Bytes per microsecond = MB/s; kept in 1/1000 MB/s units for Percentile.
    mbps.push_back(bytes * 1'000'000 / (t1 - t0));
  }
  crc_sink = crc;
  return Percentile(&mbps, 50) / 1e3;
}

double SSTableGetP50Us(const std::vector<SstLookup>& lookups,
                       uint64_t* mismatches) {
  using papyrus::store::SSTablePtr;
  using papyrus::store::SSTableReader;
  // Newest table first, as the store searches them.
  std::map<std::string, std::vector<SSTablePtr>> tables;
  for (const SstLookup& l : lookups) {
    if (tables.count(l.dir)) continue;
    std::vector<std::string> names;
    papyrus::Status s = papyrus::sim::Storage::ListDir(l.dir, &names);
    if (!s.ok()) throw std::runtime_error("sstable probe: " + s.ToString());
    std::vector<uint64_t> ssids;
    for (const std::string& n : names) {
      if (n.rfind("sst_", 0) == 0 && n.size() > 10 &&
          n.compare(n.size() - 6, 6, ".index") == 0) {
        ssids.push_back(std::stoull(n.substr(4, n.size() - 10)));
      }
    }
    std::sort(ssids.rbegin(), ssids.rend());
    std::vector<SSTablePtr>& readers = tables[l.dir];
    for (uint64_t ssid : ssids) {
      SSTablePtr r;
      s = SSTableReader::Open(l.dir, ssid, &r);
      if (!s.ok()) throw std::runtime_error("sstable probe: " + s.ToString());
      readers.push_back(std::move(r));
    }
  }
  std::vector<uint64_t> ns;
  ns.reserve(lookups.size());
  std::string value;
  for (const SstLookup& l : lookups) {
    bool found = false;
    bool tombstone = false;
    const uint64_t t0 = NowNs();
    for (const SSTablePtr& r : tables[l.dir]) {
      if (!r->MayContain(l.key)) continue;
      papyrus::Status s = r->Get(l.key, papyrus::store::SearchMode::kBinary,
                                 &value, &tombstone, &found);
      if (!s.ok()) throw std::runtime_error("sstable probe: " + s.ToString());
      if (found) break;
    }
    ns.push_back(NowNs() - t0);
    const bool ok = l.version == 0
                        ? !found || tombstone
                        : found && !tombstone &&
                              ValueMatches(value.data(), value.size(), l.key,
                                           l.version);
    if (!ok) ++*mismatches;
  }
  return Percentile(&ns, 50) / 1e3;
}

}  // namespace perfbench
