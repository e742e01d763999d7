// Shapes, seeded generators and layer probes shared by the perfbench client.
//
// Every key and value the benchmark writes is a pure function of the seed,
// so any rank (and any probe) can regenerate what a get must return.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr size_t kKeyLen = 16;
inline constexpr size_t kValLen = 100;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// splitmix64 finalizer: a bijection on 64-bit words.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Key i of stream `tag` ('w' = written, 'a' = never written): the tag byte
// plus 15 hex digits of a seeded bijection of i, so distinct (tag, i) pairs
// always give distinct keys.
std::string MakeKey(char tag, uint64_t seed, uint64_t i);

// The value stored for (key, version): "<key>:<version>:" followed by
// filler derived from both, kValLen bytes in all.
std::string MakeValue(const std::string& key, uint32_t version);

// True when [got, got+len) is exactly MakeValue(key, version).
bool ValueMatches(const char* got, size_t len, const std::string& key,
                  uint32_t version);

// Nearest-rank percentile (p in [0, 100]) of v; reorders v.  0 if empty.
double Percentile(std::vector<uint64_t>* v, double p);

// ---- Layer probes: direct calls into one module's public functions. ----

// p50 round trip, in microseconds, of a req_bytes message answered by a
// resp_bytes message between two ranks (net::Communicator Send/RecvFor).
double NetRttP50Us(size_t req_bytes, size_t resp_bytes, int iters);

// p50 store::MemTable::Get latency, in nanoseconds, over `keys` loaded into
// a default-sized local MemTable with their values.
double MemTableGetP50Ns(const std::vector<std::string>& keys,
                        const std::vector<uint32_t>& versions, int lookups,
                        uint64_t seed);

// Crc32c throughput, in MB/s, over consecutive records of record_bytes.
double Crc32cMbps(size_t record_bytes);

// One lookup for the SSTable probe: the key, the directory holding its
// owner's SSTables, and the expected version (0 = never written).
struct SstLookup {
  std::string dir;
  std::string key;
  uint32_t version = 0;
};

// p50 latency, in microseconds, of a newest-first bloom + SSTable search
// (store::SSTableReader::Open/MayContain/Get, binary mode) for each lookup.
// Lookups whose result differs from the expectation count in *mismatches.
double SSTableGetP50Us(const std::vector<SstLookup>& lookups,
                       uint64_t* mismatches);

}  // namespace perfbench
