#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace papyrus {
namespace {

// Reflected CRC-32C polynomial.
constexpr uint32_t kPoly = 0x82f63b78u;

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[i] = c;
  }
  return t;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t init) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = init ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c = kTable[(c ^ p[i]) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

#if defined(__x86_64__)

bool Crc32cHasHardware() { return __builtin_cpu_supports("sse4.2"); }

// The SSE4.2 crc32 instruction implements the same reflected polynomial:
// byte steps up to 8-byte alignment, then one instruction per 8 bytes.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const void* data,
                                                          size_t n,
                                                          uint32_t init) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t c = init ^ 0xffffffffu;
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0; --n) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
  }
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  for (; n > 0; --n) c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
  return static_cast<uint32_t>(c) ^ 0xffffffffu;
}

#else

bool Crc32cHasHardware() { return false; }

uint32_t Crc32cHardware(const void* data, size_t n, uint32_t init) {
  return Crc32cPortable(data, n, init);
}

#endif

uint32_t Crc32c(const void* data, size_t n, uint32_t init) {
  static const bool hw = Crc32cHasHardware();
  return hw ? Crc32cHardware(data, n, init) : Crc32cPortable(data, n, init);
}

}  // namespace papyrus
