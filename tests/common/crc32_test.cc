#include "common/crc32.h"

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"

namespace papyrus {
namespace {

TEST(Crc32Test, KnownVectors) {
  // Standard CRC-32C check value for "123456789".
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
  // Empty input.
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32Test, Incremental) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data.data(), data.size());
  const uint32_t part1 = Crc32c(data.data(), 10);
  const uint32_t part2 = Crc32c(data.data() + 10, data.size() - 10, part1);
  EXPECT_EQ(whole, part2);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(256, 'x');
  const uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t bit : {0u, 7u, 1000u, 2047u}) {
    std::string mutated = data;
    mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    EXPECT_NE(Crc32c(mutated.data(), mutated.size()), clean) << bit;
  }
}

TEST(Crc32Test, MaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
    EXPECT_NE(MaskCrc(crc), crc);
  }
}

TEST(Crc32Test, HardwareAndPortablePathsAgree) {
  if (!Crc32cHasHardware()) {
    GTEST_SKIP() << "no hardware crc32c on this CPU";
  }
  Rng rng(41);
  std::string buf(4096 + 16, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Next());
  for (int trial = 0; trial < 2000; ++trial) {
    // Lengths cover the byte-only, word-aligned and tail cases; offsets
    // cover every alignment.
    const size_t off = static_cast<size_t>(rng.Uniform(16));
    const size_t len = trial < 64 ? static_cast<size_t>(trial)
                                  : static_cast<size_t>(rng.Uniform(4097));
    const uint32_t init =
        trial % 3 == 0 ? 0u : static_cast<uint32_t>(rng.Next());
    EXPECT_EQ(Crc32cHardware(buf.data() + off, len, init),
              Crc32cPortable(buf.data() + off, len, init))
        << "off=" << off << " len=" << len << " init=" << init;
  }
  EXPECT_EQ(Crc32cHardware("123456789", 9), 0xe3069283u);
}

}  // namespace
}  // namespace papyrus
