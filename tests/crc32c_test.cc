// CRC32C: both implementations behind io::Crc32c — the SSE4.2 `crc32`
// path picked by CPU detection and the portable byte table — pinned to
// the RFC 3720 test vectors, and the dispatched path checked bit for bit
// against the table path on random lengths, misaligned starts, and
// chained Crc32cExtend calls.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/io_util.h"
#include "common/random.h"

namespace privateclean {
namespace {

/// The RFC 3720 (iSCSI) appendix B.4 vectors, plus the common "123456789"
/// check value.
struct Vector {
  std::string data;
  uint32_t crc;
};

std::vector<Vector> Rfc3720Vectors() {
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  return {
      {"", 0x00000000u},
      {"123456789", 0xE3069283u},
      {std::string(32, '\0'), 0x8A9136AAu},
      {std::string(32, '\xFF'), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {descending, 0x113FDB5Cu},
  };
}

TEST(Crc32cTest, TablePathMatchesRfc3720Vectors) {
  for (const Vector& v : Rfc3720Vectors()) {
    EXPECT_EQ(io::Crc32cExtendTable(0, v.data), v.crc) << v.data.size();
  }
}

TEST(Crc32cTest, DispatchedPathMatchesRfc3720Vectors) {
  // On x86-64 with SSE4.2 this is the hardware path; elsewhere the table.
  for (const Vector& v : Rfc3720Vectors()) {
    EXPECT_EQ(io::Crc32c(v.data), v.crc) << v.data.size();
    EXPECT_EQ(io::Crc32cExtend(0, v.data), v.crc) << v.data.size();
  }
}

TEST(Crc32cTest, HardwarePathIsUsedWhereTheCpuHasIt) {
#if defined(__x86_64__)
  EXPECT_EQ(io::Crc32cUsesHardware(), __builtin_cpu_supports("sse4.2") != 0);
#else
  EXPECT_FALSE(io::Crc32cUsesHardware());
#endif
}

TEST(Crc32cTest, DispatchedPathMatchesTableOnRandomMisalignedInputs) {
  Rng rng(0xC4C32C);
  std::string buffer(4096 + 16, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.UniformInt(256));
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t offset = rng.UniformInt(16);  // misaligned starts
    const size_t length = rng.UniformInt(4097);
    std::string_view data(buffer.data() + offset, length);
    const uint32_t seed = static_cast<uint32_t>(rng.UniformInt(1ull << 32));
    ASSERT_EQ(io::Crc32cExtend(seed, data), io::Crc32cExtendTable(seed, data))
        << "offset " << offset << " length " << length;
  }
}

TEST(Crc32cTest, ChainedExtendEqualsOneShot) {
  Rng rng(0xC4A1);
  std::string data(4096, '\0');
  for (char& c : data) c = static_cast<char>(rng.UniformInt(256));
  const uint32_t whole = io::Crc32cExtendTable(0, data);
  EXPECT_EQ(io::Crc32c(data), whole);
  for (int trial = 0; trial < 200; ++trial) {
    // Split at random cut points, including empty and odd-sized pieces.
    uint32_t crc = 0;
    size_t pos = 0;
    while (pos < data.size()) {
      const size_t piece =
          std::min<size_t>(data.size() - pos, rng.UniformInt(97));
      crc = io::Crc32cExtend(crc, std::string_view(data).substr(pos, piece));
      pos += piece;
    }
    ASSERT_EQ(crc, whole) << "trial " << trial;
  }
}

}  // namespace
}  // namespace privateclean
