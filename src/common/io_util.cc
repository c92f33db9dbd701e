#include "common/io_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/failpoint.h"
#include "common/random.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace privateclean {
namespace io {

namespace {

/// Byte-at-a-time CRC32C table for the reflected Castagnoli polynomial.
const std::array<uint32_t, 256>& Crc32cTable() {
  static const std::array<uint32_t, 256>* table = [] {
    auto* t = new std::array<uint32_t, 256>();
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
      }
      (*t)[i] = crc;
    }
    return t;
  }();
  return *table;
}

std::string ErrnoMessage() {
  return std::strerror(errno);
}

/// RAII file descriptor so every early return closes the file.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

uint32_t Crc32cExtendTable(uint32_t crc, std::string_view data) {
  const auto& table = Crc32cTable();
  crc = ~crc;
  for (unsigned char c : data) {
    crc = table[(crc ^ c) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

namespace {

#if defined(__x86_64__)
/// SSE4.2 `crc32` computes the same reflected Castagnoli CRC in
/// hardware, 8 bytes per instruction. Compiled for sse4.2 at function
/// level only, so the binary still runs on CPUs without it; Crc32cExtend
/// calls it only after the CPU check below.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(
    uint32_t crc, std::string_view data) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t c = ~crc;
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0; --n) {
    c = _mm_crc32_u8(c, *p++);
  }
  uint64_t wide = c;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof word);
    wide = _mm_crc32_u64(wide, word);
  }
  c = static_cast<uint32_t>(wide);
  for (; n > 0; --n) c = _mm_crc32_u8(c, *p++);
  return ~c;
}
#endif

using Crc32cFn = uint32_t (*)(uint32_t, std::string_view);

Crc32cFn SelectCrc32c() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return Crc32cExtendSse42;
#endif
  return Crc32cExtendTable;
}

Crc32cFn Crc32cImpl() {
  static const Crc32cFn impl = SelectCrc32c();
  return impl;
}

}  // namespace

bool Crc32cUsesHardware() { return Crc32cImpl() != Crc32cExtendTable; }

uint32_t Crc32cExtend(uint32_t crc, std::string_view data) {
  return Crc32cImpl()(crc, data);
}

uint32_t Crc32c(std::string_view data) { return Crc32cExtend(0, data); }

std::string Crc32cToHex(uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

Result<uint32_t> Crc32cFromHex(std::string_view hex) {
  if (hex.size() != 8) {
    return Status::InvalidArgument("CRC32C hex must be 8 digits, got '" +
                                   std::string(hex) + "'");
  }
  uint32_t value = 0;
  for (char c : hex) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<uint32_t>(c - 'A' + 10);
    } else {
      return Status::InvalidArgument("bad CRC32C hex digit in '" +
                                     std::string(hex) + "'");
    }
  }
  return value;
}

Result<std::string> ReadFileToString(const std::string& path) {
  PCLEAN_FAILPOINT("io.read.open", path);
  Fd f;
  f.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (f.fd < 0) {
    if (errno == ENOENT || errno == ENOTDIR) {
      return Status::NotFound("'" + path + "' not found");
    }
    return Status::IOError("cannot open '" + path +
                           "' for reading: " + ErrnoMessage());
  }
  PCLEAN_FAILPOINT("io.read.transient", path);
  // Size the buffer from fstat and read straight into it. The loop still
  // runs to EOF (the spare chunk absorbs the final zero-byte read without
  // a reallocation), so a file that grows underneath is read whole.
  constexpr size_t kChunk = 1 << 16;
  std::string data;
  struct stat st;
  if (::fstat(f.fd, &st) == 0 && st.st_size > 0) {
    data.reserve(static_cast<size_t>(st.st_size) + kChunk);
    data.resize(static_cast<size_t>(st.st_size));
  }
  size_t size = 0;
  for (;;) {
    if (size == data.size()) data.resize(size + kChunk);
    ssize_t n = ::read(f.fd, data.data() + size, data.size() - size);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("failed reading '" + path + "' at byte " +
                             std::to_string(size) + ": " + ErrnoMessage());
    }
    size += static_cast<size_t>(n);
  }
  data.resize(size);
  PCLEAN_FAILPOINT_DATA("io.read.bitflip", &data);
  PCLEAN_FAILPOINT_DATA("io.read.truncate", &data);
  return data;
}

Result<std::string> ReadFileWithRetry(const std::string& path,
                                      const RetryOptions& retry) {
  Status last;
  Rng jitter(retry.jitter_seed == 0 ? 1 : retry.jitter_seed);
  int cap_ms = retry.initial_backoff_ms;
  int slept_ms = 0;
  int attempts = 0;
  for (int attempt = 1;; ++attempt) {
    auto result = ReadFileToString(path);
    attempts = attempt;
    // Only IOError is plausibly transient; everything else (incl. the
    // value itself) is final.
    if (result.ok() || !result.status().IsIOError()) return result;
    last = result.status();
    if (attempt >= retry.max_attempts) break;
    // Full jitter: sleep uniform in [0, cap], never past the total
    // budget. A spent budget ends the retry loop early — waiting longer
    // than the budget cannot be cheaper than failing over.
    int remaining_ms = retry.max_total_backoff_ms - slept_ms;
    if (remaining_ms <= 0) break;
    int sleep_ms = std::min(cap_ms, remaining_ms);
    if (retry.jitter_seed != 0 && sleep_ms > 0) {
      sleep_ms = static_cast<int>(
          jitter.UniformInt(static_cast<uint64_t>(sleep_ms) + 1));
    }
    slept_ms += sleep_ms;
    if (retry.sleep_fn) {
      retry.sleep_fn(sleep_ms);
    } else if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    if (cap_ms <= (1 << 30)) cap_ms *= 2;
  }
  return Status::IOError(last.message() + " (after " +
                         std::to_string(attempts) + " attempts)");
}

Status WriteFileDurable(const std::string& path, std::string_view data) {
  PCLEAN_FAILPOINT("io.write.open", path);
  Fd f;
  f.fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                0644);
  if (f.fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "' for writing: " + ErrnoMessage());
  }

  std::string_view payload = data;
#if defined(PCLEAN_FAILPOINTS_ENABLED)
  // A short write silently drops the tail — the caller sees OK and only
  // a checksum on read can catch it. Copy so the fault cannot leak back
  // into the caller's buffer.
  std::string mutated(data);
  PCLEAN_FAILPOINT_DATA("io.write.short", &mutated);
  payload = mutated;
  // ENOSPC-style failure: persist a partial prefix, then report the
  // error, leaving a torn file behind for the reader to detect.
  {
    Status enospc = failpoint::Hit("io.write.enospc", path);
    if (!enospc.ok()) {
      std::string_view prefix = payload.substr(0, payload.size() / 2);
      while (!prefix.empty()) {
        ssize_t n = ::write(f.fd, prefix.data(), prefix.size());
        if (n <= 0) break;
        prefix.remove_prefix(static_cast<size_t>(n));
      }
      return enospc;
    }
  }
#endif

  std::string_view rest = payload;
  while (!rest.empty()) {
    ssize_t n = ::write(f.fd, rest.data(), rest.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("failed writing '" + path + "' at byte " +
                             std::to_string(payload.size() - rest.size()) +
                             ": " + ErrnoMessage());
    }
    rest.remove_prefix(static_cast<size_t>(n));
  }
  PCLEAN_FAILPOINT("io.write.fsync", path);
  if (::fsync(f.fd) != 0) {
    return Status::IOError("fsync failed for '" + path +
                           "': " + ErrnoMessage());
  }
  return Status::OK();
}

Status AppendFile(const std::string& path, std::string_view data) {
  Fd f;
  f.fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                0644);
  if (f.fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "' for appending: " + ErrnoMessage());
  }
  std::string_view rest = data;
  while (!rest.empty()) {
    ssize_t n = ::write(f.fd, rest.data(), rest.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("failed appending to '" + path + "' at byte " +
                             std::to_string(data.size() - rest.size()) +
                             ": " + ErrnoMessage());
    }
    rest.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

Status FsyncFile(const std::string& path) {
  Fd f;
  f.fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (f.fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "' for fsync: " + ErrnoMessage());
  }
  if (::fsync(f.fd) != 0) {
    return Status::IOError("fsync failed for '" + path +
                           "': " + ErrnoMessage());
  }
  return Status::OK();
}

Status FsyncDir(const std::string& path) {
  PCLEAN_FAILPOINT("io.fsync.dir", path);
  Fd f;
  f.fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (f.fd < 0) {
    return Status::IOError("cannot open directory '" + path +
                           "' for fsync: " + ErrnoMessage());
  }
  if (::fsync(f.fd) != 0) {
    return Status::IOError("fsync failed for directory '" + path +
                           "': " + ErrnoMessage());
  }
  return Status::OK();
}

}  // namespace io
}  // namespace privateclean
