// Crash-atomic, CRC32-checksummed binary snapshot container.
//
// The checkpoint layer (robust/checkpoint.hpp) and the binary edge-list
// cache share the integrity primitives defined here.  A snapshot file is
//
//   [ 32-byte header | payload bytes ]
//
//   offset  0: 8   magic "CDSNAP01"
//   offset  8: u32 payload format version (caller-defined schema)
//   offset 12: u32 reserved (zero)
//   offset 16: u64 payload size in bytes
//   offset 24: u32 CRC32 (IEEE 802.3) of the payload
//   offset 28: u32 CRC32 of header bytes [0, 28)
//
// all in host byte order (snapshots are restart artifacts for the same
// machine, not an interchange format).  Writes are crash-atomic: the
// payload streams into `path + ".tmp"`, the header is back-patched, the
// file is fsync'd, then rename(2) publishes it and the directory is
// fsync'd.  A crash at any point leaves either the old file or the new
// one — never a torn published snapshot; stray `.tmp` files are ignored
// by readers and overwritten by the next writer.
//
// The reader streams the payload with a running CRC and only vouches for
// the data once finish() has matched byte count and checksum against the
// header, so callers must treat everything they parsed as tentative
// until finish() returns.  Array reads are bounded by the declared
// payload size *before* allocation: a corrupt length field cannot drive
// a blind multi-gigabyte allocation.
//
// crc32_update is the one CRC32 of the library: snapshots (spill blocks,
// dynamic-state saves, checkpoints), the binary edge list, WAL records,
// replication snapshot frames and the label checksum all use it.  It is
// slicing-by-16 (Kounavis & Berry, ISCC 2005) over the reflected
// polynomial 0xEDB88320: every value it returns equals the classic
// bytewise table CRC (zlib's crc32), so files written by any build stay
// readable by any other.  Callers should hand it whole buffers: a step
// covers 16 bytes, so short pieces run at the bytewise loop's speed
// (~0.3 GB/s on a 4-vCPU x86-64 host, against ~2 GB/s for long ones).
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "commdet/robust/error.hpp"
#include "commdet/robust/fault_injection.hpp"

namespace commdet {

namespace detail {

inline constexpr std::array<char, 8> kSnapshotMagic = {'C', 'D', 'S', 'N',
                                                       'A', 'P', '0', '1'};
inline constexpr std::size_t kSnapshotHeaderBytes = 32;

/// Slicing-by-16 tables for the reflected IEEE polynomial 0xEDB88320:
/// table 0 is the classic bytewise table; table k advances a byte
/// through k further zero bytes, so one lookup per input byte folds a
/// whole 16-byte block into the running CRC.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 16>;

[[nodiscard]] constexpr Crc32Tables make_crc32_tables() noexcept {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// The 8 bytes at `p` as a little-endian word, from any alignment.
[[nodiscard]] inline std::uint64_t load_le64(const unsigned char* p) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big) w = __builtin_bswap64(w);
  return w;
}

}  // namespace detail

/// Incremental CRC32 (IEEE 802.3, the zlib polynomial).  Chainable:
/// crc32_update(crc32_update(0, a), b) == crc32_update(0, a ++ b).
/// Slicing-by-16: 16 bytes per step from two 8-byte loads, then the
/// bytewise loop for the tail; any alignment, values equal to the
/// bytewise table CRC.
[[nodiscard]] inline std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                                                std::size_t n) noexcept {
  const auto& t = detail::kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; n >= 16; p += 16, n -= 16) {
    const std::uint64_t a = detail::load_le64(p) ^ crc;
    const std::uint64_t b = detail::load_le64(p + 8);
    crc = t[15][a & 0xffu] ^ t[14][(a >> 8) & 0xffu] ^ t[13][(a >> 16) & 0xffu] ^
          t[12][(a >> 24) & 0xffu] ^ t[11][(a >> 32) & 0xffu] ^ t[10][(a >> 40) & 0xffu] ^
          t[9][(a >> 48) & 0xffu] ^ t[8][a >> 56] ^ t[7][b & 0xffu] ^
          t[6][(b >> 8) & 0xffu] ^ t[5][(b >> 16) & 0xffu] ^ t[4][(b >> 24) & 0xffu] ^
          t[3][(b >> 32) & 0xffu] ^ t[2][(b >> 40) & 0xffu] ^ t[1][(b >> 48) & 0xffu] ^
          t[0][b >> 56];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  return ~crc;
}

/// Streams a snapshot into `path + ".tmp"` and publishes it atomically on
/// commit().  Destruction without commit() removes the temporary, so an
/// aborted write never disturbs the previously published snapshot.
class SnapshotWriter {
 public:
  SnapshotWriter(std::string path, std::uint32_t version)
      : path_(std::move(path)), tmp_(path_ + ".tmp"), version_(version) {
    COMMDET_FAULT_POINT(fault::kSnapshotWrite, Phase::kDriver);
    fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd_ < 0)
      throw_error(ErrorCode::kIoOpen, Phase::kDriver,
                  "cannot create snapshot temporary: " + tmp_ + " (" +
                      std::strerror(errno) + ")");
    // Reserve the header; it is back-patched with sizes/CRCs on commit.
    const std::array<char, detail::kSnapshotHeaderBytes> zero{};
    raw_write(zero.data(), zero.size());
  }

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  ~SnapshotWriter() {
    if (fd_ >= 0) ::close(fd_);
    if (!committed_) ::unlink(tmp_.c_str());
  }

  void write_bytes(const void* data, std::size_t n) {
    COMMDET_FAULT_POINT(fault::kSnapshotWrite, Phase::kDriver);
    crc_ = crc32_update(crc_, data, n);
    payload_size_ += n;
    buffer(data, n);
  }

  void write_u32(std::uint32_t v) { write_bytes(&v, sizeof v); }
  void write_u64(std::uint64_t v) { write_bytes(&v, sizeof v); }
  void write_i32(std::int32_t v) { write_bytes(&v, sizeof v); }
  void write_i64(std::int64_t v) { write_bytes(&v, sizeof v); }
  void write_f64(double v) { write_bytes(&v, sizeof v); }

  /// Writes `values` as a count-prefixed i64 array (labels and weights
  /// are widened to 64 bits on disk so 32- and 64-bit vertex-label
  /// builds can read each other's snapshots).
  template <typename T>
  void write_i64_array(const std::vector<T>& values) {
    write_i64(static_cast<std::int64_t>(values.size()));
    if constexpr (sizeof(T) == sizeof(std::int64_t)) {
      write_bytes(values.data(), values.size() * sizeof(std::int64_t));
    } else {
      std::array<std::int64_t, 4096> chunk;
      std::size_t i = 0;
      while (i < values.size()) {
        const std::size_t n = std::min(chunk.size(), values.size() - i);
        for (std::size_t k = 0; k < n; ++k)
          chunk[k] = static_cast<std::int64_t>(values[i + k]);
        write_bytes(chunk.data(), n * sizeof(std::int64_t));
        i += n;
      }
    }
  }

  /// Finalizes the header, fsyncs, renames into place, fsyncs the
  /// directory.  After commit() the snapshot is durable under the final
  /// path; the fault point fires *before* the publish steps so an
  /// injected fault models a crash after the payload was written but
  /// before the snapshot became visible.
  void commit() {
    flush();
    std::array<char, detail::kSnapshotHeaderBytes> header{};
    std::memcpy(header.data(), detail::kSnapshotMagic.data(), 8);
    std::memcpy(header.data() + 8, &version_, 4);
    const std::uint32_t reserved = 0;
    std::memcpy(header.data() + 12, &reserved, 4);
    std::memcpy(header.data() + 16, &payload_size_, 8);
    std::memcpy(header.data() + 24, &crc_, 4);
    const std::uint32_t header_crc = crc32_update(0, header.data(), 28);
    std::memcpy(header.data() + 28, &header_crc, 4);
    if (::pwrite(fd_, header.data(), header.size(), 0) !=
        static_cast<ssize_t>(header.size()))
      fail_write("cannot finalize snapshot header");

    COMMDET_FAULT_POINT(fault::kSnapshotCommit, Phase::kDriver);

    if (::fsync(fd_) != 0) fail_write("fsync failed");
    if (::close(fd_) != 0) {
      fd_ = -1;
      fail_write("close failed");
    }
    fd_ = -1;
    if (std::rename(tmp_.c_str(), path_.c_str()) != 0)
      fail_write("cannot publish snapshot (rename failed)");
    committed_ = true;
    sync_parent_directory();
  }

  [[nodiscard]] std::uint64_t payload_size() const noexcept { return payload_size_; }

 private:
  void buffer(const void* data, std::size_t n) {
    const auto* p = static_cast<const char*>(data);
    buf_.insert(buf_.end(), p, p + n);
    if (buf_.size() >= kFlushThreshold) flush();
  }

  void flush() {
    std::size_t done = 0;
    while (done < buf_.size()) {
      const ssize_t w = ::write(fd_, buf_.data() + done, buf_.size() - done);
      if (w < 0) {
        if (errno == EINTR) continue;
        fail_write("write failed");
      }
      done += static_cast<std::size_t>(w);
    }
    buf_.clear();
  }

  void raw_write(const void* data, std::size_t n) {
    const auto* p = static_cast<const char*>(data);
    std::size_t done = 0;
    while (done < n) {
      const ssize_t w = ::write(fd_, p + done, n - done);
      if (w < 0) {
        if (errno == EINTR) continue;
        fail_write("write failed");
      }
      done += static_cast<std::size_t>(w);
    }
  }

  [[noreturn]] void fail_write(const char* what) {
    throw_error(ErrorCode::kIoWrite, Phase::kDriver,
                std::string(what) + ": " + tmp_ + " (" + std::strerror(errno) + ")");
  }

  /// Durability of the rename itself; best-effort (some filesystems
  /// refuse O_RDONLY fsync on directories — the rename is still atomic).
  void sync_parent_directory() noexcept {
    const std::size_t slash = path_.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : path_.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
      (void)::fsync(dfd);
      ::close(dfd);
    }
  }

  static constexpr std::size_t kFlushThreshold = std::size_t{1} << 20;

  std::string path_;
  std::string tmp_;
  std::uint32_t version_ = 0;
  int fd_ = -1;
  bool committed_ = false;
  std::uint32_t crc_ = 0;
  std::uint64_t payload_size_ = 0;
  std::vector<char> buf_;
};

/// Streams a snapshot back, validating the header eagerly and the
/// payload checksum in finish().  Every read is bounded by the declared
/// payload size, so corrupt in-payload counts fail fast instead of
/// driving huge allocations.
class SnapshotReader {
 public:
  SnapshotReader(const std::string& path, std::uint32_t expected_version)
      : path_(path) {
    COMMDET_FAULT_POINT(fault::kSnapshotRead, Phase::kDriver);
    in_.open(path, std::ios::binary);
    if (!in_)
      throw_error(ErrorCode::kIoOpen, Phase::kDriver, "cannot open snapshot: " + path);
    in_.seekg(0, std::ios::end);
    const std::int64_t file_size = static_cast<std::int64_t>(in_.tellg());
    in_.seekg(0, std::ios::beg);
    if (file_size < static_cast<std::int64_t>(detail::kSnapshotHeaderBytes))
      fail_format("snapshot shorter than its header");

    std::array<char, detail::kSnapshotHeaderBytes> header{};
    in_.read(header.data(), header.size());
    if (!in_) fail_format("cannot read snapshot header");
    if (std::memcmp(header.data(), detail::kSnapshotMagic.data(), 8) != 0)
      fail_format("bad snapshot magic");
    std::uint32_t header_crc = 0;
    std::memcpy(&header_crc, header.data() + 28, 4);
    if (crc32_update(0, header.data(), 28) != header_crc)
      fail_format("snapshot header checksum mismatch");
    std::uint32_t version = 0;
    std::memcpy(&version, header.data() + 8, 4);
    if (version != expected_version)
      fail_format("unsupported snapshot version " + std::to_string(version) +
                  " (expected " + std::to_string(expected_version) + ")");
    std::uint64_t payload_size = 0;
    std::memcpy(&payload_size, header.data() + 16, 8);
    std::memcpy(&payload_crc_, header.data() + 24, 4);
    const auto expected_file =
        static_cast<std::uint64_t>(detail::kSnapshotHeaderBytes) + payload_size;
    if (static_cast<std::uint64_t>(file_size) != expected_file)
      fail_format("snapshot size mismatch: header declares " +
                  std::to_string(expected_file) + " bytes, file has " +
                  std::to_string(file_size));
    remaining_ = payload_size;
  }

  [[nodiscard]] std::uint64_t remaining() const noexcept { return remaining_; }

  void read_bytes(void* out, std::size_t n) {
    if (n > remaining_)
      fail_format("truncated snapshot payload (read past declared size)");
    in_.read(static_cast<char*>(out), static_cast<std::streamsize>(n));
    if (!in_)
      throw_error(ErrorCode::kIoRead, Phase::kDriver, "short read in snapshot: " + path_);
    crc_ = crc32_update(crc_, out, n);
    remaining_ -= n;
  }

  [[nodiscard]] std::uint32_t read_u32() { return read_pod<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t read_u64() { return read_pod<std::uint64_t>(); }
  [[nodiscard]] std::int32_t read_i32() { return read_pod<std::int32_t>(); }
  [[nodiscard]] std::int64_t read_i64() { return read_pod<std::int64_t>(); }
  [[nodiscard]] double read_f64() { return read_pod<double>(); }

  /// Reads a count-prefixed i64 array written by write_i64_array,
  /// narrowing to T with a range check.  The count is validated against
  /// the remaining payload bytes before any allocation.
  template <typename T>
  [[nodiscard]] std::vector<T> read_i64_array() {
    const std::int64_t count = read_i64();
    if (count < 0 ||
        static_cast<std::uint64_t>(count) * sizeof(std::int64_t) > remaining_)
      fail_format("array length exceeds snapshot payload");
    std::vector<T> out(static_cast<std::size_t>(count));
    if constexpr (sizeof(T) == sizeof(std::int64_t)) {
      read_bytes(out.data(), out.size() * sizeof(std::int64_t));
    } else {
      std::array<std::int64_t, 4096> chunk;
      std::size_t i = 0;
      while (i < out.size()) {
        const std::size_t n = std::min(chunk.size(), out.size() - i);
        read_bytes(chunk.data(), n * sizeof(std::int64_t));
        for (std::size_t k = 0; k < n; ++k) {
          const std::int64_t v = chunk[k];
          if (v < static_cast<std::int64_t>(std::numeric_limits<T>::min()) ||
              v > static_cast<std::int64_t>(std::numeric_limits<T>::max()))
            throw_error(ErrorCode::kIdOverflow, Phase::kDriver,
                        "snapshot value overflows narrow label type: " + path_);
          out[i + k] = static_cast<T>(v);
        }
        i += n;
      }
    }
    return out;
  }

  /// Validates that the payload was fully consumed and its checksum
  /// matches the header.  Data parsed from this reader is untrusted
  /// until finish() returns.
  void finish() {
    if (remaining_ != 0)
      fail_format("snapshot payload has " + std::to_string(remaining_) +
                  " unread trailing bytes");
    if (crc_ != payload_crc_) fail_format("snapshot payload checksum mismatch");
  }

 private:
  template <typename T>
  [[nodiscard]] T read_pod() {
    T v{};
    read_bytes(&v, sizeof v);
    return v;
  }

  [[noreturn]] void fail_format(const std::string& what) {
    throw_error(ErrorCode::kIoFormat, Phase::kDriver, what + ": " + path_);
  }

  std::string path_;
  std::ifstream in_;
  std::uint32_t payload_crc_ = 0;
  std::uint32_t crc_ = 0;
  std::uint64_t remaining_ = 0;
};

}  // namespace commdet
