// Compact binary snapshot of an edge list: magic + counts + 64-bit
// triples + CRC32 trailer.  Orders of magnitude faster to reload than
// text for the large benchmark graphs.
//
// Format v2 ("CDEL0002"):
//
//   [ magic(8) | nv(i64) | ne(i64) | ne x {u,v,w}(i64 each) | crc(u32) ]
//
// where the trailer is the CRC32 (IEEE 802.3) of everything between the
// magic and the trailer (header counts + triples), all in host byte
// order (the format is a cache artifact, not an interchange format).
// v1 files ("CDEL0001", no trailer) remain readable.
//
// The reader validates the declared counts against the actual file size
// *before* allocating: a corrupt or truncated header cannot drive a
// blind multi-gigabyte allocation or a long doomed parse.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "commdet/graph/edge_list.hpp"
#include "commdet/io/snapshot.hpp"
#include "commdet/robust/error.hpp"
#include "commdet/robust/fault_injection.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

namespace detail {
inline constexpr std::array<char, 8> kBinaryMagicV1 = {'C', 'D', 'E', 'L', '0', '0', '0', '1'};
inline constexpr std::array<char, 8> kBinaryMagic = {'C', 'D', 'E', 'L', '0', '0', '0', '2'};
inline constexpr std::int64_t kBinaryTripleBytes = 3 * 8;
/// Triples per read/write chunk: one 96-KiB buffer, reused, so every
/// CRC call and stream call covers a whole chunk.
inline constexpr std::size_t kBinaryChunkTriples = 4096;
}  // namespace detail

/// Writes the v2 binary snapshot (with CRC32 trailer).
template <VertexId V>
void write_edge_list_binary(const EdgeList<V>& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out)
    throw_error(ErrorCode::kIoOpen, Phase::kInput, "cannot write binary edge list: " + path);
  out.write(detail::kBinaryMagic.data(), detail::kBinaryMagic.size());
  std::uint32_t crc = 0;
  const auto put = [&](const void* data, std::size_t n) {
    out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
    crc = crc32_update(crc, data, n);
  };
  const std::int64_t nv = g.num_vertices;
  const std::int64_t ne = g.num_edges();
  put(&nv, sizeof nv);
  put(&ne, sizeof ne);
  std::vector<std::int64_t> chunk(3 * detail::kBinaryChunkTriples);
  for (std::size_t i = 0; i < g.edges.size(); i += detail::kBinaryChunkTriples) {
    const std::size_t n = std::min(detail::kBinaryChunkTriples, g.edges.size() - i);
    for (std::size_t k = 0; k < n; ++k) {
      const auto& e = g.edges[i + k];
      chunk[3 * k] = e.u;
      chunk[3 * k + 1] = e.v;
      chunk[3 * k + 2] = e.w;
    }
    put(chunk.data(), n * detail::kBinaryTripleBytes);
  }
  out.write(reinterpret_cast<const char*>(&crc), sizeof crc);
  out.flush();
  if (!out) throw_error(ErrorCode::kIoWrite, Phase::kInput, "write failed: " + path);
}

template <VertexId V>
[[nodiscard]] EdgeList<V> read_edge_list_binary(const std::string& path) {
  COMMDET_FAULT_POINT(fault::kIoBinary, Phase::kInput);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw_error(ErrorCode::kIoOpen, Phase::kInput, "cannot open binary edge list: " + path);
  in.seekg(0, std::ios::end);
  const std::int64_t file_size = static_cast<std::int64_t>(in.tellg());
  in.seekg(0, std::ios::beg);

  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  const bool v2 = in && magic == detail::kBinaryMagic;
  if (!in || (!v2 && magic != detail::kBinaryMagicV1))
    throw_error(ErrorCode::kIoFormat, Phase::kInput, "bad magic in binary edge list: " + path);

  std::uint32_t crc = 0;
  const auto get = [&](void* data, std::size_t n) {
    in.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (in && v2) crc = crc32_update(crc, data, n);
    return static_cast<bool>(in);
  };
  std::int64_t nv = 0, ne = 0;
  if (!get(&nv, sizeof nv) || !get(&ne, sizeof ne) || nv < 0 || ne < 0)
    throw_error(ErrorCode::kIoFormat, Phase::kInput, "bad header in binary edge list: " + path);
  if (!fits_vertex_id<V>(nv == 0 ? 0 : nv - 1))
    throw_error(ErrorCode::kIdOverflow, Phase::kInput, "vertex id overflows label type: " + path);

  // The declared edge count must agree with the bytes actually present
  // before any allocation happens; this also rejects ne values whose
  // byte size would overflow.
  const std::int64_t head = 8 + 2 * 8;
  const std::int64_t tail = v2 ? static_cast<std::int64_t>(sizeof crc) : 0;
  const std::int64_t payload = file_size - head - tail;
  if (payload < 0 || payload % detail::kBinaryTripleBytes != 0 ||
      ne != payload / detail::kBinaryTripleBytes)
    throw_error(ErrorCode::kIoFormat, Phase::kInput,
                "edge count disagrees with file size in binary edge list: " + path +
                    " (declared " + std::to_string(ne) + " edges, " +
                    std::to_string(payload) + " payload bytes)");

  EdgeList<V> out;
  out.num_vertices = static_cast<V>(nv);
  out.edges.resize(static_cast<std::size_t>(ne));
  // Per chunk: read, checksum, then range-check and narrow.  An
  // out-of-range endpoint therefore surfaces before a checksum mismatch
  // in a later chunk or the trailer.
  std::vector<std::int64_t> chunk(3 * detail::kBinaryChunkTriples);
  for (std::size_t i = 0; i < out.edges.size(); i += detail::kBinaryChunkTriples) {
    const std::size_t n = std::min(detail::kBinaryChunkTriples, out.edges.size() - i);
    if (!get(chunk.data(), n * detail::kBinaryTripleBytes))
      throw_error(ErrorCode::kIoRead, Phase::kInput, "truncated binary edge list: " + path);
    for (std::size_t k = 0; k < n; ++k) {
      const std::int64_t u = chunk[3 * k], v = chunk[3 * k + 1], w = chunk[3 * k + 2];
      if (u < 0 || u >= nv || v < 0 || v >= nv)
        throw_error(ErrorCode::kBadEndpoint, Phase::kInput,
                    "edge endpoint out of range in: " + path);
      out.edges[i + k] = {static_cast<V>(u), static_cast<V>(v), w};
    }
  }
  if (v2) {
    std::uint32_t stored = 0;
    in.read(reinterpret_cast<char*>(&stored), sizeof stored);
    if (!in || stored != crc)
      throw_error(ErrorCode::kIoFormat, Phase::kInput,
                  "checksum mismatch in binary edge list: " + path);
  }
  return out;
}

}  // namespace commdet
