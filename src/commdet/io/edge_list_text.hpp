// Whitespace-separated edge-list text I/O (the SNAP dataset convention:
// one "u v [w]" edge per line, '#' or '%' comment lines).  This is the
// format of soc-LiveJournal1 and friends.
//
// The reader is parallel.  The paper's uk-2007-05 input has 3.3 billion
// edges, and a line-at-a-time reader is minutes of serial parsing before
// the first parallel phase runs.  So the file is read once into a
// buffer, cut into one line-aligned chunk per thread, and each chunk's
// data lines are counted with memchr; the edge array is sized once and
// every chunk parses straight into its own slots with std::from_chars.
// Chunks are counted and parsed by the same line classifier, so the
// slots leave no gaps, and the result is identical at every thread
// count.  Blank lines (a bare "\r" of a CRLF file included) and '#'/'%'
// comments are skipped.
//
// All failures throw CommdetError (a std::runtime_error) carrying a
// structured {code, phase, detail} record.  Data-line errors are located
// as "path:line (byte offset)"; when several chunks are malformed, the
// earliest error in the file is the one thrown.  Vertex ids and weights
// are parsed strictly: ids beyond 64 bits or the label type, and "nan",
// "inf", negative, zero, fractional, and 64-bit-overflowing weights are
// rejected instead of being silently misread.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "commdet/graph/edge_list.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/robust/error.hpp"
#include "commdet/robust/fault_injection.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/prefix_sum.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

namespace detail {

/// Whitespace between tokens of one line (std::isspace without '\n').
[[nodiscard]] constexpr bool is_blank(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// std::from_chars rejects a leading '+'; the istream conventions the
/// formats grew up with accept one before a digit.
[[nodiscard]] inline const char* skip_plus(const char* p, const char* end) noexcept {
  return end - p > 1 && *p == '+' && p[1] >= '0' && p[1] <= '9' ? p + 1 : p;
}

/// Strict weight parsing: the token must be a positive 64-bit integer.
/// `where()` returns the error detail's location prefix ("path:line",
/// "request:3", ...); it is only called on failure.
template <typename Where>
[[nodiscard]] Weight parse_weight_token(std::string_view tok, const Where& where) {
  const char* const last = tok.data() + tok.size();
  Weight value = 0;
  const auto [ptr, ec] = std::from_chars(skip_plus(tok.data(), last), last, value);
  if (ptr == last && ec != std::errc::invalid_argument) {
    if (ec == std::errc::result_out_of_range)
      throw_error(ErrorCode::kBadWeight, Phase::kInput,
                  where() + ": weight '" + std::string(tok) + "' overflows 64-bit weight");
    if (value <= 0)
      throw_error(ErrorCode::kBadWeight, Phase::kInput,
                  where() + ": weight must be positive, got '" + std::string(tok) + "'");
    return value;
  }
  // Not a plain integer — diagnose what it was for the error message.
  const std::string s(tok);
  char* fend = nullptr;
  const double as_double = std::strtod(s.c_str(), &fend);
  if (fend == s.c_str() || *fend != '\0')
    throw_error(ErrorCode::kIoParse, Phase::kInput,
                where() + ": malformed weight '" + s + "'");
  if (!std::isfinite(as_double))
    throw_error(ErrorCode::kBadWeight, Phase::kInput,
                where() + ": non-finite weight '" + s + "'");
  if (as_double <= 0.0)
    throw_error(ErrorCode::kBadWeight, Phase::kInput,
                where() + ": weight must be positive, got '" + s + "'");
  throw_error(ErrorCode::kBadWeight, Phase::kInput,
              where() + ": non-integer weight '" + s + "' (integral weights required)");
}

/// Parses one vertex-id token at `p` (after leading blanks) and advances
/// `p` past its digits.  invalid_argument: no integer there;
/// result_out_of_range: more than 64 bits.
[[nodiscard]] inline std::errc parse_id_token(const char*& p, const char* end,
                                              std::int64_t& out) noexcept {
  while (p != end && is_blank(*p)) ++p;
  const auto [ptr, ec] = std::from_chars(skip_plus(p, end), end, out);
  if (ec != std::errc::invalid_argument) p = ptr;
  return ec;
}

/// Calls `visit(begin, end)` for every data line in [p, end), with any
/// trailing '\r' cut off.  Skips empty lines, "\r" lines, and lines
/// starting with '#' or '%'.
template <typename Visit>
void for_each_data_line(const char* p, const char* const end, Visit&& visit) {
  while (p < end) {
    const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(end - p));
    const char* eol = nl != nullptr ? static_cast<const char*>(nl) : end;
    const char* stop = eol != p && eol[-1] == '\r' ? eol - 1 : eol;
    if (stop != p && *p != '#' && *p != '%') visit(p, stop);
    p = eol + 1;
  }
}

}  // namespace detail

/// Reads an edge list.  Vertex ids may be sparse; num_vertices becomes
/// max id + 1.  Missing weights default to 1.  Throws CommdetError
/// (derived from std::runtime_error) on unreadable files or malformed
/// lines, located by 1-based line number and byte offset.
template <VertexId V>
[[nodiscard]] EdgeList<V> read_edge_list_text(const std::string& path) {
  COMMDET_FAULT_POINT(fault::kIoEdgeListText, Phase::kInput);
  obs::ScopedSpan span("io.read_edge_list");
  span.attr("path", path);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw_error(ErrorCode::kIoOpen, Phase::kInput, "cannot open edge list: " + path);
  const auto size = static_cast<std::size_t>(in.tellg());
  const auto buffer = std::make_unique_for_overwrite<char[]>(size);
  in.seekg(0);
  in.read(buffer.get(), static_cast<std::streamsize>(size));
  if (!in && size > 0) throw_error(ErrorCode::kIoRead, Phase::kInput, "read failed: " + path);
  const char* const data = buffer.get();
  const char* const data_end = data + size;

  // One chunk per thread, each starting at a line start.
  const int nchunks = std::max(1, parallel_threads());
  const auto nc = static_cast<std::size_t>(nchunks);
  std::vector<const char*> cut(nc + 1, data_end);
  cut[0] = data;
  for (std::size_t c = 1; c < nc; ++c) {
    const char* p = std::max(cut[c - 1], data + size * c / nc);
    if (p != data && p[-1] != '\n') {
      const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(data_end - p));
      p = nl != nullptr ? static_cast<const char*>(nl) + 1 : data_end;
    }
    cut[c] = p;
  }

  std::vector<std::int64_t> slot(nc + 1, 0);
  parallel_for_dynamic(nchunks, [&](std::int64_t c) {
    std::int64_t lines = 0;
    detail::for_each_data_line(cut[static_cast<std::size_t>(c)],
                               cut[static_cast<std::size_t>(c) + 1],
                               [&](const char*, const char*) { ++lines; });
    slot[static_cast<std::size_t>(c)] = lines;
  }, /*chunk=*/1);
  const std::int64_t total = exclusive_prefix_sum(std::span<std::int64_t>(slot));

  EdgeList<V> out;
  out.edges.resize(static_cast<std::size_t>(total));
  std::vector<std::int64_t> chunk_max(nc, -1);
  std::vector<std::exception_ptr> errors(nc);
  parallel_for_dynamic(nchunks, [&](std::int64_t c) {
    const auto ci = static_cast<std::size_t>(c);
    auto* at = out.edges.data() + slot[ci];
    std::int64_t max_id = -1;
    try {
      detail::for_each_data_line(cut[ci], cut[ci + 1], [&](const char* p, const char* end) {
        const char* const line = p;
        const auto where = [&](const char* pos) {
          return path + ":" + std::to_string(1 + std::count(data, line, '\n')) + " (byte " +
                 std::to_string(pos - data) + ")";
        };
        std::int64_t u = 0, v = 0;
        const std::errc eu = detail::parse_id_token(p, end, u);
        const std::errc ev =
            eu == std::errc::invalid_argument ? eu : detail::parse_id_token(p, end, v);
        if (eu == std::errc::invalid_argument || ev == std::errc::invalid_argument)
          throw_error(ErrorCode::kIoParse, Phase::kInput,
                      where(line) + ": malformed edge line");
        // Optional third token: a strictly validated weight.  Anything
        // after it on the line is ignored.
        Weight w = 1;
        while (p != end && detail::is_blank(*p)) ++p;
        if (p != end) {
          const char* tok = p;
          while (p != end && !detail::is_blank(*p)) ++p;
          const std::string_view token(tok, static_cast<std::size_t>(p - tok));
          w = detail::parse_weight_token(token, [&] { return where(tok); });
        }
        if (u < 0 || v < 0)
          throw_error(ErrorCode::kBadEndpoint, Phase::kInput,
                      where(line) + ": negative vertex id");
        // num_vertices = max id + 1 has to fit the label type as well.
        if (eu != std::errc{} || ev != std::errc{} || u >= std::numeric_limits<V>::max() ||
            v >= std::numeric_limits<V>::max())
          throw_error(ErrorCode::kIdOverflow, Phase::kInput,
                      where(line) + ": vertex id overflows label type");
        *at++ = {static_cast<V>(u), static_cast<V>(v), w};
        max_id = std::max({max_id, u, v});
      });
    } catch (...) {
      errors[ci] = std::current_exception();
    }
    chunk_max[ci] = max_id;
  }, /*chunk=*/1);
  // Chunks are indexed in file order and each stops at its first error,
  // so the first recorded error is the earliest in the file.
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  out.num_vertices = static_cast<V>(*std::max_element(chunk_max.begin(), chunk_max.end()) + 1);

  span.attr("bytes", static_cast<std::int64_t>(size));
  span.attr("edges", total);
  span.attr("chunks", nchunks);  // one per thread; the span records the team size itself
  if (obs::Counter* c = obs::counter("io.bytes_parsed"))
    c->add(static_cast<std::int64_t>(size));
  if (obs::Counter* c = obs::counter("io.edges_parsed")) c->add(total);
  return out;
}

/// Writes "u v w" lines with a size comment header.
template <VertexId V>
void write_edge_list_text(const EdgeList<V>& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw_error(ErrorCode::kIoOpen, Phase::kInput, "cannot write edge list: " + path);
  out << "# Nodes: " << static_cast<std::int64_t>(g.num_vertices)
      << " Edges: " << g.num_edges() << "\n";
  for (const auto& e : g.edges)
    out << static_cast<std::int64_t>(e.u) << ' ' << static_cast<std::int64_t>(e.v) << ' '
        << e.w << '\n';
  if (!out) throw_error(ErrorCode::kIoWrite, Phase::kInput, "write failed: " + path);
}

}  // namespace commdet
