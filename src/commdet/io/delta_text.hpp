// Text I/O for edge-delta streams (the CLI --updates format).
//
// One operation per line, '#' or '%' comment lines:
//
//   + u v [w]   insert: add weight w (default 1) to edge {u,v}
//   - u v       delete: remove edge {u,v}
//   = u v w     reweight: set edge {u,v} weight to w
//
// u == v targets the vertex self-loop.  All failures throw CommdetError
// carrying a structured {code, phase, detail} record with the 1-based
// line number, matching the edge-list reader's contract; weights are
// parsed with the same strictness (positive 64-bit integers only).
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "commdet/graph/delta.hpp"
#include "commdet/io/edge_list_text.hpp"
#include "commdet/robust/error.hpp"
#include "commdet/robust/fault_injection.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

/// True when `line` begins a delta operation (as opposed to a blank
/// line, a comment, or some other protocol verb).
[[nodiscard]] inline bool is_delta_line(const std::string& line) noexcept {
  return !line.empty() && (line[0] == '+' || line[0] == '-' || line[0] == '=');
}

/// Parses one delta line ("+ u v [w]" / "- u v" / "= u v w") into `out`.
/// Blank and '#'/'%' comment lines return false without touching `out`.
/// Failures throw the same located structured errors as the file
/// reader, with `where` (e.g. "path:line" or "request:3") as the
/// location prefix.  Shared by read_delta_text, the streaming service's
/// wire protocol, and its write-ahead log replayer.
template <VertexId V>
bool parse_delta_line(const std::string& line, const std::string& where,
                      DeltaBatch<V>& out) {
  if (line.empty() || line[0] == '#' || line[0] == '%') return false;
  std::istringstream ls(line);
  std::string op_tok;
  std::int64_t u = 0, v = 0;
  if (!(ls >> op_tok >> u >> v))
    throw_error(ErrorCode::kIoParse, Phase::kInput, where + ": malformed delta line");
  if (op_tok.size() != 1 || (op_tok[0] != '+' && op_tok[0] != '-' && op_tok[0] != '='))
    throw_error(ErrorCode::kIoParse, Phase::kInput,
                where + ": unknown delta op '" + op_tok + "' (expected +, - or =)");
  if (u < 0 || v < 0)
    throw_error(ErrorCode::kBadEndpoint, Phase::kInput, where + ": negative vertex id");
  if (!fits_vertex_id<V>(u) || !fits_vertex_id<V>(v))
    throw_error(ErrorCode::kIdOverflow, Phase::kInput,
                where + ": vertex id overflows label type");

  Weight w = 1;
  std::string wtok;
  const bool has_weight = static_cast<bool>(ls >> wtok);
  if (has_weight) w = detail::parse_weight_token(wtok, [&] { return where; });

  switch (op_tok[0]) {
    case '+':
      out.insert(static_cast<V>(u), static_cast<V>(v), w);
      break;
    case '-':
      if (has_weight)
        throw_error(ErrorCode::kIoParse, Phase::kInput,
                    where + ": delete takes no weight");
      out.erase(static_cast<V>(u), static_cast<V>(v));
      break;
    case '=':
      if (!has_weight)
        throw_error(ErrorCode::kIoParse, Phase::kInput,
                    where + ": reweight requires a weight");
      out.reweight(static_cast<V>(u), static_cast<V>(v), w);
      break;
    default: break;  // unreachable
  }
  return true;
}

/// Reads a delta stream.  Endpoints are not range-checked here (the
/// target graph's vertex count is not known to the reader) — run
/// sanitize_deltas against the graph before applying.
template <VertexId V>
[[nodiscard]] DeltaBatch<V> read_delta_text(const std::string& path) {
  COMMDET_FAULT_POINT(fault::kIoDeltaText, Phase::kInput);
  std::ifstream in(path);
  if (!in) throw_error(ErrorCode::kIoOpen, Phase::kInput, "cannot open delta file: " + path);

  DeltaBatch<V> out;
  std::string line;
  std::int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    parse_delta_line(line, path + ":" + std::to_string(line_no), out);
  }
  return out;
}

/// Formats one delta in the line format parse_delta_line accepts.
template <VertexId V>
[[nodiscard]] std::string format_delta_line(const EdgeDelta<V>& d) {
  const auto u = static_cast<std::int64_t>(d.u);
  const auto v = static_cast<std::int64_t>(d.v);
  std::string out;
  switch (d.op) {
    case DeltaOp::kInsert:
      out = "+ " + std::to_string(u) + ' ' + std::to_string(v) + ' ' + std::to_string(d.w);
      break;
    case DeltaOp::kDelete:
      out = "- " + std::to_string(u) + ' ' + std::to_string(v);
      break;
    case DeltaOp::kReweight:
      out = "= " + std::to_string(u) + ' ' + std::to_string(v) + ' ' + std::to_string(d.w);
      break;
  }
  return out;
}

/// Writes a delta stream in the format read_delta_text parses.
template <VertexId V>
void write_delta_text(const DeltaBatch<V>& batch, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw_error(ErrorCode::kIoOpen, Phase::kInput, "cannot write delta file: " + path);
  out << "# Deltas: " << batch.size() << "\n";
  for (const auto& d : batch.deltas) {
    const auto u = static_cast<std::int64_t>(d.u);
    const auto v = static_cast<std::int64_t>(d.v);
    switch (d.op) {
      case DeltaOp::kInsert: out << "+ " << u << ' ' << v << ' ' << d.w << '\n'; break;
      case DeltaOp::kDelete: out << "- " << u << ' ' << v << '\n'; break;
      case DeltaOp::kReweight: out << "= " << u << ' ' << v << ' ' << d.w << '\n'; break;
    }
  }
  if (!out) throw_error(ErrorCode::kIoWrite, Phase::kInput, "write failed: " + path);
}

}  // namespace commdet
