#include <omp.h>

#include <charconv>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

std::vector<Edge> rmat_edges(int scale, int edge_factor, std::uint64_t seed) {
  constexpr double kA = 0.55, kB = 0.10, kC = 0.10, kD = 0.25, kNoise = 0.10;
  const std::int64_t ne = static_cast<std::int64_t>(edge_factor) << scale;
  std::vector<Edge> out(static_cast<std::size_t>(ne));
  const Draws rng(seed, 0x524d4154);
#pragma omp parallel for schedule(static)
  for (std::int64_t e = 0; e < ne; ++e) {
    const auto base = static_cast<std::uint64_t>(e) * 2 * static_cast<std::uint64_t>(scale);
    std::int64_t row = 0, col = 0;
    for (int level = 0; level < scale; ++level) {
      const std::uint64_t nbits = rng.at(base + 2 * static_cast<std::uint64_t>(level) + 1);
      const auto jitter = [&](int k) {
        const double u = static_cast<double>((nbits >> (16 * k)) & 0xffff) / 65536.0;
        return 1.0 - kNoise / 2.0 + kNoise * u;
      };
      const double a = kA * jitter(0), b = kB * jitter(1), c = kC * jitter(2), d = kD * jitter(3);
      const double u = rng.uniform(base + 2 * static_cast<std::uint64_t>(level)) * (a + b + c + d);
      row <<= 1;
      col <<= 1;
      if (u >= a + b + c) {
        row |= 1;
        col |= 1;
      } else if (u >= a + b) {
        row |= 1;
      } else if (u >= a) {
        col |= 1;
      }
    }
    out[static_cast<std::size_t>(e)] = {row, col};
  }
  return out;
}

void write_snap_text(const std::vector<Edge>& edges, std::int64_t nv, const std::string& path) {
  std::string buf = "# Directed graph: R-MAT\n# Nodes: " + std::to_string(nv) +
                    " Edges: " + std::to_string(edges.size()) + "\n# FromNodeId\tToNodeId\n";
  buf.reserve(buf.size() + edges.size() * 16);
  char tmp[48];
  for (const Edge& e : edges) {
    char* p = std::to_chars(tmp, tmp + 24, e.u).ptr;
    *p++ = '\t';
    p = std::to_chars(p, tmp + 48, e.v).ptr;
    *p++ = '\n';
    buf.append(tmp, static_cast<std::size_t>(p - tmp));
  }
  std::ofstream out(path, std::ios::binary);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<std::map<std::string, double>> Spans::self_time_by_layer(
    const std::string& root_name) const {
  std::vector<double> child_time(records_.size(), 0.0);
  for (const Record& r : records_)
    if (r.parent >= 0) child_time[static_cast<std::size_t>(r.parent)] += r.end - r.start;
  std::map<int, std::map<std::string, double>> per_root;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (records_[static_cast<std::size_t>(r.root)].name != root_name) continue;
    per_root[r.root][r.layer] += (r.end - r.start) - child_time[i];
  }
  std::vector<std::map<std::string, double>> out;
  for (auto& [root, layers] : per_root) out.push_back(std::move(layers));
  return out;
}

void Spans::write_jsonl(const std::string& path, const std::string& prefix, bool append) const {
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"id\":\"%s%zu\",\"name\":\"%s\",\"layer\":\"%s\",\"start_s\":%.9f,"
                  "\"end_s\":%.9f,\"parent\":%s,\"request\":\"%s%d\"}\n",
                  prefix.c_str(), i, r.name.c_str(), r.layer.c_str(), r.start, r.end,
                  r.parent < 0 ? "null" : ("\"" + prefix + std::to_string(r.parent) + "\"").c_str(),
                  prefix.c_str(), r.root);
    out << line;
  }
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in output order; BENCHMARK.json lists the same
// names (run.py checks the two agree).
constexpr LayerMetric kLayerMetrics[] = {
    {"io.read_s", "s"},
    {"io.read_mb_per_s", "MB/s"},
    {"io.write_s", "s"},
    {"robust.sanitize_s", "s"},
    {"graph.build_s", "s"},
    {"graph.build_edges_per_s", "edges/s"},
    {"core.detect_s", "s"},
    {"core.levels", "count"},
    {"core.tail_share", "ratio"},
    {"core.driver_s", "s"},
    {"core.speedup_4t", "ratio"},
    {"score.s", "s"},
    {"score.edges_scored", "count"},
    {"match.s", "s"},
    {"match.sweeps", "count"},
    {"match.proposals", "count"},
    {"match.claim_conflicts", "count"},
    {"match.useful_ratio", "ratio"},
    {"contract.s", "s"},
    {"contract.level1_edges_per_s", "edges/s"},
    {"contract.edges_in", "count"},
    {"contract.bytes_per_edge", "B/edge"},
    {"shard.partition_s", "s"},
    {"shard.score_s", "s"},
    {"shard.match_s", "s"},
    {"shard.contract_s", "s"},
    {"shard.match_sweeps", "count"},
    {"shard.spill.read_bytes", "B"},
    {"shard.spill.reads", "count"},
    {"shard.spill.write_bytes", "B"},
    {"shard.spill.writes", "count"},
    {"shard.spill.read_bytes_per_level", "B"},
    {"dyn.apply_ms", "ms"},
    {"dyn.recompute_ms", "ms"},
    {"dyn.unseated", "count"},
    {"dyn.kept_prior_ratio", "ratio"},
    {"serve.ingest_deltas_per_s", "deltas/s"},
    {"serve.submit_us", "us"},
    {"serve.overhead_ms", "ms"},
    {"serve.commit_p90_ms", "ms"},
    {"serve.query_p50_us", "us"},
    {"serve.query_p99_us", "us"},
    {"serve.query_service_p50_us", "us"},
    {"serve.query_service_p99_us", "us"},
    {"serve.generator_late_ms", "ms"},
    {"serve.generator_late_p50_us", "us"},
    {"obs.trace_overhead", "ratio"},
    {"self.io_s", "s"},
    {"self.robust_s", "s"},
    {"self.graph_s", "s"},
    {"self.shard_s", "s"},
    {"self.core_s", "s"},
    {"self.serve_s", "s"},
    {"self.bench_s", "s"},
};

}  // namespace

void set_layer_metrics(Result& r, const std::map<std::string, double>& values) {
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = values.find(m.name);
    r.set(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
}

void add_self_times(const Spans& spans, const std::string& root_name,
                    std::map<std::string, double>& values) {
  std::map<std::string, std::vector<double>> per_layer;
  const auto roots = spans.self_time_by_layer(root_name);
  for (const auto& layers : roots)
    for (const char* layer : {"io", "robust", "graph", "shard", "core", "serve", "bench"}) {
      const auto it = layers.find(layer);
      per_layer[layer].push_back(it == layers.end() ? 0.0 : it->second);
    }
  for (const auto& [layer, v] : per_layer) values["self." + layer + "_s"] = median(v);
}

void Result::print(const std::string& workload) const {
  std::fprintf(stderr, "%s: %lld attempted, %lld failed\n", workload.c_str(),
               static_cast<long long>(attempted), static_cast<long long>(failed));
  for (const std::string& f : failures) std::fprintf(stderr, "  FAILED: %s\n", f.c_str());
  for (const auto& [name, m] : metrics)
    std::fprintf(stderr, "  %-36s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + num + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
