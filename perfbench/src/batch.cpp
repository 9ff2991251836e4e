// Batch workloads: file -> labels through the library's public calls.
//
//   rmat-detect  R-MAT scale 17 as SNAP text; read -> sanitize -> build
//                -> detect (default agglomerative plan) -> write labels.
//   rmat-spill   R-MAT scale 15 as a binary edge list; read -> sanitize
//                -> build -> partition_graph (K = 4, spill on) -> sharded
//                detect -> write labels.
//
// Each pass is one file -> labels run.  Passes repeat until the time
// budget is spent; rmat-detect's first pass is a warm-up and is not
// timed.  Every pass's labels file is read back and checked.
#include <omp.h>

#include <charconv>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <stdexcept>

#include "bench.hpp"
#include "commdet/core/detect.hpp"
#include "commdet/core/metrics.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/io/binary.hpp"
#include "commdet/io/edge_list_text.hpp"
#include "commdet/io/partition.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/robust/sanitize.hpp"
#include "commdet/shard/sharded_graph.hpp"

namespace perfbench {
namespace {

using V = std::int64_t;
namespace fs = std::filesystem;

// Modularity floors, about 3% under the lowest pass seen on the library
// this benchmark was written against (rmat-detect 0.1948 over 272
// passes on 21 seeds, rmat-spill 0.2285 over 20 seeds).  A pass below
// its floor counts as failed.
constexpr double kDetectModularityFloor = 0.189;
constexpr double kSpillModularityFloor = 0.22;

struct Pass {
  double read = 0, sanitize = 0, build = 0, partition = 0, detect = 0, write = 0;
  double setup = 0, total = 0;
  double modularity = 0;
  std::int64_t input_edges = 0;
  double pairs_matched = 0;
  std::map<std::string, double> layer;  // per-layer values of this pass
};

/// Reads a "vertex community" labels file back and checks that it
/// covers every vertex once and that its labels are dense in [0, k).
std::optional<std::string> check_labels(const std::string& path, std::int64_t nv,
                                        std::int64_t k, std::vector<V>& labels) {
  std::ifstream in(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  labels.assign(static_cast<std::size_t>(nv), -1);
  std::vector<char> used(static_cast<std::size_t>(std::max<std::int64_t>(k, 0)), 0);
  const char* p = text.data();
  const char* end = p + text.size();
  std::int64_t lines = 0;
  while (p < end) {
    std::int64_t v = -1, c = -1;
    auto r1 = std::from_chars(p, end, v);
    if (r1.ec != std::errc() || r1.ptr >= end || *r1.ptr != ' ') return "malformed labels line";
    auto r2 = std::from_chars(r1.ptr + 1, end, c);
    if (r2.ec != std::errc() || r2.ptr >= end || *r2.ptr != '\n') return "malformed labels line";
    p = r2.ptr + 1;
    ++lines;
    if (v < 0 || v >= nv) return "labels name vertex " + std::to_string(v) + " outside the graph";
    if (labels[static_cast<std::size_t>(v)] != -1)
      return "vertex " + std::to_string(v) + " labelled twice";
    if (c < 0 || c >= k) return "label " + std::to_string(c) + " outside [0, k)";
    labels[static_cast<std::size_t>(v)] = c;
    used[static_cast<std::size_t>(c)] = 1;
  }
  if (lines != nv)
    return "labels cover " + std::to_string(lines) + " of " + std::to_string(nv) + " vertices";
  for (std::int64_t c = 0; c < k; ++c)
    if (used[static_cast<std::size_t>(c)] == 0)
      return "labels are not dense: " + std::to_string(c) + " unused";
  return std::nullopt;
}

void add_level_metrics(const commdet::Clustering<V>& result, bool sharded, Pass& p) {
  double score = 0, match = 0, contract = 0, tail = 0, sweeps = 0, pairs = 0;
  for (std::size_t i = 0; i < result.levels.size(); ++i) {
    const auto& l = result.levels[i];
    const double phases = l.score_seconds + l.match_seconds + l.contract_seconds;
    score += l.score_seconds;
    match += l.match_seconds;
    contract += l.contract_seconds;
    if (i >= 10) tail += phases;
    sweeps += l.match_sweeps;
    pairs += static_cast<double>(l.pairs_matched);
  }
  const double phases = score + match + contract;
  auto& m = p.layer;
  m["core.detect_s"] = p.detect;
  m["core.levels"] = static_cast<double>(result.levels.size());
  m["core.tail_share"] = phases > 0 ? tail / phases : 0.0;
  m["core.driver_s"] = p.detect - phases;
  m[sharded ? "shard.score_s" : "score.s"] = score;
  m[sharded ? "shard.match_s" : "match.s"] = match;
  m[sharded ? "shard.contract_s" : "contract.s"] = contract;
  m[sharded ? "shard.match_sweeps" : "match.sweeps"] = sweeps;
  p.pairs_matched = pairs;
  if (!sharded && !result.levels.empty() && result.levels[0].contract_seconds > 0)
    m["contract.level1_edges_per_s"] =
        static_cast<double>(result.levels[0].ne_before) / result.levels[0].contract_seconds;
}

void add_counter_metrics(const commdet::obs::MetricsRegistry& reg, Pass& p) {
  const auto snap = reg.snapshot();
  const auto get = [&](const char* name) {
    const auto it = snap.find(name);
    return it == snap.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto& m = p.layer;
  m["score.edges_scored"] = get("score.edges_scored");
  m["match.proposals"] = get("match.proposals");
  m["match.claim_conflicts"] = get("match.claim_conflicts");
  if (m["match.proposals"] > 0) m["match.useful_ratio"] = p.pairs_matched / m["match.proposals"];
  m["contract.edges_in"] = get("contract.edges_in");
  if (m["contract.edges_in"] > 0)
    m["contract.bytes_per_edge"] = get("contract.scratch_bytes_moved") / m["contract.edges_in"];
  m["shard.spill.read_bytes"] = get("shard.spill.read_bytes");
  m["shard.spill.reads"] = get("shard.spill.reads");
  m["shard.spill.write_bytes"] = get("shard.spill.write_bytes");
  m["shard.spill.writes"] = get("shard.spill.writes");
  if (m["core.levels"] > 0)
    m["shard.spill.read_bytes_per_level"] = m["shard.spill.read_bytes"] / m["core.levels"];
}

class BatchWorkload {
 public:
  BatchWorkload(const RunConfig& cfg, bool spill)
      : cfg_(cfg), spill_(spill), spans_(false),
        input_(cfg.dir + (spill ? "/graph.bin" : "/graph.txt")) {
    input_bytes_ = static_cast<double>(fs::file_size(input_));
  }

  /// One file -> labels pass.  `detect` false stops after set-up (used
  /// to take more set-up samples when passes are long).
  Pass run_pass(bool traced, bool detect, Result& res) {
    Pass p;
    std::optional<commdet::obs::MetricsRegistry> reg;
    std::optional<commdet::obs::MetricsSession> session;
    if (traced) {
      reg.emplace();
      session.emplace(*reg);
    }
    spans_.enable(traced);
    const std::string labels_path = cfg_.dir + "/labels.txt";
    const std::string spill_dir = cfg_.dir + "/spill";
    commdet::Clustering<V> result;
    commdet::CommunityGraph<V> g;
    {
      const Span pass(spans_, "pass", "bench");
      const auto t0 = Clock::now();
      commdet::EdgeList<V> edges;
      {
        const Span s(spans_, "read", "io", pass.id());
        edges = spill_ ? commdet::read_edge_list_binary<V>(input_)
                       : commdet::read_edge_list_text<V>(input_);
      }
      const auto t1 = Clock::now();
      {
        const Span s(spans_, "sanitize", "robust", pass.id());
        (void)commdet::sanitize_edges(edges).value_or_throw();
      }
      const auto t2 = Clock::now();
      {
        const Span s(spans_, "build", "graph", pass.id());
        g = commdet::build_community_graph(edges);
      }
      const auto t3 = Clock::now();
      std::optional<commdet::ShardedGraph<V>> sg;
      if (spill_) {
        const Span s(spans_, "partition", "shard", pass.id());
        sg.emplace(commdet::partition_graph(g, 4, commdet::ShardSpill{true, spill_dir}));
      }
      const auto t4 = Clock::now();
      p.input_edges = edges.num_edges();
      p.read = seconds_between(t0, t1);
      p.sanitize = seconds_between(t1, t2);
      p.build = seconds_between(t2, t3);
      p.partition = seconds_between(t3, t4);
      p.setup = seconds_between(t0, t4);
      if (!detect) {
        sg.reset();
        fs::remove_all(spill_dir);
        return p;
      }
      {
        const Span s(spans_, "detect", "core", pass.id());
        result = spill_ ? commdet::detect_communities_sharded(std::move(*sg), {})
                        : commdet::detect_communities(g, commdet::DetectPlan{}, {});
      }
      const auto t5 = Clock::now();
      {
        const Span s(spans_, "write", "io", pass.id());
        commdet::write_partition_pairs(result.community, labels_path);
      }
      const auto t6 = Clock::now();
      p.detect = seconds_between(t4, t5);
      p.write = seconds_between(t5, t6);
      p.total = seconds_between(t0, t6);
    }
    session.reset();
    fs::remove_all(spill_dir);

    ++res.attempted;
    const auto fail = [&](const std::string& why) {
      res.fail("pass " + std::to_string(res.attempted) + ": " + why);
    };
    std::vector<V> labels;
    if (auto bad = check_labels(labels_path, static_cast<std::int64_t>(g.nv),
                                result.num_communities, labels)) {
      fail(*bad);
    } else {
      p.modularity = commdet::evaluate_partition(g, std::span<const V>(labels)).modularity;
      if (std::abs(p.modularity - result.final_modularity) > 1e-9)
        fail("recomputed modularity " + std::to_string(p.modularity) +
             " differs from the reported " + std::to_string(result.final_modularity));
      const double floor = spill_ ? kSpillModularityFloor : kDetectModularityFloor;
      if (p.modularity < floor)
        fail("modularity " + std::to_string(p.modularity) + " below the floor " +
             std::to_string(floor));
    }
    if (commdet::is_degraded(result.reason))
      fail(std::string("degraded termination: ") + std::string(commdet::to_string(result.reason)));
    fs::remove(labels_path);

    auto& m = p.layer;
    m["io.read_s"] = p.read;
    m["io.read_mb_per_s"] = input_bytes_ / 1e6 / p.read;
    m["io.write_s"] = p.write;
    m["robust.sanitize_s"] = p.sanitize;
    m["graph.build_s"] = p.build;
    m["graph.build_edges_per_s"] = static_cast<double>(p.input_edges) / p.build;
    m["shard.partition_s"] = p.partition;
    add_level_metrics(result, spill_, p);
    if (reg) add_counter_metrics(*reg, p);
    std::fprintf(stderr,
                 "  pass %lld%s: %.3fs (read %.3f sanitize %.3f build %.3f partition %.3f "
                 "detect %.3f write %.3f), %zu levels, Q=%.5f\n",
                 static_cast<long long>(res.attempted), traced ? " traced" : "", p.total,
                 p.read, p.sanitize, p.build, p.partition, p.detect, p.write,
                 result.levels.size(), p.modularity);
    return p;
  }

  Result run() {
    Result res;
    const auto start = Clock::now();
    const int threads = omp_get_max_threads();
    std::vector<Pass> timed, traced;
    std::vector<double> setups;
    double speedup_4t = 0.0;
    if (cfg_.trace && !spill_) {
      // core.speedup_4t: a 1-thread pass against a 4-thread one, the
      // latter doubling as the warm-up pass.
      omp_set_num_threads(1);
      const double serial = run_pass(false, true, res).detect;
      omp_set_num_threads(4);
      speedup_4t = serial / run_pass(false, true, res).detect;
      omp_set_num_threads(threads);
    } else if (!spill_) {
      // The warm-up pass: the first text pass of a run was often 20-40%
      // slower than the rest.  It is checked but not timed.
      (void)run_pass(false, true, res);
    }
    const auto pass_start = Clock::now();
    for (int i = 0;; ++i) {
      const bool trace_this = cfg_.trace && i % 2 == 0;
      Pass p = run_pass(trace_this, true, res);
      setups.push_back(p.setup);
      (trace_this ? traced : timed).push_back(std::move(p));
      const double elapsed = seconds_between(start, Clock::now());
      const double per_pass = seconds_between(pass_start, Clock::now()) / (i + 1);
      const bool have_both = !cfg_.trace || (!timed.empty() && !traced.empty());
      // Start another pass while its midpoint falls inside the budget.
      if (have_both && elapsed + per_pass / 2 > cfg_.seconds) break;
    }
    // Set-up is short next to a pass: take at least 5 samples of it, and
    // up to 15 while they fit in 2 more seconds.
    double extra = 0.0;
    while (setups.size() < 5 || (setups.size() < 15 && extra + median(setups) < 2.0)) {
      setups.push_back(run_pass(false, false, res).setup);
      extra += setups.back();
    }

    const auto med = [](const std::vector<Pass>& ps, double Pass::*field) {
      std::vector<double> v;
      for (const Pass& p : ps) v.push_back(p.*field);
      return median(v);
    };
    if (!cfg_.trace) {
      // The lower quartile of the passes, not their median: on a shared
      // host, steal comes in bursts of seconds that slow whole passes,
      // and the quartile still spans the matcher's pass-to-pass spread.
      std::vector<double> totals;
      for (const Pass& p : timed) totals.push_back(p.total);
      res.set("time_to_labels_s", quantile(totals, 0.25), "s");
      res.set("setup_s", median(setups), "s");
      res.set("modularity", med(timed, &Pass::modularity), "Q");
      res.set("peak_rss_mb", peak_rss_mb(), "MB");
      return res;
    }
    std::map<std::string, std::vector<double>> samples;
    for (const Pass& p : traced)
      for (const auto& [k, v] : p.layer) samples[k].push_back(v);
    std::map<std::string, double> layer;
    for (const auto& [k, v] : samples) layer[k] = median(v);
    if (speedup_4t > 0) layer["core.speedup_4t"] = speedup_4t;
    layer["obs.trace_overhead"] = med(traced, &Pass::total) / med(timed, &Pass::total);
    add_self_times(spans_, "pass", layer);
    set_layer_metrics(res, layer);
    spans_.write_jsonl(cfg_.dir + "/trace.jsonl", "s");
    return res;
  }

 private:
  const RunConfig& cfg_;
  bool spill_;
  Spans spans_;
  std::string input_;
  double input_bytes_ = 0;
};

}  // namespace

void generate_batch_inputs(const RunConfig& cfg) {
  const bool spill = cfg.workload == "rmat-spill";
  // Scales 17 and 15, not 18 and 16: a pass at the larger scale takes
  // 4-14 s on a 4-vCPU host, too few passes per run for a steady figure.
  const int scale = spill ? 15 : 17;
  const auto edges = rmat_edges(scale, 8, cfg.seed);
  if (!spill) {
    write_snap_text(edges, std::int64_t{1} << scale, cfg.dir + "/graph.txt");
    return;
  }
  commdet::EdgeList<V> el;
  el.num_vertices = V{1} << scale;
  el.edges.reserve(edges.size());
  for (const Edge& e : edges) el.edges.push_back({e.u, e.v, 1});
  commdet::write_edge_list_binary(el, cfg.dir + "/graph.bin");
}

Result run_rmat_detect(const RunConfig& cfg) { return BatchWorkload(cfg, false).run(); }
Result run_rmat_spill(const RunConfig& cfg) { return BatchWorkload(cfg, true).run(); }

}  // namespace perfbench
