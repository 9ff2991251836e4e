// Shared pieces of the perfbench harness: the seeded input generators,
// the in-memory span recorder, sample statistics, and the result line.
//
// The generators live here rather than in the library so a change to
// commdet/gen/ never changes the benchmark's inputs.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- inputs

/// splitmix64 finalizer: a stateless counter-based RNG, so draw i of a
/// stream is a pure function of (seed, stream, i).
[[nodiscard]] constexpr std::uint64_t mix(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Draws {
  std::uint64_t key;
  Draws(std::uint64_t seed, std::uint64_t stream) : key(mix(seed ^ mix(stream))) {}
  [[nodiscard]] std::uint64_t at(std::uint64_t i) const noexcept { return mix(key ^ mix(i)); }
  [[nodiscard]] std::uint64_t below(std::uint64_t i, std::uint64_t n) const noexcept {
    return static_cast<std::uint64_t>((static_cast<unsigned __int128>(at(i)) * n) >> 64);
  }
  [[nodiscard]] double uniform(std::uint64_t i) const noexcept {
    return static_cast<double>(at(i) >> 11) * 0x1.0p-53;
  }
};

struct Edge {
  std::int64_t u;
  std::int64_t v;
};

/// Raw R-MAT multigraph (a = 0.55, b = c = 0.10, d = 0.25 with 10%
/// per-level noise, the paper's parameters).  Self-loops and repeated
/// pairs are kept, as a SNAP-style dump of a real edge stream would.
[[nodiscard]] std::vector<Edge> rmat_edges(int scale, int edge_factor, std::uint64_t seed);

/// Writes `edges` as a SNAP-style text edge list ("# ..." header, one
/// "u v" pair per line).
void write_snap_text(const std::vector<Edge>& edges, std::int64_t nv, const std::string& path);

// ----------------------------------------------------------- statistics

/// Linear-interpolated quantile of `v` (copied and sorted); 0 when empty.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

[[nodiscard]] inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --------------------------------------------------------------- spans

/// In-memory span recorder: name, layer, interval, parent span and the
/// root span (the request) it belongs to.  Disabled recorders keep
/// nothing, so timed runs pay one branch per span.
class Spans {
 public:
  struct Record {
    std::string name;
    std::string layer;
    double start = 0.0;  // seconds since the recorder was created
    double end = 0.0;
    int parent = -1;
    int root = -1;
  };

  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span under `parent` (-1 = a new root); returns its id, or
  /// -1 when disabled.  Not thread-safe: each thread that records spans
  /// owns its own recorder.
  int open(std::string name, std::string layer, int parent = -1) {
    if (!enabled_) return -1;
    Record r;
    r.name = std::move(name);
    r.layer = std::move(layer);
    r.start = seconds_between(origin_, Clock::now());
    r.parent = parent;
    r.root = parent < 0 ? static_cast<int>(records_.size())
                        : records_[static_cast<std::size_t>(parent)].root;
    records_.push_back(std::move(r));
    return static_cast<int>(records_.size()) - 1;
  }

  void close(int id) {
    if (id < 0) return;
    records_[static_cast<std::size_t>(id)].end = seconds_between(origin_, Clock::now());
  }

  void enable(bool on) noexcept { enabled_ = on; }

  /// Self time (duration minus the time its direct children cover) per
  /// layer, for every root span named `root_name`; one map per root.
  [[nodiscard]] std::vector<std::map<std::string, double>> self_time_by_layer(
      const std::string& root_name) const;

  /// Writes every span as one JSON object per line; ids carry `prefix`
  /// so several recorders can share one file.
  void write_jsonl(const std::string& path, const std::string& prefix, bool append = false) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
};

/// RAII span over a recorder.
class Span {
 public:
  Span(Spans& s, std::string name, std::string layer, int parent = -1)
      : spans_(s), id_(s.open(std::move(name), std::move(layer), parent)) {}
  ~Span() { spans_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Spans& spans_;
  int id_;
};

// -------------------------------------------------------------- result

/// The benchmark's output: every metric by name with its unit, plus the
/// operation tally.  print() writes a human-readable table to stderr and
/// the one-line JSON result as the last line of stdout.
struct Result {
  struct Metric {
    double value;
    std::string unit;
  };
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check
  std::vector<std::pair<std::string, Metric>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, Metric{value, unit});
  }
  void fail(const std::string& why) {
    ++failed;
    failures.push_back(why);
  }
  void print(const std::string& workload) const;
};

/// Sets every per-layer metric the benchmark defines, in its fixed
/// order; a metric missing from `values` (a layer the workload does not
/// run) reads 0.
void set_layer_metrics(Result& r, const std::map<std::string, double>& values);

/// Adds "self.<layer>_s": the median over root spans named `root_name`
/// of each layer's self time inside that root.
void add_self_times(const Spans& spans, const std::string& root_name,
                    std::map<std::string, double>& values);

struct RunConfig {
  std::string workload;
  std::string dir;  // holds the generated inputs; outputs are written here too
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Input generation (run once per seed, in its own process so the
/// measured process's peak RSS excludes it).
void generate_batch_inputs(const RunConfig& cfg);
void generate_stream_inputs(const RunConfig& cfg);

Result run_rmat_detect(const RunConfig& cfg);
Result run_rmat_spill(const RunConfig& cfg);
Result run_stream_ingest(const RunConfig& cfg);

}  // namespace perfbench
