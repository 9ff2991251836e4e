// stream-ingest: R-MAT scale 16 served by an in-process
// serve::CommunityService (WAL fsync off, one micro-batch per commit),
// driven through serve::Session::handle_line like a daemon connection:
//
//   * a closed-loop ingest session sends kCommitDeltas delta lines, half
//     deletes of edges of the initial graph and half random inserts,
//     then COMMIT, and waits for the OK before the next commit;
//   * an open-loop query session sends "GET v" at kQueryRate per second,
//     v uniform over the vertices, each timed from its due time.
//
// Set-up is CommunityService::create (initial detection, generation-1
// snapshot, WAL open), taken several times; the median is reported.
#include <sys/prctl.h>

#include <filesystem>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "commdet/core/metrics.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/io/binary.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/serve/service.hpp"
#include "commdet/serve/session.hpp"

namespace perfbench {
namespace {

using V = std::int64_t;
using Service = commdet::serve::CommunityService<V>;
using Session = commdet::serve::Session<V>;
namespace fs = std::filesystem;

constexpr int kCommitDeltas = 1024;
constexpr double kQueryRate = 2000.0;  // GET requests per second
constexpr int kCreates = 7;            // set-up samples per run ...
constexpr int kCreatesBefore = 2;      // ... of which taken before streaming
constexpr int kQuerySpanEvery = 64;    // traced runs keep a span for every 64th query
// The reported modularity is taken at this epoch, not at the last one:
// how many commits fit in a run depends on the host's speed, and the
// graph drifts with every commit.
constexpr std::int64_t kQualityEpoch = 16;

/// Commit i's delta lines: a pure function of (seed, i), so every run
/// with one seed sends the same stream.
std::vector<std::string> commit_lines(const commdet::CommunityGraph<V>& g0, std::uint64_t seed,
                                      std::int64_t commit) {
  const Draws rng(seed, 0x5354524d + static_cast<std::uint64_t>(commit));
  const auto ne = static_cast<std::uint64_t>(g0.num_edges());
  const auto nv = static_cast<std::uint64_t>(g0.nv);
  std::vector<std::string> lines;
  lines.reserve(kCommitDeltas);
  for (std::uint64_t i = 0; i < kCommitDeltas; ++i) {
    if (i % 2 == 0) {
      const auto e = static_cast<std::size_t>(rng.below(4 * i, ne));
      lines.push_back("- " + std::to_string(g0.efirst[e]) + ' ' + std::to_string(g0.esecond[e]));
    } else {
      lines.push_back("+ " + std::to_string(rng.below(4 * i + 1, nv)) + ' ' +
                      std::to_string(rng.below(4 * i + 2, nv)) + ' ' +
                      std::to_string(1 + rng.below(4 * i + 3, 3)));
    }
  }
  return lines;
}

struct Query {
  double from_due = 0;  // reply time minus due time
  double service = 0;   // reply time minus send time
  double late = 0;      // send time minus due time
};

struct Phase {
  std::vector<double> commit_s;   // first delta line -> OK ack
  std::vector<double> submit_s;   // the delta lines of one commit
  std::vector<Query> queries;
  std::vector<commdet::obs::DynamicBatchRow> rows;
  double modularity = 0;  // recomputed at kQualityEpoch
};

/// Open-loop GET generator.  It sleeps until just before each due time
/// and spins the rest, so the client's timer adds little to a reply's
/// latency; a reply that comes back after later due times makes those
/// requests late, and their latency counts the wait.
void query_loop(std::stop_token stop, Service& svc, std::int64_t nv, std::uint64_t seed,
                std::vector<Query>& out, std::vector<std::string>& errors, Spans& spans) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Session session(svc, "query");
  const Draws rng(seed, 0x51555259);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kQueryRate));
  const auto start = Clock::now();
  for (std::int64_t i = 0; !stop.stop_requested(); ++i) {
    const auto due = start + i * period;
    if (due - Clock::now() > std::chrono::microseconds(60))
      std::this_thread::sleep_until(due - std::chrono::microseconds(40));
    while (Clock::now() < due) {
    }
    const auto v = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(nv)));
    const std::string line = "GET " + std::to_string(v);
    const auto send = Clock::now();
    const int span = i % kQuerySpanEvery == 0 ? spans.open("query", "serve") : -1;
    const auto reply = session.handle_line(line);
    spans.close(span);
    const auto done = Clock::now();
    out.push_back(
        {seconds_between(due, done), seconds_between(send, done), seconds_between(due, send)});
    const std::string expect = "OK " + std::to_string(v) + ' ';
    if (!reply.line || reply.line->rfind(expect, 0) != 0)
      errors.push_back(line + " -> " + reply.line.value_or("(no reply)"));
  }
}

class StreamWorkload {
 public:
  explicit StreamWorkload(const RunConfig& cfg) : cfg_(cfg), spans_(false), query_spans_(false) {
    auto edges = commdet::read_edge_list_binary<V>(cfg.dir + "/graph.bin");
    g0_ = commdet::build_community_graph(edges);
  }

  /// One timed CommunityService::create; returns the service and adds
  /// the time to `setups`.
  std::unique_ptr<Service> create(std::vector<double>& setups) {
    commdet::serve::ServeOptions opts;
    opts.dir = cfg_.dir + "/state" + std::to_string(creates_++);
    opts.fsync_wal = false;
    opts.batch_max_deltas = kCommitDeltas;
    commdet::CommunityGraph<V> base = g0_;
    const auto t0 = Clock::now();
    const int span = spans_.open("create", "serve");
    auto svc = Service::create(std::move(base), std::move(opts));
    spans_.close(span);
    setups.push_back(seconds_between(t0, Clock::now()));
    if (!svc.has_value()) throw std::runtime_error("create failed: " + svc.error().message());
    return std::move(svc.value());
  }

  /// Streams commits into `svc` for `seconds` with the query session
  /// running, then checks the final QUALITY reply.
  Phase stream(Service& svc, double seconds, Result& res) {
    Phase ph;
    std::vector<std::string> query_errors;
    // A jthread so an exception below still stops and joins the reader.
    std::jthread reader(query_loop, std::ref(svc), static_cast<std::int64_t>(g0_.nv), cfg_.seed,
                        std::ref(ph.queries), std::ref(query_errors), std::ref(query_spans_));
    Session session(svc, "ingest");
    const auto start = Clock::now();
    std::int64_t epoch = svc.snapshot()->epoch;
    for (std::int64_t i = 0;
         epoch < kQualityEpoch || seconds_between(start, Clock::now()) < seconds; ++i) {
      const auto lines = commit_lines(g0_, cfg_.seed, i);
      ++res.attempted;
      const Span commit(spans_, "commit", "bench");
      const auto t0 = Clock::now();
      std::string error;
      {
        const Span s(spans_, "submit", "serve", commit.id());
        for (const std::string& line : lines) {
          const auto reply = session.handle_line(line);
          if (reply.line && error.empty()) error = line + " -> " + *reply.line;
        }
      }
      const auto t1 = Clock::now();
      Session::Reply ack;
      {
        const Span s(spans_, "ack", "serve", commit.id());
        ack = session.handle_line("COMMIT");
      }
      const auto t2 = Clock::now();
      ph.submit_s.push_back(seconds_between(t0, t1));
      ph.commit_s.push_back(seconds_between(t0, t2));
      const std::string expect = "OK " + std::to_string(++epoch);
      if (!error.empty()) res.fail("commit " + std::to_string(i) + ": " + error);
      else if (!ack.line || *ack.line != expect)
        res.fail("commit " + std::to_string(i) + ": expected '" + expect + "', got '" +
                 ack.line.value_or("(no reply)") + "'");
      if (epoch == kQualityEpoch) ph.modularity = check_quality(svc, session, epoch, res);
    }
    reader.request_stop();
    reader.join();
    res.attempted += static_cast<std::int64_t>(ph.queries.size());
    for (const std::string& e : query_errors) res.fail("query " + e);
    (void)check_quality(svc, session, epoch, res);
    ph.rows = svc.dynamics().stats().batch_rows;
    return ph;
  }

  /// Sends QUALITY and checks its reply against the modularity
  /// recomputed from the published labels over the service's current
  /// graph; returns the recomputed value.  Called only while the writer
  /// is idle (right after a COMMIT is acknowledged, before the next
  /// delta line), so its state can be read from this thread.
  static double check_quality(Service& svc, Session& session, std::int64_t epoch, Result& res) {
    ++res.attempted;
    const auto quality = session.handle_line("QUALITY");
    const auto snap = svc.snapshot();
    const double q = commdet::evaluate_partition(svc.dynamics().graph(),
                                                 std::span<const V>(*snap->labels))
                         .modularity;
    std::istringstream in(quality.line.value_or(""));
    std::string ok;
    std::int64_t q_epoch = -1, q_comms = -1;
    double q_mod = 0;
    in >> ok >> q_epoch >> q_comms >> q_mod;
    if (ok != "OK" || q_epoch != epoch || std::abs(q_mod - q) > 1e-9)
      res.fail("QUALITY replied '" + quality.line.value_or("(no reply)") +
               "'; recomputed modularity " + std::to_string(q) + " at epoch " +
               std::to_string(epoch));
    return q;
  }

  Result run() {
    Result res;
    const auto start = Clock::now();
    std::vector<double> setups;
    std::map<std::string, double> layer;
    // Set-up samples are split between the start and the end of the run,
    // so one burst of host load cannot slow all of them.
    std::unique_ptr<Service> svc;
    for (int i = 0; i < kCreatesBefore; ++i) {
      svc.reset();  // one service at a time, so peak RSS counts one
      svc = create(setups);
    }
    const double left = cfg_.seconds - seconds_between(start, Clock::now()) -
                        (kCreates - kCreatesBefore) * median(setups);
    // A traced run streams half its time untraced, then half on a
    // service created under a metrics registry with spans on; both
    // halves send the same commits, so their medians compare.
    const Phase timed = stream(*svc, cfg_.trace ? left / 2 : left, res);
    svc.reset();
    if (cfg_.trace) {
      commdet::obs::MetricsRegistry reg;
      const commdet::obs::MetricsSession session(reg);
      spans_.enable(true);
      query_spans_.enable(true);
      std::vector<double> traced_setups;
      svc = create(traced_setups);
      const Phase traced = stream(*svc, left / 2, res);
      svc.reset();
      spans_.enable(false);
      layer = layer_metrics(traced, reg);
      layer["obs.trace_overhead"] = median(traced.commit_s) / median(timed.commit_s);
      add_self_times(spans_, "commit", layer);
    }
    while (static_cast<int>(setups.size()) < kCreates) create(setups).reset();
    std::vector<double> from_due, service;
    for (const Query& q : timed.queries) {
      from_due.push_back(q.from_due * 1e6);
      service.push_back(q.service * 1e6);
    }
    std::fprintf(stderr,
                 "  %zu commits: p50 %.1f ms, p90 %.1f ms; %zu queries: p50 %.1f us, p99 %.1f us "
                 "from due (service p50 %.1f us); create p50 %.3f s\n",
                 timed.commit_s.size(), median(timed.commit_s) * 1e3,
                 quantile(timed.commit_s, 0.9) * 1e3, timed.queries.size(), median(from_due),
                 quantile(from_due, 0.99), median(service), median(setups));
    if (cfg_.trace) {
      set_layer_metrics(res, layer);
      spans_.write_jsonl(cfg_.dir + "/trace.jsonl", "s", false);
      query_spans_.write_jsonl(cfg_.dir + "/trace.jsonl", "q", true);
    } else {
      res.set("time_to_labels_s", median(timed.commit_s), "s");
      res.set("setup_s", median(setups), "s");
      res.set("modularity", timed.modularity, "Q");
      res.set("peak_rss_mb", peak_rss_mb(), "MB");
    }
    for (int i = 0; i < creates_; ++i) fs::remove_all(cfg_.dir + "/state" + std::to_string(i));
    return res;
  }

 private:
  static std::map<std::string, double> layer_metrics(const Phase& ph,
                                                     const commdet::obs::MetricsRegistry& reg) {
    std::map<std::string, double> m;
    std::vector<double> apply, recompute, unseated, from_due, service, late, submit;
    double kept = 0, phase_s = 0;
    for (const auto& r : ph.rows) {
      apply.push_back(r.apply_seconds * 1e3);
      recompute.push_back(r.recompute_seconds * 1e3);
      unseated.push_back(static_cast<double>(r.dirty));
      kept += r.kept_prior ? 1 : 0;
      phase_s += r.apply_seconds + r.recompute_seconds;
    }
    const double commits = static_cast<double>(ph.commit_s.size());
    double commit_total = 0;
    for (double s : ph.commit_s) commit_total += s;
    for (double s : ph.submit_s) submit.push_back(s / kCommitDeltas * 1e6);
    for (const Query& q : ph.queries) {
      from_due.push_back(q.from_due * 1e6);
      service.push_back(q.service * 1e6);
      late.push_back(q.late * 1e6);
    }
    m["dyn.apply_ms"] = median(apply);
    m["dyn.recompute_ms"] = median(recompute);
    m["dyn.unseated"] = median(unseated);
    m["dyn.kept_prior_ratio"] = ph.rows.empty() ? 0.0 : kept / static_cast<double>(ph.rows.size());
    m["serve.ingest_deltas_per_s"] = kCommitDeltas * commits / commit_total;
    m["serve.submit_us"] = median(submit);
    m["serve.overhead_ms"] = (commit_total - phase_s) / commits * 1e3;
    m["serve.commit_p90_ms"] = quantile(ph.commit_s, 0.9) * 1e3;
    m["serve.query_p50_us"] = median(from_due);
    m["serve.query_p99_us"] = quantile(from_due, 0.99);
    m["serve.query_service_p50_us"] = median(service);
    m["serve.query_service_p99_us"] = quantile(service, 0.99);
    m["serve.generator_late_ms"] = quantile(late, 0.99) / 1e3;
    m["serve.generator_late_p50_us"] = median(late);
    const auto snap = reg.snapshot();
    const auto get = [&](const char* name) {
      const auto it = snap.find(name);
      return it == snap.end() ? 0.0 : static_cast<double>(it->second);
    };
    m["score.edges_scored"] = get("score.edges_scored") / commits;
    m["match.proposals"] = get("match.proposals") / commits;
    m["match.claim_conflicts"] = get("match.claim_conflicts") / commits;
    m["match.sweeps"] = get("match.sweeps") / commits;
    m["contract.edges_in"] = get("contract.edges_in") / commits;
    if (get("contract.edges_in") > 0)
      m["contract.bytes_per_edge"] = get("contract.scratch_bytes_moved") / get("contract.edges_in");
    return m;
  }

  const RunConfig& cfg_;
  Spans spans_;        // main thread: creates and commits
  Spans query_spans_;  // query thread: sampled GETs
  commdet::CommunityGraph<V> g0_;
  int creates_ = 0;
};

}  // namespace

void generate_stream_inputs(const RunConfig& cfg) {
  const auto edges = rmat_edges(16, 8, cfg.seed);
  commdet::EdgeList<V> el;
  el.num_vertices = V{1} << 16;
  el.edges.reserve(edges.size());
  for (const Edge& e : edges) el.edges.push_back({e.u, e.v, 1});
  commdet::write_edge_list_binary(el, cfg.dir + "/graph.bin");
}

Result run_stream_ingest(const RunConfig& cfg) { return StreamWorkload(cfg).run(); }

}  // namespace perfbench
