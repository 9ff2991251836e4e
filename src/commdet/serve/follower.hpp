// FollowerService: the replica side of WAL-shipping replication.
//
// A follower daemon owns a FollowerService instead of a
// CommunityService.  The writer dials in and drives one replication
// connection; every line of that connection goes through
// handle_repl_line(), which implements:
//
//   REPL HELLO <fingerprint> <writer_epoch> [<term> <lease_ms>]
//   SNAP BEGIN <nbytes> <crc32>               snapshot bootstrap
//   SNAP D <base64>                           (when the follower has
//   SNAP END                                   no usable state)
//   B/E/C/c record lines                      committed WAL records
//   HB <writer_epoch> [<term> <lease_ms>]     idle heartbeat + lease
//
// The optional trailing term/lease fields are the cluster layer
// (serve/cluster.hpp): a clustered writer stamps every HELLO/HB with
// its election term and a lease grant; the follower tracks the highest
// term it has ever observed (persisted to <dir>/cluster-term) and
// fences any frame — handshake, heartbeat, or record — arriving from a
// connection that authenticated at a lower term with a typed
// `ERR stale-term`.  Frames without the fields are term 0 (unclustered
// legacy writers keep working until a real term is observed).
//
// and answers "REPL OK <epoch>", "ACK SNAP <epoch>", "ACK <seq>",
// "ACK HB <epoch>", or a typed "ERR ..." line.
//
// Apply order per record — verify, persist, then publish:
//   1. the record is reassembled and CRC-verified (WalRecordAssembler;
//      a shipped record that fails framing or checksum is refused with
//      a typed error, never applied),
//   2. replay_batch() applies it transactionally (the label-array
//      checksum proves the resulting membership is bit-for-bit the
//      writer's committed epoch),
//   3. the record is re-logged verbatim into the follower's own WAL
//      (so a follower restart — or promotion to writer — recovers
//      exactly like a writer restart),
//   4. the epoch is published for readers, and only then acked.
//
// Readers query the follower exactly like a writer, but through
// snapshot_for_query(): replies are epoch-stamped, and when the
// follower's lag behind the last heartbeat'd writer epoch exceeds the
// configured staleness budget the query is refused with kStaleRead
// (bounded-stale reads, never silently ancient ones).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "commdet/dyn/dynamic_communities.hpp"
#include "commdet/obs/eventlog.hpp"
#include "commdet/obs/json.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/telemetry.hpp"
#include "commdet/robust/checkpoint.hpp"
#include "commdet/robust/error.hpp"
#include "commdet/robust/expected.hpp"
#include "commdet/robust/fault_injection.hpp"
#include "commdet/serve/cluster.hpp"
#include "commdet/serve/epoch.hpp"
#include "commdet/serve/protocol.hpp"
#include "commdet/serve/replication.hpp"
#include "commdet/serve/wal.hpp"
#include "commdet/util/timer.hpp"
#include "commdet/util/types.hpp"

namespace commdet::serve {

struct FollowerOptions {
  /// Must match the writer's dynamic configuration — the handshake
  /// compares fingerprints and refuses a mismatched pairing.
  DynamicOptions dynamic;

  /// Follower's own state root (snapshots in `dir/`, WAL in `dir/wal/`).
  /// Never the writer's directory.
  std::string dir;

  /// Staleness budget, in epochs: refuse queries while the follower is
  /// more than this many committed epochs behind the writer's last
  /// advertised epoch.  Negative = unbounded (always answer).
  std::int64_t max_lag_epochs = -1;

  /// Snapshot cadence / retention / durability, as in ServeOptions.
  int save_every_batches = 16;
  int keep_generations = 2;
  bool fsync_wal = true;
};

template <VertexId V>
class FollowerService {
  using LabelChange = typename DynamicCommunities<V>::LabelChange;

 public:
  /// Starts a follower from `opts.dir`.  Existing state (a previous
  /// follower run, or a writer's directory being promoted the other
  /// way) is recovered exactly like CommunityService::open —
  /// newest-valid snapshot + committed WAL suffix — and served
  /// immediately; an empty directory starts cold and serves nothing
  /// until the writer bootstraps it with a snapshot transfer.
  [[nodiscard]] static Expected<std::unique_ptr<FollowerService>> open(FollowerOptions opts) {
    try {
      std::unique_ptr<FollowerService> svc(new FollowerService(std::move(opts)));
      if (!list_checkpoints(svc->opts_.dir).empty()) {
        auto loaded = DynamicCommunities<V>::load_state(svc->opts_.dir, svc->opts_.dynamic);
        if (!loaded.has_value()) return Unexpected(loaded.error());
        svc->dyn_ = std::make_unique<DynamicCommunities<V>>(std::move(loaded.value()));
        auto records = read_wal_records<V>(svc->wal_dir(), svc->dyn_->epoch());
        for (const WalRecord<V>& rec : records) {
          auto rep = svc->dyn_->replay_batch(
              rec.batch, std::span<const LabelChange>(rec.changes), rec.num_communities,
              rec.modularity, rec.coverage, rec.labels_crc);
          if (!rep.has_value()) return Unexpected(rep.error());
        }
        svc->replayed_ = static_cast<std::int64_t>(records.size());
        svc->adopt_state_locked();
      }
      return svc;
    } catch (const std::exception& e) {
      return Unexpected(error_from_exception(e, Phase::kDynamic));
    }
  }

  FollowerService(const FollowerService&) = delete;
  FollowerService& operator=(const FollowerService&) = delete;

  // ----- replication connection (one writer link at a time) -----

  /// Per-connection replication state.  The term a connection
  /// authenticated at (its HELLO) sticks to that connection: if a
  /// higher-term writer takes over mid-session, records still arriving
  /// on the old connection are fenced even though the service-level
  /// term has already moved on.
  struct ReplConn {
    std::int64_t term = -1;  // -1 = no HELLO seen on this connection yet
  };

  /// Processes one line from a replication connection; returns the
  /// reply line to send, when any.  Thread-safe against queries (which
  /// read the published snapshot) and against concurrent replication
  /// connections (serialized by the internal mutex; a new HELLO simply
  /// resets the assembly state, and apply remains transactional).
  [[nodiscard]] std::optional<std::string> handle_repl_line(const std::string& line,
                                                            ReplConn& conn) {
    std::lock_guard<std::mutex> g(mu_);
    try {
      return handle_repl_line_locked(line, conn);
    } catch (const CommdetError& e) {
      if (e.code() == ErrorCode::kInjectedFault) throw;  // simulated crash
      return protocol_error_line(e.error());
    } catch (const std::exception& e) {
      return protocol_error_line(error_from_exception(e, Phase::kDynamic));
    }
  }

  /// Single-connection convenience (tests, simple drivers): all lines
  /// share one implicit connection.
  [[nodiscard]] std::optional<std::string> handle_repl_line(const std::string& line) {
    return handle_repl_line(line, default_conn_);
  }

  /// The replication connection dropped (possibly mid-record): discard
  /// partial assembly/transfer state.  The writer re-ships whole
  /// records after reconnecting, resuming from our acked epoch.
  void repl_disconnected() {
    std::lock_guard<std::mutex> g(mu_);
    assembler_.reset();
    snap_buf_.clear();
    snap_expected_bytes_ = -1;
    default_conn_.term = -1;  // the next session must re-authenticate its term
  }

  // ----- reader side -----

  /// The snapshot queries answer from, gated by the staleness budget:
  /// kStaleRead when nothing is replicated yet or when the follower
  /// lags the writer's advertised epoch beyond max_lag_epochs.
  [[nodiscard]] Expected<std::shared_ptr<const MembershipSnapshot<V>>> snapshot_for_query()
      const {
    auto snap = publisher_.current();
    if (!snap)
      return Unexpected(Error{ErrorCode::kStaleRead, Phase::kDynamic,
                              "follower has no replicated state yet"});
    const std::int64_t lag = lag_of(snap->epoch);
    if (opts_.max_lag_epochs >= 0 && lag > opts_.max_lag_epochs)
      return Unexpected(Error{
          ErrorCode::kStaleRead, Phase::kDynamic,
          "replication lag " + std::to_string(lag) + " epochs exceeds budget " +
              std::to_string(opts_.max_lag_epochs) + " (follower epoch " +
              std::to_string(snap->epoch) + ", writer epoch " +
              std::to_string(writer_epoch_seen_.load(std::memory_order_relaxed)) + ")"});
    return snap;
  }

  /// Last committed (and published) local epoch; -1 while cold.
  [[nodiscard]] std::int64_t epoch() const noexcept {
    auto snap = publisher_.current();
    return snap ? snap->epoch : -1;
  }

  /// Committed epochs behind the writer's last advertised epoch.
  [[nodiscard]] std::int64_t lag() const noexcept { return lag_of(epoch()); }

  [[nodiscard]] std::int64_t writer_epoch_seen() const noexcept {
    return writer_epoch_seen_.load(std::memory_order_relaxed);
  }

  void note_query() noexcept {
    queries_.fetch_add(1, std::memory_order_relaxed);
    if (queries_counter_ != nullptr) queries_counter_->add(1);
  }
  [[nodiscard]] std::int64_t queries_served() const noexcept {
    return queries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t replicated_records() const noexcept {
    return replicated_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t snapshots_received() const noexcept {
    return snapshots_received_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t replayed_batches() const noexcept { return replayed_; }
  [[nodiscard]] std::int64_t wal_first_seq() const noexcept {
    return wal_first_seq_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const FollowerOptions& options() const noexcept { return opts_; }

  // ----- cluster membership (terms and leases) -----

  /// Highest cluster term this node has observed; 0 until a clustered
  /// writer stamps a frame.  Monotone, persisted to <dir>/cluster-term.
  [[nodiscard]] std::int64_t term() const noexcept {
    return term_.load(std::memory_order_relaxed);
  }

  /// True once any writer has granted a lease (HELLO/HB with a lease
  /// field accepted).  A cold follower that never had a writer does not
  /// start elections.
  [[nodiscard]] bool lease_granted() const noexcept {
    return lease_deadline_us_.load(std::memory_order_relaxed) != 0;
  }

  /// Seconds of lease left; 0 when expired or never granted.  May go
  /// negative briefly so callers can tell "just expired" from "none".
  [[nodiscard]] double lease_remaining_seconds() const noexcept {
    const std::int64_t d = lease_deadline_us_.load(std::memory_order_relaxed);
    if (d == 0) return 0.0;
    return static_cast<double>(d - detail_mono_us()) * 1e-6;
  }

  /// Adopts `t` (if higher than anything seen) and re-arms the lease —
  /// the supervisor calls this when it discovers a live writer by
  /// polling before that writer's HELLO reached us.
  void grant_lease(std::int64_t t, double lease_seconds) {
    std::lock_guard<std::mutex> g(mu_);
    observe_term_locked(t);
    arm_lease_locked(static_cast<std::int64_t>(lease_seconds * 1000.0));
  }

  /// Seconds since replication last advanced the local epoch, or 0 when
  /// caught up with the writer's advertised epoch.  The same value
  /// telemetry exposes as serve.follower.lag_seconds, so HEALTH and
  /// METRICS can never disagree on lag.
  [[nodiscard]] double lag_seconds() const noexcept {
    if (lag() <= 0) return 0.0;
    const std::int64_t since = last_progress_us_.load(std::memory_order_relaxed);
    if (since == 0) return 0.0;  // cold: nothing replicated, nothing to age
    return static_cast<double>(detail_mono_us() - since) * 1e-6;
  }

  /// One-line JSON for the HEALTH verb (follower role).  The doubles
  /// (lag_seconds, last_event_unix) go through obs::format_f64 — the
  /// same formatter as the METRICS exposition.
  [[nodiscard]] std::string health_json() const {
    const std::int64_t e = epoch();
    std::string out = "{\"role\":\"follower\",\"epoch\":" + std::to_string(e) +
                      ",\"writer_epoch\":" +
                      std::to_string(writer_epoch_seen_.load(std::memory_order_relaxed)) +
                      ",\"lag\":" + std::to_string(lag_of(e)) +
                      ",\"lag_seconds\":" + obs::format_f64(lag_seconds()) +
                      ",\"max_lag\":" + std::to_string(opts_.max_lag_epochs) +
                      ",\"wal_first_seq\":" + std::to_string(wal_first_seq()) +
                      ",\"replicated\":" + std::to_string(replicated_records()) +
                      ",\"snapshots_received\":" + std::to_string(snapshots_received()) +
                      ",\"queries\":" + std::to_string(queries_served()) +
                      ",\"term\":" + std::to_string(term()) + ",\"lease_remaining\":" +
                      obs::format_f64(std::max(0.0, lease_remaining_seconds()));
    // Event-log cursor: how far the structured log has advanced and the
    // timestamp of its newest line (null when no log is installed).
    if (obs::EventLog* log = obs::active_eventlog(); log != nullptr) {
      out += ",\"events_logged\":" + std::to_string(log->events_appended()) +
             ",\"last_event_unix\":" + obs::format_f64(log->last_event_unix());
    } else {
      out += ",\"events_logged\":null,\"last_event_unix\":null";
    }
    out += "}";
    return out;
  }

  /// Merged telemetry: registry metrics plus the follower's live lag
  /// gauges.  Safe from any thread (published snapshot + atomics).
  [[nodiscard]] obs::TelemetrySnapshot collect_telemetry() const {
    obs::TelemetrySnapshot snap = obs::TelemetryHub().collect();
    const std::int64_t e = epoch();
    snap.set_gauge("serve.epoch", e);
    snap.set_gauge("serve.follower.writer_epoch",
                   writer_epoch_seen_.load(std::memory_order_relaxed));
    snap.set_gauge("serve.follower.lag_records", lag_of(e));
    snap.set_gauge("serve.follower.lag_seconds", lag_seconds());
    snap.set_gauge("serve.wal.first_seq", wal_first_seq());
    snap.set_gauge("cluster.term", term());
    snap.set_gauge("cluster.lease_remaining_seconds",
                   std::max(0.0, lease_remaining_seconds()));
    return snap;
  }

  // ----- takeover -----

  /// Failover: make the current replicated epoch durable and release
  /// the state directory.  After this returns, the follower serves
  /// nothing; the caller reopens `dir` with CommunityService::open()
  /// to resume writing from the last committed epoch.
  [[nodiscard]] Expected<std::int64_t> finalize_for_promotion() {
    std::lock_guard<std::mutex> g(mu_);
    if (!dyn_)
      return Unexpected(Error{ErrorCode::kStaleRead, Phase::kDynamic,
                              "cannot promote: no replicated state yet"});
    try {
      dyn_->save_state(opts_.dir, opts_.keep_generations);
    } catch (const std::exception& e) {
      return Unexpected(error_from_exception(e, Phase::kDynamic));
    }
    const std::int64_t e = dyn_->epoch();
    wal_.reset();
    dyn_.reset();
    publisher_.publish(nullptr);
    obs::log_event("promotion", e);
    return e;
  }

 private:
  explicit FollowerService(FollowerOptions opts) : opts_(std::move(opts)) {
    if (opts_.dir.empty())
      throw_error(ErrorCode::kInvalidArgument, Phase::kDynamic,
                  "FollowerOptions.dir must name a state directory");
    queries_counter_ = obs::counter("serve.queries");
    replicated_counter_ = obs::counter("serve.follower.replicated");
    snapshots_counter_ = obs::counter("serve.follower.snapshots_received");
    h_repl_apply_ = obs::histogram("serve.repl.apply_us");
    term_.store(load_cluster_term(opts_.dir), std::memory_order_relaxed);
  }

  [[nodiscard]] static std::int64_t detail_mono_us() noexcept {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  [[nodiscard]] std::string wal_dir() const {
    return (std::filesystem::path(opts_.dir) / "wal").string();
  }

  [[nodiscard]] std::int64_t lag_of(std::int64_t local_epoch) const noexcept {
    const std::int64_t w = writer_epoch_seen_.load(std::memory_order_relaxed);
    return std::max<std::int64_t>(0, w - local_epoch);
  }

  void note_writer_epoch(std::int64_t e) noexcept {
    std::int64_t cur = writer_epoch_seen_.load(std::memory_order_relaxed);
    while (cur < e &&
           !writer_epoch_seen_.compare_exchange_weak(cur, e, std::memory_order_relaxed)) {
    }
  }

  /// Fresh durable generation + new WAL segment + publish — the same
  /// bootstrap tail as the writer's, run after recovery, after a
  /// snapshot transfer, and after every periodic save.
  void adopt_state_locked() {
    dyn_->save_state(opts_.dir, opts_.keep_generations);
    open_wal_segment_locked(dyn_->epoch() + 1);
    batches_since_save_ = 0;
    publish_locked();
  }

  void open_wal_segment_locked(std::int64_t first_seq) {
    wal_.reset();
    wal_ = std::make_unique<WalWriter<V>>(wal_dir(), first_seq, opts_.fsync_wal);
    wal_first_seq_.store(first_seq, std::memory_order_relaxed);
    auto segs = list_wal_segments(wal_dir());
    const std::size_t keep =
        static_cast<std::size_t>(opts_.keep_generations < 1 ? 1 : opts_.keep_generations) + 1;
    if (segs.size() > keep) {
      std::error_code ec;
      for (std::size_t i = 0; i + keep < segs.size(); ++i)
        std::filesystem::remove(segs[i].second, ec);
    }
  }

  void publish_locked() {
    auto snap = std::make_shared<MembershipSnapshot<V>>();
    const Clustering<V>& cl = dyn_->clustering();
    snap->epoch = dyn_->epoch();
    snap->num_communities = cl.num_communities;
    snap->modularity = cl.final_modularity;
    snap->coverage = cl.final_coverage;
    snap->labels = std::make_shared<const std::vector<V>>(cl.community);
    snap->communities =
        std::make_shared<const std::vector<CommunityStats>>(dyn_->community_stats_all());
    publisher_.publish(std::move(snap));
  }

  /// Highest-term adoption: monotone, persisted before it takes effect
  /// in memory so a crash can never forget an observed term.
  void observe_term_locked(std::int64_t t) {
    if (t <= term_.load(std::memory_order_relaxed)) return;
    store_cluster_term(opts_.dir, t);
    term_.store(t, std::memory_order_relaxed);
  }

  void arm_lease_locked(std::int64_t lease_ms) noexcept {
    if (lease_ms <= 0) return;  // unclustered writer: no lease, no elections
    last_lease_ms_ = lease_ms;
    lease_deadline_us_.store(detail_mono_us() + lease_ms * 1000,
                             std::memory_order_relaxed);
  }

  /// The fencing rule for frame-carried terms: once this node has
  /// observed a real term, any frame from a lower term is refused.
  [[nodiscard]] std::optional<std::string> fence_if_stale_locked(std::int64_t frame_term) {
    const std::int64_t t = term_.load(std::memory_order_relaxed);
    if (t <= 0 || frame_term >= t) return std::nullopt;
    obs::log_event("stale_term_fenced", dyn_ ? dyn_->epoch() : -1,
                   {obs::EventField::of("frame_term", frame_term),
                    obs::EventField::of("term", t)});
    return protocol_error_line(Error{
        ErrorCode::kStaleTerm, Phase::kDynamic,
        "fenced: this follower observed term " + std::to_string(t) +
            ", writer sent term " + std::to_string(frame_term)});
  }

  [[nodiscard]] std::optional<std::string> handle_repl_line_locked(const std::string& line,
                                                                   ReplConn& conn) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;

    if (tag == "REPL") {
      std::string hello;
      std::uint64_t fingerprint = 0;
      std::int64_t wepoch = -1;
      if (!(ls >> hello >> fingerprint >> wepoch) || hello != "HELLO")
        return protocol_error_line(Error{ErrorCode::kReplicationBroken, Phase::kDynamic,
                                         "malformed replication handshake: " + line});
      std::int64_t wterm = 0, lease_ms = 0;
      ls >> wterm >> lease_ms;  // optional cluster fields; absent = term 0
      if (auto fenced = fence_if_stale_locked(wterm)) return fenced;
      if (fingerprint != dynamic_config_fingerprint(opts_.dynamic))
        return protocol_error_line(
            Error{ErrorCode::kCheckpointMismatch, Phase::kDynamic,
                  "writer configuration fingerprint does not match this follower"});
      assembler_.reset();
      snap_buf_.clear();
      snap_expected_bytes_ = -1;
      note_writer_epoch(wepoch);
      if (wterm > term()) {
        // A higher-term writer taking over IS the live retarget: same
        // process, same service, new leader.
        obs::log_event("cluster_retarget", dyn_ ? dyn_->epoch() : -1,
                       {obs::EventField::of("term", wterm)});
      }
      observe_term_locked(wterm);
      conn.term = wterm;
      arm_lease_locked(lease_ms);
      return "REPL OK " + std::to_string(dyn_ ? dyn_->epoch() : -1);
    }

    if (tag == "HB") {
      std::int64_t wepoch = -1, wterm = 0, lease_ms = 0;
      const bool have_epoch = static_cast<bool>(ls >> wepoch);
      ls >> wterm >> lease_ms;
      if (auto fenced = fence_if_stale_locked(wterm)) return fenced;
      if (have_epoch) note_writer_epoch(wepoch);
      observe_term_locked(wterm);
      arm_lease_locked(lease_ms);
      return "ACK HB " + std::to_string(dyn_ ? dyn_->epoch() : -1);
    }

    if (tag == "SNAP") {
      if (auto fenced = fence_if_stale_locked(conn.term < 0 ? 0 : conn.term)) return fenced;
      arm_lease_locked(last_lease_ms_);  // transfer traffic proves liveness
      return handle_snap_locked(ls, line);
    }

    // Anything else is WAL record text: feed the assembler; a completed
    // record is verified + applied + re-logged + published, then acked.
    // Record-level fencing first: a connection that authenticated below
    // the observed term cannot ship even one record (nor advance the
    // assembler), regardless of interleaved higher-term sessions.
    if (auto fenced = fence_if_stale_locked(conn.term < 0 ? 0 : conn.term)) return fenced;
    arm_lease_locked(last_lease_ms_);  // shipped records prove liveness, like HBs
    auto rec = assembler_.feed(line);  // throws typed errors on bad framing/CRC
    if (!rec) return std::nullopt;
    auto reply = apply_record_locked(*rec);
    // Re-arm once the record has landed: the time this follower spends
    // applying it is its own, not silence from the writer.
    arm_lease_locked(last_lease_ms_);
    return reply;
  }

  [[nodiscard]] std::optional<std::string> handle_snap_locked(std::istringstream& ls,
                                                              const std::string& line) {
    std::string sub;
    ls >> sub;
    if (sub == "BEGIN") {
      std::int64_t nbytes = -1;
      std::uint32_t crc = 0;
      if (!(ls >> nbytes >> crc) || nbytes < 0)
        return protocol_error_line(Error{ErrorCode::kReplicationBroken, Phase::kDynamic,
                                         "malformed SNAP BEGIN: " + line});
      snap_buf_.clear();
      snap_buf_.reserve(static_cast<std::size_t>(nbytes));
      snap_expected_bytes_ = nbytes;
      snap_expected_crc_ = crc;
      return std::nullopt;
    }
    if (sub == "D") {
      if (snap_expected_bytes_ < 0)
        return protocol_error_line(Error{ErrorCode::kReplicationBroken, Phase::kDynamic,
                                         "SNAP D outside a transfer"});
      std::string b64;
      ls >> b64;
      if (!base64_decode(b64, snap_buf_)) {
        snap_buf_.clear();
        snap_expected_bytes_ = -1;
        return protocol_error_line(Error{ErrorCode::kReplicationBroken, Phase::kDynamic,
                                         "undecodable snapshot chunk"});
      }
      return std::nullopt;
    }
    if (sub == "END") {
      if (snap_expected_bytes_ < 0)
        return protocol_error_line(Error{ErrorCode::kReplicationBroken, Phase::kDynamic,
                                         "SNAP END outside a transfer"});
      std::string bytes = std::move(snap_buf_);
      snap_buf_.clear();
      const std::int64_t expected = snap_expected_bytes_;
      snap_expected_bytes_ = -1;
      if (static_cast<std::int64_t>(bytes.size()) != expected ||
          crc32_update(0, bytes.data(), bytes.size()) != snap_expected_crc_)
        return protocol_error_line(
            Error{ErrorCode::kReplicationBroken, Phase::kDynamic,
                  "snapshot transfer failed verification (got " +
                      std::to_string(bytes.size()) + " bytes, expected " +
                      std::to_string(expected) + ")"});
      return adopt_snapshot_locked(bytes);
    }
    return protocol_error_line(Error{ErrorCode::kReplicationBroken, Phase::kDynamic,
                                     "unknown SNAP subcommand: " + line});
  }

  [[nodiscard]] std::optional<std::string> adopt_snapshot_locked(const std::string& bytes) {
    // Land the verified bytes as a real file so load_state_file can
    // validate format + fingerprint, then fold into our own rotation.
    const std::string tmp =
        (std::filesystem::path(opts_.dir) / ".snap-transfer.tmp").string();
    std::error_code ec;
    std::filesystem::create_directories(opts_.dir, ec);
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      if (!out)
        return protocol_error_line(Error{ErrorCode::kIoWrite, Phase::kDynamic,
                                         "cannot stage snapshot transfer at " + tmp});
    }
    auto loaded = DynamicCommunities<V>::load_state_file(tmp, opts_.dynamic);
    std::filesystem::remove(tmp, ec);
    if (!loaded.has_value()) return protocol_error_line(loaded.error());
    dyn_ = std::make_unique<DynamicCommunities<V>>(std::move(loaded.value()));
    adopt_state_locked();
    snapshots_received_.fetch_add(1, std::memory_order_relaxed);
    if (snapshots_counter_ != nullptr) snapshots_counter_->add(1);
    last_progress_us_.store(detail_mono_us(), std::memory_order_relaxed);
    obs::log_event("snapshot_received", dyn_->epoch());
    return "ACK SNAP " + std::to_string(dyn_->epoch());
  }

  [[nodiscard]] std::optional<std::string> apply_record_locked(const WalRecord<V>& rec) {
    if (!dyn_)
      return protocol_error_line(Error{ErrorCode::kReplicationBroken, Phase::kDynamic,
                                       "record shipped before snapshot bootstrap"});
    const std::int64_t e = dyn_->epoch();
    if (rec.seq <= e) {
      // Re-shipped after a reconnect; already durable here.  Ack so the
      // writer's cursor advances.
      return "ACK " + std::to_string(rec.seq);
    }
    if (rec.seq != e + 1)
      return protocol_error_line(Error{
          ErrorCode::kReplicationBroken, Phase::kDynamic,
          "record gap: got seq " + std::to_string(rec.seq) + " at epoch " +
              std::to_string(e)});
    COMMDET_FAULT_POINT(fault::kReplApply, Phase::kDynamic);
    const WallTimer apply_timer;
    auto rep = dyn_->replay_batch(rec.batch, std::span<const LabelChange>(rec.changes),
                                  rec.num_communities, rec.modularity, rec.coverage,
                                  rec.labels_crc);
    if (!rep.has_value()) return protocol_error_line(rep.error());
    // Durable before visible before acked: re-log the record verbatim,
    // then publish, then ack.
    wal_->append_record(serialize_wal_record(rec));
    note_writer_epoch(rec.seq);
    publish_locked();
    if (h_repl_apply_ != nullptr) h_repl_apply_->record_seconds(apply_timer.seconds());
    if (replicated_counter_ != nullptr) replicated_counter_->add(1);
    replicated_.fetch_add(1, std::memory_order_relaxed);
    last_progress_us_.store(detail_mono_us(), std::memory_order_relaxed);
    ++batches_since_save_;
    if (opts_.save_every_batches > 0 && batches_since_save_ >= opts_.save_every_batches)
      adopt_state_locked();  // snapshot + segment rotation, like the writer
    return "ACK " + std::to_string(rec.seq);
  }

  FollowerOptions opts_;

  mutable std::mutex mu_;  // guards dyn_/wal_/assembler_/snap state
  std::unique_ptr<DynamicCommunities<V>> dyn_;
  std::unique_ptr<WalWriter<V>> wal_;
  WalRecordAssembler<V> assembler_;
  std::string snap_buf_;
  std::int64_t snap_expected_bytes_ = -1;
  std::uint32_t snap_expected_crc_ = 0;
  std::int64_t batches_since_save_ = 0;
  std::int64_t replayed_ = 0;
  ReplConn default_conn_;          // guarded by mu_ (single-connection drivers)
  std::int64_t last_lease_ms_ = 0;  // guarded by mu_; last granted lease duration

  EpochPublisher<V> publisher_;
  std::atomic<std::int64_t> writer_epoch_seen_{-1};
  std::atomic<std::int64_t> term_{0};              // highest observed cluster term
  std::atomic<std::int64_t> lease_deadline_us_{0};  // monotonic; 0 = never granted
  std::atomic<std::int64_t> wal_first_seq_{0};
  std::atomic<std::int64_t> queries_{0};
  std::atomic<std::int64_t> replicated_{0};
  std::atomic<std::int64_t> snapshots_received_{0};
  std::atomic<std::int64_t> last_progress_us_{0};  // monotonic; 0 = cold

  // Metric handles resolved once at construction; nullptr = disabled.
  obs::Counter* queries_counter_ = nullptr;
  obs::Counter* replicated_counter_ = nullptr;
  obs::Counter* snapshots_counter_ = nullptr;
  obs::Histogram* h_repl_apply_ = nullptr;
};

}  // namespace commdet::serve
