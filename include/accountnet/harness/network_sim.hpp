// Scalable experiment harness.
//
// Drives thousands of NodeState instances through the verified shuffle
// engine with virtual-time scheduling but *synchronous* message exchange —
// an initiator's offer, the responder's verification and response, and the
// final commit all happen at the shuffle event. This reproduces the paper's
// EC2 deployment dynamics (staggered launches, ~10 s shuffle periods with
// jitter, analysis snapshots every 10 s, ungraceful churn) at |V| = 10 000
// on one machine. The event-driven core::Node is used where real message
// latency matters (the Fig. 20 case study); this harness is used where the
// measured quantities are graph statistics.
//
// Verification economy: every exchanged shuffle can be fully verified, but
// at 10k nodes that dominates runtime, so `verify_fraction` verifies a
// random subset (tests use 1.0). A verification failure among honest nodes
// is a bug and is surfaced in the stats.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "accountnet/analysis/graph_metrics.hpp"
#include "accountnet/core/adversary.hpp"
#include "accountnet/core/shuffle.hpp"
#include "accountnet/core/verification_engine.hpp"
#include "accountnet/obs/metrics.hpp"
#include "accountnet/obs/sink.hpp"
#include "accountnet/obs/span.hpp"
#include "accountnet/sim/fault.hpp"
#include "accountnet/sim/simulator.hpp"
#include "accountnet/util/order_stat.hpp"
#include "accountnet/util/rng.hpp"
#include "accountnet/util/stats.hpp"

namespace accountnet::util {
class WorkerPool;
}

namespace accountnet::harness {

/// How flagged-malicious nodes behave (Sec. IV-B's two rational strategies).
enum class MaliciousMode {
  kFollowProtocol,  ///< shuffle honestly; lie only as witnesses (case i)
  kSeparateOverlay, ///< own overlay, bootstrapped apart from benign nodes (case ii)
};

struct ExperimentConfig {
  std::size_t network_size = 1000;   ///< |V|
  std::size_t f = 5;                 ///< max peerset size
  std::size_t l = 3;                 ///< shuffle length L (paper: ceil(f/2))
  std::size_t d = 2;                 ///< neighborhood depth limit
  double pm = 0.0;                   ///< malicious probability
  MaliciousMode malicious_mode = MaliciousMode::kFollowProtocol;

  sim::Duration shuffle_period = sim::seconds(10);
  double shuffle_jitter_frac = 0.25;
  sim::Duration analysis_period = sim::seconds(10);

  /// Launch model: `lane_size` nodes per emulated VM, consecutive launches
  /// within a lane separated by uniform [0, launch_spacing_max].
  std::size_t lane_size = 125;
  sim::Duration launch_spacing_max = sim::seconds(10);

  /// Retained history entries per node. The single source of truth is
  /// core::kDefaultHistoryLimit so the harness and the event-driven
  /// core::Node can never silently diverge again (they once defaulted to
  /// 96 vs 512; see DESIGN.md).
  std::size_t history_limit = core::kDefaultHistoryLimit;
  /// Seal a signed checkpoint every N history entries (core/checkpoint.hpp);
  /// 0 (the default) disables sealing and keeps every seeded run
  /// byte-identical to the pre-checkpoint harness.
  std::uint64_t checkpoint_interval = 0;
  /// Attach a deterministic in-memory segment store + write-ahead journal
  /// (storage/node_store.hpp) to every node so schedule_crash_restart() can
  /// model process death and disk-backed recovery. Off by default:
  /// journaling never changes protocol behavior, but the extra "harness.
  /// recovery.*" / "harness.history.trimmed" metrics only materialize when
  /// it is on, so default scrapes stay byte-identical.
  bool durable_nodes = false;
  /// Verifiable-sampling backend for every node (core/sampler.hpp). The
  /// default kVrf keeps seeded runs byte-identical to the pre-interface
  /// harness; bench/sampler_compare sweeps the alternatives.
  core::SamplerKind sampler = core::SamplerKind::kVrf;
  double verify_fraction = 0.05;     ///< fraction of shuffles fully verified
  bool track_coverage = false;       ///< per-node distinct-peers-seen bitsets
  bool track_shuffle_pairs = false;  ///< Fig. 5 heatmap (small |V| only)
  bool use_real_crypto = false;      ///< Ed25519+ECVRF instead of FastCrypto
  std::uint64_t seed = 1;

  /// Optional fault schedule (sim/fault.hpp). The harness exchanges shuffle
  /// messages synchronously, so a drop on any of the four logical legs
  /// (round query/reply, offer, response) — or a crashed endpoint — fails
  /// the whole shuffle; there are no retries at this layer (core::Node has
  /// them). When unset, behavior is bit-identical to the pre-fault harness.
  std::optional<sim::FaultPlan> fault_plan;

  /// Active-adversary policy applied by flagged-malicious nodes (the same
  /// core::AdversaryPolicy that plugs into core::Node). At this layer only
  /// the shuffle-facing attacks are meaningful (bias_sample, forge_history,
  /// truncate_history, equivocate); relay/witness attacks need the
  /// event-driven stack. Detection happens through the responder's verify
  /// path, so experiments that study detection set verify_fraction = 1.0.
  /// Default-constructed (all attacks off) keeps the harness bit-identical.
  core::AdversaryPolicy adversary;

  /// Per-node verification-engine knobs (core/verification_engine.hpp).
  /// Batching never changes verdicts, so every setting keeps a seeded run's
  /// protocol state byte-identical.
  core::VerificationEngine::Config verification;

  /// Worker threads for the shuffle drive (docs/PARALLELISM.md). Every
  /// shuffle event runs the same plan -> build -> exec -> merge body, and
  /// the responder's engine always verifies the offer itself. 0 and 1 (the
  /// default is 0) run each event at once on the calling thread, as a wave
  /// of one. N >= 2 batches conflict-free runs of planned events into waves;
  /// each wave's build -> exec runs in one pass on a WorkerPool of N
  /// threads, and the merge follows in event order. Results (digests, stats,
  /// per-node protocol state, every scraped metric) are bit-identical to
  /// threads = 0 at every N. N >= 2 is incompatible with set_tracer() and
  /// metrics timing.
  std::size_t threads = 0;
};

struct HarnessStats {
  std::uint64_t shuffles_attempted = 0;
  std::uint64_t shuffles_completed = 0;
  std::uint64_t shuffles_verified = 0;
  std::uint64_t verification_failures = 0;  ///< MUST stay 0 with honest nodes
  std::uint64_t dead_partner_hits = 0;
  std::uint64_t leave_reports = 0;
  std::uint64_t fault_failures = 0;         ///< shuffles lost to injected faults
  std::uint64_t byz_attacks = 0;            ///< adversarial offer mutations sent
  std::uint64_t byz_detections = 0;         ///< mutations caught by verification
  std::uint64_t byz_quarantines = 0;        ///< (observer, accused) pairs added
  std::uint64_t byz_refused_quarantined = 0;///< rounds refused due to quarantine
};

class NetworkSim {
 public:
  explicit NetworkSim(ExperimentConfig config);
  ~NetworkSim();

  /// Advances the simulation by `rounds` analysis periods, invoking
  /// `on_analysis(absolute_round)` after each.
  ///
  /// Incremental-continuation contract (relied on by every bench that
  /// interleaves measurement; preserved verbatim by the wave-parallel
  /// drive):
  ///   1. The FIRST run() call fires `on_analysis(0)` at t = 0 before
  ///      advancing (run_started() flips true at that point).
  ///   2. Every subsequent call continues from exactly where the previous
  ///      one stopped — `run(a); run(b);` is indistinguishable from
  ///      `run(a + b);` — and the callback always receives the ABSOLUTE
  ///      round number (`rounds_completed()`), never a per-call index.
  ///   3. Any in-flight wave (threads >= 2) is flushed before each
  ///      callback, so analysis always observes a settled network.
  /// There is deliberately no reset(): nodes accumulate history, standing
  /// and journals that cannot be rewound — construct a fresh NetworkSim for
  /// a fresh experiment.
  void run(std::size_t rounds, const std::function<void(std::size_t)>& on_analysis);

  std::size_t rounds_completed() const { return rounds_completed_; }
  /// True once the first run() call has fired its t = 0 analysis callback.
  bool run_started() const { return run_started_; }

  /// Churn: schedules `count` random alive nodes to leave (ungracefully)
  /// at uniformly random times within [start, start+window].
  void schedule_churn(std::size_t count, sim::TimePoint start, sim::Duration window);

  /// Crash/restart fault (requires durable_nodes). At `crash_at` the node's
  /// entire RAM state is destroyed — protocol state, verification engine,
  /// quarantine sets, even the journal object; only its segment store (the
  /// simulated disk) survives. At `restart_at` the node is rebuilt from the
  /// store via storage::NodeStore::load() + core::NodeState::restore() and
  /// resumes shuffling under its pre-crash identity, standing intact.
  void schedule_crash_restart(std::size_t idx, sim::TimePoint crash_at,
                              sim::TimePoint restart_at);

  // --- Introspection (valid inside the analysis callback) -----------------

  std::size_t size() const { return nodes_.size(); }
  std::size_t alive_count() const { return alive_count_; }
  std::size_t joined_count() const { return joined_count_; }
  std::size_t malicious_alive_count() const;
  const HarnessStats& stats() const { return stats_; }
  sim::TimePoint now() const;

  // --- Observability -------------------------------------------------------

  /// Network-wide metrics registry. Holds the "harness.*" series (synced
  /// from HarnessStats at scrape time) plus anything the owning bench
  /// registers; callers may enable timing on it for wall-clock sections.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Scrapes every metric into `sink`, stamped with the current simulated
  /// time. Syncs the harness counters/gauges first, so a scrape is always a
  /// complete picture without per-event instrumentation cost in the hot loop.
  void scrape_metrics(obs::Sink& sink);

  /// Appends a JSON-lines scrape to `path` (the BENCH_*.json convention).
  void write_metrics_json(const std::string& path);

  /// Attaches a span tracer (obs/span.hpp): each synchronous shuffle emits a
  /// root "shuffle" span on the initiator with a "shuffle.respond" child on
  /// the partner, and adversary detections emit "accuse.quarantine" spans on
  /// the observer — the same span vocabulary core::Node uses, so traces from
  /// either engine feed the same tooling. nullptr (default) = tracing off;
  /// attaching a tracer never perturbs a seeded run.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  bool is_alive(std::size_t idx) const;
  bool is_malicious(std::size_t idx) const;
  bool is_joined(std::size_t idx) const;
  /// Valid only while the node is not mid-crash (between crash_at and
  /// restart_at its RAM state does not exist).
  const core::NodeState& node_state(std::size_t idx) const;

  /// Directed adjacency over ALL node indices (dead nodes have no edges).
  analysis::Adjacency snapshot_adjacency() const;

  /// Depth-d neighborhood of node idx over the live overlay (indices).
  std::vector<std::size_t> neighborhood_indices(std::size_t idx, std::size_t depth) const;

  /// Sampled mean neighborhood size over alive+joined nodes.
  double sample_avg_neighborhood(std::size_t depth, std::size_t samples, Rng& rng) const;

  /// Sampled mean |N_i^d ∩ N_j^d| over random alive pairs.
  double sample_avg_common(std::size_t depth, std::size_t pair_samples, Rng& rng) const;

  /// P(neighbor malicious) for sampled nodes (Fig. 14): one value per node.
  Samples sample_neighbor_malicious_fraction(std::size_t depth, std::size_t samples,
                                             Rng& rng) const;

  /// P(witness candidate malicious) for sampled pairs (Fig. 15): the
  /// α-weighted malicious fraction among candidates after exclusion. When
  /// `exclude_common` is false, reports the no-exclusion ablation.
  Samples sample_candidate_malicious_fraction(std::size_t depth,
                                              std::size_t witness_count,
                                              std::size_t pair_samples, Rng& rng,
                                              bool exclude_common = true) const;

  /// Effective history suffix lengths accumulated since the last call.
  Samples take_history_length_samples();

  /// Shuffles completed since the last call (for rate plots).
  std::uint64_t take_shuffle_delta();

  /// Coverage counts (distinct peers ever seen) per alive node.
  Samples coverage_counts() const;

  /// Fig. 5: whether nodes i and j ever shuffled together.
  bool ever_shuffled(std::size_t i, std::size_t j) const;

  /// How many alive honest nodes have locally quarantined node `accused`
  /// (detection-coverage numerator for adversary experiments).
  std::size_t quarantined_by_count(std::size_t accused) const;

  /// Total (observer, accused) quarantine pairs across all alive nodes.
  std::size_t quarantine_edges() const;

  // --- Durability introspection (durable_nodes only) -----------------------

  /// Journaled entries of node `idx` with global index in [start,
  /// start+count), oldest first — the full prefix survives on "disk" even
  /// after the in-memory window was trimmed.
  std::vector<core::HistoryEntry> journal_entries(std::size_t idx, std::uint64_t start,
                                                  std::size_t count) const;
  std::uint64_t recovery_crashes() const { return recovery_crashes_; }
  std::uint64_t recovery_restarts() const { return recovery_restarts_; }
  std::uint64_t recovery_entries_replayed() const { return recovery_entries_replayed_; }

 private:
  struct HarnessNode;
  /// One shuffle event (docs/PARALLELISM.md). The plan phase fills the
  /// sequential-prologue fields in event order; the exec phase (a pool worker
  /// when parallel) only touches this event's two nodes plus the event's own
  /// slots; the merge phase folds those slots back in event order.
  struct WaveEvent {
    bool skip = true;        ///< prologue finished the event; only the re-arm remains
    std::size_t idx = 0;     ///< initiator
    std::size_t pidx = 0;    ///< responder (full events only)
    sim::TimePoint when = 0; ///< the event's original timestamp (re-arm base)
    core::PartnerChoice choice;
    core::Round rj = 0;
    bool verify = false;
    std::uint64_t root = 0;  ///< root "shuffle" span, 0 when untraced
    // Exec outputs, merged into the run at the barrier in event order.
    double history_sample = 0.0;
    HarnessStats scratch;
  };

  void launch_node(std::size_t idx);
  void restart_node(std::size_t idx);
  bool apply_adversary(HarnessNode& hn, core::ShuffleOffer& offer,
                       const core::PeerId& partner);
  /// `stats` is where counter bumps land: the event's scratch struct, merged
  /// in event order at the wave barrier (exec workers must never touch
  /// `stats_`).
  void quarantine(HarnessNode& observer, const core::PeerId& accused,
                  HarnessStats& stats, obs::TraceContext ctx = {});
  void handle_dead_partner(std::size_t idx, std::size_t partner_idx);
  void record_leave(HarnessNode& reporter_node, const core::PeerId& leaver,
                    HarnessStats& stats);
  void purge_zombies(HarnessNode& node);
  void update_coverage(HarnessNode& node);
  /// The bootstrap group `node` joins through and is listed in while alive
  /// and joined: under kSeparateOverlay one per coalition, otherwise one.
  OrderStatIndex& bootstrap_group(const HarnessNode& node);
  std::size_t index_of(const core::PeerId& peer) const;
  void sync_metrics();

  // --- Shuffle drive (docs/PARALLELISM.md) ---------------------------------
  /// Whether planned events batch into waves on the pool (threads >= 2).
  bool parallel() const { return config_.threads >= 2; }
  /// A shuffle timer event: runs the sequential prologue (partner choice,
  /// refusal/fault legs, RNG draws) in event order, then hands the event to
  /// dispatch_event.
  void plan_shuffle(std::size_t idx);
  /// The planned event `next_`: run at once as a wave of one, or (parallel)
  /// appended to wave_.
  void dispatch_event();
  /// The one event body, inline and on the pool: builds the offer (plus any
  /// adversary mutation), then verifies, commits and applies it, touching
  /// only the event's two nodes and its own slots. No-op for skip events.
  void exec_event(WaveEvent& ev);
  /// Folds the event's scratch stats and history sample into the run, then
  /// re-arms its initiator. Runs in event order.
  void merge_event(WaveEvent& ev);
  /// Tags `span` with its outcome and ends it; no-op when span == 0.
  void close_span(std::uint64_t span, const char* outcome);
  /// Executes the pending wave: one pool pass of exec_event (parallel),
  /// then merge stats/samples/re-arms (event order). No-op when the wave is
  /// empty.
  void flush_wave();
  /// Steps events one by one so a wave can be flushed BEFORE simulated time
  /// passes the earliest possible re-arm of a planned event (the
  /// wave_deadline_ rule). With an empty wave it is sim_.run_until.
  void drive_until(sim::TimePoint deadline);
  /// Arms idx's next shuffle timer one jittered period after `event_when`
  /// (the launch time, or the timestamp of the event being re-armed).
  void rearm_shuffle_at(std::size_t idx, sim::TimePoint event_when);

  ExperimentConfig config_;
  core::NodeConfig node_config_;  ///< shared by initial launch and restart
  std::unique_ptr<crypto::CryptoProvider> provider_;
  sim::Simulator sim_;
  Rng rng_;
  std::optional<sim::FaultInjector> faults_;
  std::vector<std::unique_ptr<HarnessNode>> nodes_;
  std::unordered_map<std::string, std::size_t> addr_to_index_;
  std::size_t alive_count_ = 0;
  std::size_t joined_count_ = 0;
  /// Alive and joined nodes by index, per bootstrap group; a joining node
  /// bootstraps through a uniform pick of its group's members.
  std::array<OrderStatIndex, 2> bootstrap_groups_;
  std::size_t rounds_completed_ = 0;
  bool run_started_ = false;
  HarnessStats stats_;
  obs::MetricsRegistry metrics_;
  obs::Tracer* tracer_ = nullptr;
  Samples history_samples_;
  std::uint64_t shuffle_delta_ = 0;
  // Crash/recovery bookkeeping (durable_nodes only; synced lazily).
  std::uint64_t recovery_crashes_ = 0;
  std::uint64_t recovery_restarts_ = 0;
  std::uint64_t recovery_entries_replayed_ = 0;
  std::vector<std::vector<std::uint8_t>> shuffle_pairs_;  // optional heatmap

  // Shuffle drive state. The pool and wave_ are used only when parallel().
  std::unique_ptr<util::WorkerPool> pool_;
  WaveEvent next_;                     ///< the event plan_shuffle is filling
  std::vector<WaveEvent> wave_;        ///< pending events; capacity is reused
  std::vector<std::uint8_t> in_wave_;  ///< per-node: touched by a pending event
  sim::TimePoint wave_deadline_ = 0;   ///< latest safe event time before flush
  sim::Duration rearm_bound_ = 0;      ///< min re-arm delay minus one
};

}  // namespace accountnet::harness
