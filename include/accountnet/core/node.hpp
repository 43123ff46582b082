// Event-driven AccountNet participant.
//
// Wires the protocol engines (shuffle, witness, evidence) to the simulated
// message fabric: periodic verifiable shuffling, bootstrap join, ungraceful
// leave detection with signed leave reports, radius-limited neighborhood
// flooding, witness-group channel establishment, and 1-hop witnessed data
// relay with the majority-delivery optimization of Sec. VI-B.
//
// Malicious behaviour is modelled through the Behavior knobs rather than by
// forging cryptography (which verification would reject anyway — that is the
// point of the protocol); the knobs realize the two rational strategies the
// analysis identifies: follow-the-protocol-but-lie-as-witness, or
// refuse-and-separate. An AdversaryPolicy (core/adversary.hpp) goes further:
// it mounts *active* attacks (biased samples, forged/truncated/equivocating
// histories, relay tamper/drop, testimony lies), and the accountability mode
// (Config::accountability) is the machinery that catches them — body-signed
// messages, signed relay headers/forwards, and a gossiped accuse → quarantine
// → evict pipeline whose Accusations any third party can re-verify
// (core/accusation.hpp).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "accountnet/core/accusation.hpp"
#include "accountnet/core/adversary.hpp"
#include "accountnet/core/evidence.hpp"
#include "accountnet/core/neighborhood.hpp"
#include "accountnet/core/shuffle.hpp"
#include "accountnet/core/verification_engine.hpp"
#include "accountnet/core/witness.hpp"
#include "accountnet/obs/metrics.hpp"
#include "accountnet/obs/span.hpp"
#include "accountnet/sim/network.hpp"
#include "accountnet/util/bounded.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::core {

/// Message type tags on the wire.
enum class MsgType : std::uint32_t {
  kJoinRequest = 1,
  kJoinReply = 2,
  kRoundQuery = 3,
  kRoundReply = 4,
  kShuffleOffer = 5,
  kShuffleResponse = 6,
  kShuffleReject = 7,
  kPing = 8,
  kPong = 9,
  kLeaveNotice = 10,
  kNeighborhoodQuery = 11,
  kNeighborhoodReply = 12,
  kChannelRequest = 13,
  kChannelAccept = 14,
  kChannelFinalize = 15,
  kWitnessInvite = 16,
  kWitnessAck = 17,
  kDataRelay = 18,
  kDataForward = 19,
  kTestimonyQuery = 20,
  kTestimonyReply = 21,
  kEntryQuery = 22,
  kEntryReply = 23,
  kWitnessUpdate = 24,
  kWitnessUpdateAck = 25,
  kAccusation = 26,
  kAccusationAck = 27,
  kCheckpointAnnounce = 28,
  kSegmentRequest = 29,
  kSegmentData = 30,
};

/// Stable snake_case name for a message type ("shuffle_offer", ...); used as
/// the per-type metric-name fragment by SimNetwork::set_metrics. Exhaustive
/// switch — a new MsgType without a name is a compile warning under -Wall.
const char* msg_type_name(MsgType type);

/// Bounded-retry policy for one class of RPC (see docs/RESILIENCE.md for the
/// per-RPC table). `attempts` counts total transmissions, so 1 means a
/// single shot with no retry. The wait before retry k is
/// `base_delay * backoff^(k-1)`, jittered by +-`jitter_frac`. Retries only
/// ever fire after `base_delay` of silence, so on a clean network (replies
/// within ~2 RTT) a policy with attempts > 1 behaves exactly like one shot.
struct RetryPolicy {
  int attempts = 1;
  sim::Duration base_delay = sim::milliseconds(600);
  double backoff = 2.0;
  double jitter_frac = 0.1;
};

class Node {
 public:
  struct Config {
    NodeConfig protocol;                     ///< f, L, history limit.
    sim::Duration shuffle_period = sim::seconds(10);
    double shuffle_jitter_frac = 0.2;        ///< +- fraction of the period.
    std::size_t depth = 2;                   ///< d — neighborhood radius.
    std::size_t witness_count = 4;           ///< |W|.
    bool majority_opt = false;               ///< deliver at |W|/2+1 identical.
    sim::Duration rpc_timeout = sim::seconds(2);
    sim::Duration neighborhood_wait = sim::milliseconds(400);
    int failures_before_leave_check = 2;

    // Caps on per-peer bookkeeping (duplicate-query suppression, failure
    // counts, replay floors, recorded leavers). FIFO eviction past the cap;
    // see util/bounded.hpp for the forgetting semantics.
    std::size_t max_seen_queries = 4096;
    std::size_t max_tracked_partners = 1024;
    std::size_t max_reported_leavers = 4096;

    // Retry policies (docs/RESILIENCE.md). Acked request/reply RPCs retry
    // until the reply lands or attempts run out; "blind" sends (no ack on
    // the wire: finalize, witness update, data relay/forward) transmit
    // `attempts` copies spaced by the backoff schedule and rely on the
    // receiver's duplicate suppression.
    //
    // Defaults reproduce the pre-retry wire behavior bit-for-bit: a single
    // transmission everywhere (a silent peer — e.g. one that has not joined
    // yet — must not attract retransmissions in a clean run), and the one
    // historical join retransmission at 8 s. Chaos/soak configs raise the
    // attempt counts; see bench/chaos_soak.
    RetryPolicy join_retry{2, sim::seconds(8), 1.0, 0.0};       ///< bootstrap join
    RetryPolicy query_retry{1, sim::milliseconds(600), 2.0, 0.1};   ///< round/shuffle/testimony/entry
    RetryPolicy channel_retry{1, sim::milliseconds(600), 2.0, 0.1}; ///< request + invites
    RetryPolicy blind_retry{1, sim::milliseconds(400), 2.0, 0.1};   ///< unacked sends

    /// Producer-side witness health checks: every period, ping-probe the
    /// witnesses of ready channels; a silent witness is reported as left and
    /// repaired (replaced via a fresh verifiable draw). 0 disables.
    sim::Duration witness_ping_period = 0;

    /// Accountability mode (disabled by default — defaults reproduce the
    /// pre-accountability wire format bit-for-bit). When enabled, shuffle
    /// offers/responses carry body signatures, relays carry producer header
    /// signatures and witness forward signatures, and every detected
    /// violation is packaged as a gossiped, third-party-verifiable
    /// Accusation driving local quarantine and threshold eviction.
    struct Accountability {
      bool enabled = false;
      /// Distinct accusers required before a quarantined peer counts as
      /// evicted (one valid accusation already quarantines locally; the
      /// threshold guards the stronger, permanent verdict).
      std::size_t evict_threshold = 2;
      /// Every `audit_period`-th sequence the consumer also spot-checks the
      /// forwarding witnesses' testimonies against their forwards.
      std::uint64_t audit_period = 4;
      /// Consumer audit runs this long after delivery, so straggling
      /// forwards are not mistaken for omissions.
      sim::Duration audit_delay = sim::seconds(2);
      std::size_t max_seen_entries = 4096;  ///< equivocation cross-check cache
      std::size_t max_accusations = 4096;   ///< gossip dedup cache
    };
    Accountability accountability;

    /// Durability and catch-up sync (disabled by default — defaults reproduce
    /// the pre-durability wire format bit-for-bit). When enabled, the node
    /// announces each sealed checkpoint (protocol.checkpoint_interval governs
    /// sealing), mirrors counterpart sealed histories by fetching missing
    /// entry ranges in bounded chunks, verifies every fetched chunk
    /// fail-closed against the announced chain digest, and convicts a server
    /// whose signed segment contradicts its own signed checkpoint
    /// (AccusationKind::kSegmentMismatch).
    struct Durability {
      bool enabled = false;
      /// Non-owning write-ahead journal (storage/node_store.hpp). Entries,
      /// seals, round marks and standing changes stream into it; catch-up
      /// SegmentRequests are also served from it once the in-memory window
      /// has been trimmed. May be null (announce/sync only, no persistence).
      HistoryJournal* journal = nullptr;
      /// Broadcast kCheckpointAnnounce to the current peerset on each seal
      /// (and, with want_reply, on recovery).
      bool announce_checkpoints = true;
      std::size_t max_segment_entries = 64;  ///< per-SegmentData chunk cap
      std::size_t max_synced_peers = 256;    ///< mirror-state FIFO bound
    };
    Durability durability;

    /// Verification-engine knobs (batching; no setting changes a verdict —
    /// see core/verification_engine.hpp).
    VerificationEngine::Config verification;

    /// Active-adversary policy for this node (all-off by default).
    AdversaryPolicy adversary;
  };

  /// Partial runtime reconfiguration: only fields holding a value change.
  /// Applies to *future* activity — established channels keep their witness
  /// group, an in-flight shuffle keeps its timeout.
  struct ConfigDelta {
    std::optional<std::size_t> witness_count;     ///< must be >= 1
    std::optional<bool> majority_opt;
    std::optional<sim::Duration> shuffle_period;  ///< must be > 0
    std::optional<double> shuffle_jitter_frac;    ///< must be in [0, 1]
    std::optional<std::size_t> depth;             ///< must be >= 1
    std::optional<sim::Duration> rpc_timeout;     ///< must be > 0
    /// Sampler backend (core/sampler.hpp). Only legal before the node has
    /// started and committed any round: a mid-epoch swap would orphan every
    /// proof already in histories and in flight, so update_config throws
    /// once running() or round() > 0.
    std::optional<SamplerKind> sampler;
  };

  /// Behaviour knobs for modelling malicious/misbehaving nodes.
  struct Behavior {
    bool refuse_shuffles = false;   ///< never respond to shuffle traffic
    bool drop_relays = false;       ///< witness: silently drop relayed data
    bool corrupt_relays = false;    ///< witness: alter payloads when relaying
    bool lie_in_testimony = false;  ///< witness: log/report a fake digest
  };

  /// Point-in-time snapshot of the node's protocol counters. Backed by the
  /// metrics registry (the "node.*" counters); stats() materializes it so
  /// existing `node.stats().field` call sites keep working unchanged.
  struct Stats {
    std::uint64_t shuffles_initiated = 0;
    std::uint64_t shuffles_completed = 0;    ///< as initiator
    std::uint64_t shuffles_responded = 0;
    std::uint64_t shuffles_rejected = 0;     ///< offers we rejected
    std::uint64_t shuffle_failures = 0;      ///< aborted initiations
    std::uint64_t verification_failures = 0;
    std::uint64_t history_suffix_bytes = 0;  ///< cumulative proof sizes sent
    std::uint64_t leaves_reported = 0;
    std::uint64_t relays_forwarded = 0;
    std::uint64_t rpc_retries = 0;           ///< retransmissions by the RPC table
    std::uint64_t rpc_exhausted = 0;         ///< RPCs abandoned after max attempts
    std::uint64_t witness_repairs = 0;       ///< witnesses replaced on live channels
  };

  using DeliveryCallback = std::function<void(
      std::uint64_t channel_id, std::uint64_t sequence, const Bytes& payload,
      const PeerId& producer)>;
  using ChannelReadyCallback = std::function<void(std::uint64_t channel_id, bool ok)>;

  Node(sim::SimNetwork& net, const std::string& addr,
       const crypto::CryptoProvider& provider, BytesView seed32, Config config,
       std::uint64_t rng_seed);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Starts as a network seed (no bootstrap) and begins the shuffle timer.
  void start_as_seed();

  /// Joins through `bootstrap_addr` (Sec. IV-A) and begins the shuffle timer.
  void start_join(const std::string& bootstrap_addr);

  /// Crash-restart recovery: resumes from journal-replayed state (history
  /// window + checkpoint + round high-water mark + peer standing) with the
  /// pre-crash identity, re-attaches to the fabric, and — when durability
  /// announcements are on — announces its latest checkpoint with want_reply
  /// so both sides of every peering catch up on what they missed. The node
  /// is immediately joined(); no bootstrap round-trip is needed.
  void start_recovered(const RecoveredNode& rec);

  /// Ungraceful leave: detaches from the fabric; peers discover via timeouts.
  void stop();

  /// Graceful leave (Sec. IV-A): self-reports the departure to all current
  /// peers (signed leave notice) and then detaches. Peers still ping-confirm
  /// before recording, so a forged "X left" notice cannot evict a live node.
  void stop_gracefully();

  bool running() const { return running_; }
  bool joined() const { return joined_; }
  /// Terminal join failure: the bootstrap never answered within
  /// `join_retry.attempts` transmissions. The node stays attached (it can
  /// be contacted) but never starts shuffling; also counted as
  /// "node.join_failed" in metrics().
  bool join_failed() const { return join_failed_; }
  const PeerId& id() const { return state_.self(); }
  const NodeState& state() const { return state_; }
  /// The configured verifiable-sampling backend (config.protocol.sampler);
  /// every draw and proof replay this node performs goes through it.
  const SamplerBackend& sampler() const {
    return sampler_backend(config_.protocol.sampler);
  }
  Stats stats() const;
  const EvidenceLog& evidence() const { return evidence_; }
  Behavior& behavior() { return behavior_; }
  AdversaryPolicy& adversary() { return adversary_; }

  /// The simulator driving this node's timers (resolver deadlines etc.).
  sim::Simulator& simulator() { return net_.simulator(); }

  /// True once this node has accepted at least one valid accusation against
  /// `addr` (the peer is excluded from partner/witness selection and its
  /// traffic is dropped).
  bool is_quarantined(const std::string& addr) const {
    return quarantined_.contains(addr);
  }
  /// True once `evict_threshold` distinct accusers have been counted.
  bool is_evicted(const std::string& addr) const {
    const auto it = accused_.find(addr);
    return it != accused_.end() && it->second.evicted;
  }
  std::size_t quarantined_count() const { return quarantined_.size(); }
  /// Sorted snapshots of the accountability verdicts — stable across runs,
  /// so daemon status dumps and the sim↔real interop test can compare them
  /// directly.
  std::vector<std::string> quarantined_addrs() const;
  std::vector<std::string> evicted_addrs() const;

  /// Per-node metrics: the "node.*" counters behind stats(), rejection
  /// counters keyed by VerifyError tag ("node.reject.<tag>"), and the
  /// protocol timers ("node.verify_offer", "node.make_response", ...).
  /// Timers are inert until set_timing_enabled(true) on this registry.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// This node's verification engine. All shuffle/witness/accusation
  /// verification routes through it; exposed for its counters and tests.
  VerificationEngine& verification_engine() { return engine_; }
  const VerificationEngine& verification_engine() const { return engine_; }

  /// Attaches the simulation-wide span tracer (obs/span.hpp); nullptr — the
  /// default — keeps every trace call a null-check, and an attached tracer
  /// never perturbs a seeded run (ids come from the tracer's own stream,
  /// never from a protocol Rng). Attach the same tracer to the SimNetwork
  /// for fabric hop spans. The tracer must outlive the node.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// The causal context currently stamped on outgoing messages. Exposed so
  /// DisputeResolver can parent its testimony queries under a dispute span;
  /// protocol code manages it internally via RAII scopes.
  obs::TraceContext trace_context() const { return trace_ctx_; }
  void set_trace_context(obs::TraceContext ctx) { trace_ctx_ = ctx; }

  /// Opens a witnessed data channel to `consumer_addr`; `on_ready` fires when
  /// the witness group is agreed and invited (or on failure).
  void open_channel(const std::string& consumer_addr, ChannelReadyCallback on_ready);

  /// Sends a payload over an established channel (producer side).
  void send_data(std::uint64_t channel_id, Bytes payload);

  /// Consumer-side delivery hook.
  void set_delivery_callback(DeliveryCallback cb) { on_delivery_ = std::move(cb); }

  /// Applies a validated partial reconfiguration (see ConfigDelta for the
  /// per-field constraints); out-of-range values throw EnsureError and
  /// leave the config untouched. Used by the latency benches to sweep |W|
  /// and the majority-delivery optimization on a live network.
  void update_config(const ConfigDelta& delta);

  /// The witness group of an established channel (either side).
  const std::vector<PeerId>* channel_witnesses(std::uint64_t channel_id) const;

  /// Ids of the channels this node produces on, in creation order.
  std::vector<std::uint64_t> producer_channel_ids() const;

  /// Asks a witness for its signed testimony about (channel, seq); the
  /// callback receives nullopt if the witness has no record (or on timeout).
  using TestimonyCallback = std::function<void(std::optional<Testimony>)>;
  void request_testimony(const std::string& witness_addr, std::uint64_t channel_id,
                         std::uint64_t sequence, TestimonyCallback cb);

  /// Old-entry lookup service (Sec. IV-A): asks a node for its history entry
  /// at `round`; used for tracing the origin of a peer and for the
  /// cross-entry audit.
  using EntryCallback = std::function<void(std::optional<HistoryEntry>)>;
  void request_history_entry(const std::string& peer_addr, Round round,
                             EntryCallback cb);

 private:
  struct PendingShuffle {
    PeerId partner;
    PartnerChoice choice;
    Round round_at_start = 0;  ///< the round the partner draw was made at
    ShuffleOffer offer;
    /// The exact offer bytes sent (core + body signature), exact-size. The
    /// response signature binds them, and they become the offer half of
    /// the shape-2 evidence item, so they are encoded once, at the send.
    Bytes offer_wire;
    bool offer_sent = false;
    std::uint64_t epoch = 0;
    std::uint64_t timeout_token = 0;  ///< identifies the live abort timer
    std::uint64_t query_rpc = 0;      ///< outstanding kRoundQuery (0 = none)
    std::uint64_t offer_rpc = 0;      ///< outstanding kShuffleOffer (0 = none)
    std::uint64_t span = 0;           ///< root "shuffle" span (0 = untraced)

    /// Adversary equivocation: when set, the offer is assembled over this
    /// internally consistent but doctored history instead of the node's real
    /// state (core/adversary.hpp). The doctored suffix reuses the real
    /// counterpart signatures (entry signatures cover only the nonce), so it
    /// passes inline verification and is only caught by cross-comparing
    /// signed exchanges.
    struct Doctored {
      std::vector<HistoryEntry> suffix;
      std::vector<PeerId> claimed;  ///< reconstruct(suffix), sorted
    };
    std::optional<Doctored> doctored;
  };

  struct ProducerChannel {
    std::uint64_t id = 0;
    PeerId consumer;
    std::vector<PeerId> my_neighborhood;
    Round my_round = 0;
    Round consumer_round = 0;
    std::vector<PeerId> witnesses;
    std::set<std::string> acked;     ///< witnesses that acked their invite
    bool accepted = false;           ///< kChannelAccept processed (dedup)
    bool ready = false;
    std::uint64_t next_seq = 1;
    std::uint64_t repair_epoch = 0;  ///< completed witness repairs
    /// Repair announcements the consumer has not acked yet, in epoch order.
    /// Re-sent on every witness-health tick, so a repair performed while the
    /// consumer was unreachable (partition, crash window) is replayed
    /// in-order after the network heals instead of desyncing the two
    /// witness views forever.
    std::vector<std::pair<std::uint64_t, Bytes>> unacked_updates;
    Bytes finalize_payload;          ///< cached for duplicate-accept resend
    std::uint64_t span = 0;          ///< root "channel" span (0 = untraced)
    std::uint64_t request_rpc = 0;   ///< outstanding kChannelRequest
    std::map<std::string, std::uint64_t> invite_rpcs;  ///< per-witness invites
    ChannelReadyCallback on_ready;
  };

  struct ConsumerChannel {
    std::uint64_t id = 0;
    PeerId producer;
    Round producer_round = 0;
    std::vector<PeerId> producer_neighborhood;
    std::vector<PeerId> my_neighborhood;
    Round my_round = 0;
    std::vector<PeerId> witnesses;
    bool ready = false;
    std::uint64_t repair_epoch = 0;  ///< applied witness repairs
    Bytes accept_payload;            ///< cached for duplicate-request resend
    /// Witness duty signatures (accountability mode): witness addr → σ_w over
    /// wduty_payload(...), copied to us alongside the producer's invite ack.
    /// Verified lazily when packaged into an accusation.
    std::map<std::string, Bytes> duty_sigs;
    // Per-sequence digest tallies for delivery decisions.
    struct Tally {
      std::map<Bytes, std::pair<std::size_t, Bytes>> digests;  // digest -> (count, payload)
      std::set<std::string> seen;  ///< witnesses already tallied (dedup)
      std::size_t total = 0;
      bool delivered = false;
      /// Accountability mode: the signed material each forward carried, kept
      /// for tamper/testimony-mismatch accusations and omission challenges.
      struct ForwardRec {
        Bytes digest;       ///< digest of the payload as forwarded
        Bytes forward_sig;  ///< σ_w over forward_payload(...)
        Bytes header_sig;   ///< producer header sig the forward was bound to
        bool header_ok = false;  ///< header verified for `digest`
      };
      std::map<std::string, ForwardRec> forwards;  ///< by witness addr
      bool audited = false;  ///< post-delivery audit already scheduled
    };
    std::map<std::uint64_t, Tally> pending;
  };

  struct RelayDuty {
    PeerId producer;
    PeerId consumer;
  };

  struct NeighborhoodProbe {
    std::uint64_t query_id = 0;
    std::set<PeerId> found;
    std::function<void(std::vector<PeerId>)> done;
  };

  void handle(const sim::NetMessage& msg);
  void send(const std::string& to, MsgType type, Bytes payload);

  // --- Causal tracing (every call a null-check when tracer_ is unset). ---
  /// Opens a span at the current simulated time; 0 when untraced. With the
  /// zero parent the span roots a new trace.
  std::uint64_t trace_begin(std::string name, obs::TraceContext parent);
  void trace_attr(std::uint64_t span, const char* key, std::string value);
  void trace_end(std::uint64_t span);
  void trace_end_outcome(std::uint64_t span, const char* outcome);
  /// RAII: routes sends through `ctx` for the scope (operation-span legs).
  class CtxScope {
   public:
    CtxScope(Node& node, obs::TraceContext ctx) : node_(node), saved_(node.trace_ctx_) {
      node.trace_ctx_ = ctx;
    }
    CtxScope(Node& node, std::uint64_t span);
    ~CtxScope() { node_.trace_ctx_ = saved_; }
    CtxScope(const CtxScope&) = delete;
    CtxScope& operator=(const CtxScope&) = delete;

   private:
    Node& node_;
    obs::TraceContext saved_;
  };
  /// RAII: opens a span as a child of `parent`, routes sends through it for
  /// the scope, and ends it on exit (handler-leg spans).
  class SpanScope {
   public:
    SpanScope(Node& node, const char* name, obs::TraceContext parent);
    ~SpanScope();
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    std::uint64_t id() const { return span_; }
    void attr(const char* key, std::string value) {
      node_.trace_attr(span_, key, std::move(value));
    }

   private:
    Node& node_;
    std::uint64_t span_ = 0;
    obs::TraceContext saved_;
  };

  // Outstanding-RPC table: every retried transmission lives here until its
  // reply is observed (finish_rpc), its context dies, or its attempts are
  // exhausted (then `give_up` fires). Retry delays are jittered from a
  // dedicated Rng so the protocol rng stream is untouched.
  std::uint64_t send_rpc(const std::string& to, MsgType type, Bytes payload,
                         const RetryPolicy& policy,
                         std::function<void()> give_up = {});
  void finish_rpc(std::uint64_t rpc_id);
  void schedule_rpc_retry(std::uint64_t rpc_id, sim::Duration delay);
  sim::Duration jittered(sim::Duration base, double jitter_frac);
  /// Fire-and-forget redundancy for sends with no ack on the wire: transmits
  /// `policy.attempts` copies on the backoff schedule, unconditionally (the
  /// receiver dedups). One copy when attempts <= 1, i.e. a plain send.
  void send_blind(const std::string& to, MsgType type, Bytes payload,
                  const RetryPolicy& policy);

  // Shuffling.
  void schedule_next_shuffle();
  void schedule_shuffle_timeout();
  void begin_shuffle();
  void abort_shuffle(bool partner_suspect);
  void on_round_query(const sim::NetMessage& msg);
  void on_round_reply(const sim::NetMessage& msg);
  void on_shuffle_offer(const sim::NetMessage& msg);
  void on_shuffle_response(const sim::NetMessage& msg);
  void on_shuffle_reject(const sim::NetMessage& msg);

  // Join.
  void on_join_request(const sim::NetMessage& msg);
  void on_join_reply(const sim::NetMessage& msg);

  // Leave detection.
  void purge_reported_leavers();
  void suspect_peer(const PeerId& peer);
  void on_leave_notice(const sim::NetMessage& msg);
  void on_ping(const sim::NetMessage& msg);
  void on_pong(const sim::NetMessage& msg);

  // Neighborhood flooding.
  void discover_neighborhood(std::function<void(std::vector<PeerId>)> done);
  void on_neighborhood_query(const sim::NetMessage& msg);
  void on_neighborhood_reply(const sim::NetMessage& msg);

  // Channels.
  void on_channel_request(const sim::NetMessage& msg);
  void on_channel_accept(const sim::NetMessage& msg);
  void on_channel_finalize(const sim::NetMessage& msg);
  void on_witness_invite(const sim::NetMessage& msg);
  void on_witness_ack(const sim::NetMessage& msg);
  void on_data_relay(const sim::NetMessage& msg);
  void on_data_forward(const sim::NetMessage& msg);
  void maybe_deliver(ConsumerChannel& ch, std::uint64_t seq);
  void finish_channel_rpcs(ProducerChannel& ch);

  // Witness repair (docs/RESILIENCE.md): when a channel witness is recorded
  // as left, the producer replaces it via a fresh verifiable draw over the
  // surviving candidates and notifies the consumer (kWitnessUpdate); both
  // sides degrade their delivery threshold while the group is short.
  void trigger_witness_repair(const std::string& dead_addr);
  void on_witness_update(const sim::NetMessage& msg);
  void on_witness_update_ack(const sim::NetMessage& msg);
  void schedule_witness_health();

  // Durability / catch-up sync (docs/RESILIENCE.md). The node mirrors each
  // counterpart's sealed history as (entry count, accumulated chain digest);
  // an announce with a newer seal triggers bounded segment fetches that are
  // verified fail-closed chunk by chunk.
  bool durable() const { return config_.durability.enabled; }
  /// Detects a fresh seal (epoch advanced) and broadcasts the announce.
  void maybe_announce_checkpoint();
  void send_checkpoint_announce(const std::string& to, bool want_reply);
  void on_checkpoint_announce(const sim::NetMessage& msg);
  void on_segment_request(const sim::NetMessage& msg);
  void on_segment_data(const sim::NetMessage& msg);

  // Evidence / history query service.
  void on_testimony_query(const sim::NetMessage& msg);
  void on_testimony_reply(const sim::NetMessage& msg);
  void on_entry_query(const sim::NetMessage& msg);
  void on_entry_reply(const sim::NetMessage& msg);

  /// Internal testimony query that distinguishes "witness answered with no
  /// record" (replied, nullopt) from full silence (not replied, nullopt) —
  /// the omission challenge convicts only on silence.
  using TestimonyReplyCallback =
      std::function<void(bool replied, std::optional<Testimony>)>;
  void request_testimony_internal(const std::string& witness_addr,
                                  std::uint64_t channel_id, std::uint64_t sequence,
                                  TestimonyReplyCallback cb);

  // Accountability pipeline (accuse → quarantine → evict).
  bool acct() const { return config_.accountability.enabled; }
  /// Cross-checks the suffix a body-signed exchange carried against entries
  /// previously seen from `peer`; a conflicting entry at the same round
  /// raises a kHistoryEquivocation accusation built from the two exchanges.
  /// `suffix` is the history suffix decoded from `item` (the offer of a
  /// shape-1 item, the response of a shape-2 item).
  void note_exchange_entries(const PeerId& peer,
                             const std::vector<HistoryEntry>& suffix,
                             ExchangeItem item);
  /// Finalizes (signs), self-verifies, applies locally and gossips an
  /// accusation this node constructed.
  void raise_accusation(Accusation acc);
  /// Applies a verified accusation: records the accuser, quarantines the
  /// accused, and flips to evicted at the accuser threshold.
  void accept_accusation(const Accusation& acc);
  void gossip_accusation(const Accusation& acc, const std::string& skip_addr);
  /// Quarantine = local leave-record (no notice fanout; peers convict via
  /// the gossiped accusation themselves) + witness repair + traffic drop.
  void quarantine_peer(const PeerId& peer, const char* kind_tag);
  /// Live omission challenge: query the accused witness for its testimony of
  /// (channel, seq); convict `acc` only if it stays silent.
  void start_omission_challenge(Accusation acc);
  /// Post-delivery consumer audit: challenge witnesses that never forwarded,
  /// and on audit-period sequences spot-check forwarders' testimonies.
  void schedule_consumer_audit(std::uint64_t channel_id, std::uint64_t seq);
  void run_consumer_audit(std::uint64_t channel_id, std::uint64_t seq);
  void on_accusation(const sim::NetMessage& msg);
  void on_accusation_ack(const sim::NetMessage& msg);

  /// Registration-order ids of the per-node metrics (interned once).
  struct MetricIds {
    explicit MetricIds(obs::MetricsRegistry& r);
    obs::MetricId shuffles_initiated, shuffles_completed, shuffles_responded,
        shuffles_rejected, shuffle_failures, verification_failures,
        history_suffix_bytes, leaves_reported, relays_forwarded;
    // Robustness counters (retry engine, bounded join, witness repair).
    obs::MetricId rpc_retries, rpc_exhausted, join_failed, witness_repairs;
    obs::MetricId blind_copies;
    // Protocol-step timers (shuffle verification/construction hot spots).
    obs::MetricId t_make_offer, t_verify_offer, t_make_response, t_verify_response;
  };

  sim::SimNetwork& net_;
  const crypto::CryptoProvider& provider_;
  NodeState state_;
  Config config_;
  Behavior behavior_;
  Rng rng_;
  obs::MetricsRegistry metrics_;
  MetricIds ids_{metrics_};
  /// Caching verification front-end over provider_ (declared after metrics_
  /// so its counters register into this node's registry).
  VerificationEngine engine_{provider_, config_.verification, &metrics_};
  EvidenceLog evidence_;

  // Causal tracing (null/zero = off, the default).
  obs::Tracer* tracer_ = nullptr;
  obs::TraceContext trace_ctx_{};
  std::uint64_t join_span_ = 0;  ///< root "join" span while joining

  bool running_ = false;
  bool joined_ = false;
  bool join_failed_ = false;

  // Outstanding-RPC table.
  struct OutstandingRpc {
    std::string to;
    MsgType type = MsgType::kPing;
    Bytes payload;
    int sends_done = 1;
    RetryPolicy policy;
    std::function<void()> give_up;
  };
  std::uint64_t next_rpc_ = 1;
  std::unordered_map<std::uint64_t, OutstandingRpc> rpc_table_;
  /// Jitters retry delays only; protocol draws stay on rng_, so attaching
  /// retries never perturbs a fault-free run.
  Rng retry_rng_;
  std::uint64_t join_rpc_ = 0;

  // Shuffle state.
  std::optional<PendingShuffle> pending_;
  std::uint64_t shuffle_epoch_ = 0;  ///< invalidates stale timeout events
  std::uint64_t timeout_seq_ = 0;    ///< feeds PendingShuffle::timeout_token
  BoundedMap<std::string, int> partner_failures_{config_.max_tracked_partners};
  BoundedMap<std::string, Round> last_seen_initiator_round_{config_.max_tracked_partners};
  /// Last committed response per initiator, for duplicate-offer retransmit
  /// (an at-least-once initiator may never have seen our first response).
  BoundedMap<std::string, std::pair<Round, Bytes>> response_cache_{
      config_.max_tracked_partners};
  BoundedSet<std::string> reported_leavers_{config_.max_reported_leavers};
  /// (channel:seq) relays already logged + forwarded (witness-side dedup).
  BoundedSet<std::string> relayed_keys_{config_.max_seen_queries};

  /// In-flight liveness probe: ours (suspect) or triggered by a LeaveNotice,
  /// in which case the received report is applied on timeout.
  struct PingProbe {
    PeerId target;
    bool from_notice = false;
    PeerId reporter;
    Round reporter_round = 0;
    Bytes report_sig;
  };
  std::unordered_map<std::string, PingProbe> ping_probes_;

  // Neighborhood state.
  std::uint64_t next_query_id_ = 1;
  BoundedSet<std::uint64_t> seen_queries_{config_.max_seen_queries};
  std::optional<NeighborhoodProbe> probe_;
  /// Discovery requests arriving while a probe is in flight wait here.
  std::vector<std::function<void(std::vector<PeerId>)>> probe_queue_;

  // Channel state.
  bool health_timer_armed_ = false;  ///< one witness-health loop at a time
  sim::TimePoint last_rx_ = -1;      ///< last receive from anyone (-1: never);
                                     ///< gates the repair self-quarantine
  std::uint64_t next_channel_id_ = 1;
  std::map<std::uint64_t, ProducerChannel> producer_channels_;
  std::map<std::uint64_t, ConsumerChannel> consumer_channels_;
  std::map<std::uint64_t, RelayDuty> relay_duties_;
  DeliveryCallback on_delivery_;

  // Outstanding evidence / history queries keyed by a request id; each also
  // remembers its RPC-table entry so the reply cancels pending retries.
  std::uint64_t next_request_id_ = 1;
  std::map<std::uint64_t, std::pair<TestimonyReplyCallback, std::uint64_t>>
      testimony_waiters_;
  std::map<std::uint64_t, std::pair<EntryCallback, std::uint64_t>> entry_waiters_;

  // Durability / catch-up sync state: our mirror of each peer's sealed
  // history. `synced`/`chain` advance only over verified chunks; `target`
  // holds the checkpoint currently being synced toward (sync in flight).
  struct PeerSyncState {
    std::uint64_t synced = 0;   ///< entries verified so far
    ChainDigest chain{};        ///< accumulated chain digest at `synced`
    std::uint64_t epoch = 0;    ///< latest fully mirrored checkpoint epoch
    std::uint64_t rpc = 0;      ///< outstanding kSegmentRequest (0 = none)
    std::uint64_t request_id = 0;
    std::optional<Checkpoint> target;
  };
  BoundedMap<std::string, PeerSyncState> peer_sync_{config_.durability.max_synced_peers};
  void request_next_segment(const std::string& addr, PeerSyncState& sync);
  std::uint64_t announced_epoch_ = 0;  ///< last self-seal broadcast

  // Accountability state.
  AdversaryPolicy adversary_ = config_.adversary;
  /// Adversary attack-rate rolls only; protocol draws stay on rng_, so an
  /// all-off policy never perturbs an honest run.
  Rng adv_rng_;
  std::uint64_t adv_initiations_ = 0;  ///< equivocators alternate per initiation
  std::unordered_set<std::string> quarantined_;
  struct AccusedRecord {
    std::set<std::string> accusers;  ///< distinct accuser addresses counted
    bool evicted = false;
  };
  std::unordered_map<std::string, AccusedRecord> accused_;
  /// Accusation digests already processed (gossip dedup / replay floor).
  BoundedSet<std::string> accusations_seen_{config_.accountability.max_accusations};
  /// "addr#round" → where the entry first seen from that peer at that round
  /// lives: the signed exchange that carried it (shared by every entry of
  /// that exchange) and its position in that exchange's history suffix. The
  /// item is the only copy retained; a later entry for the same key is
  /// compared against suffix[index] decoded from it, and a conflict makes
  /// the two exchanges the equivocation proof.
  struct SeenEntry {
    std::shared_ptr<const ExchangeItem> item;
    std::uint32_t index = 0;
  };
  BoundedMap<std::string, SeenEntry> seen_entries_{
      config_.accountability.max_seen_entries};
  /// Outstanding accusation-gossip RPCs, keyed "digesthex#peer" so the ack
  /// (which echoes the digest) can cancel the matching retry.
  std::map<std::string, std::uint64_t> accusation_rpcs_;
  /// Omission challenges in flight, keyed "addr#channel#seq" (dedup).
  std::set<std::string> active_challenges_;

  /// Guards timer callbacks against a destroyed node (events may outlive us).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace accountnet::core
