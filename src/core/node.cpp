#include "accountnet/core/node.hpp"

#include <algorithm>
#include <cmath>

#include "accountnet/util/ensure.hpp"
#include "accountnet/wire/codec.hpp"

namespace accountnet::core {

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// An exchange message as sent: its encoded core with the body signature
/// appended the way ShuffleOffer/ShuffleResponse::encode() append it
/// (nothing when unsigned), so the core is encoded only once.
Bytes signed_wire(Bytes core, const Bytes& body_sig) {
  if (!body_sig.empty()) {
    wire::Writer w;
    w.bytes(body_sig);
    const Bytes& tail = w.data();
    core.insert(core.end(), tail.begin(), tail.end());
  }
  return core;
}

Bytes encoded_entry(const HistoryEntry& e) {
  wire::Writer w;
  encode_entry(w, e);
  return std::move(w).take();
}

/// The history suffix a cross-checked exchange carried: the offer's in a
/// shape-1 item, the response's in a shape-2 item.
std::vector<HistoryEntry> item_suffix(const ExchangeItem& item) {
  return item.shape == 1 ? ShuffleOffer::decode(item.offer).history_suffix
                         : ShuffleResponse::decode(item.response).history_suffix;
}

}  // namespace

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kJoinRequest: return "join_request";
    case MsgType::kJoinReply: return "join_reply";
    case MsgType::kRoundQuery: return "round_query";
    case MsgType::kRoundReply: return "round_reply";
    case MsgType::kShuffleOffer: return "shuffle_offer";
    case MsgType::kShuffleResponse: return "shuffle_response";
    case MsgType::kShuffleReject: return "shuffle_reject";
    case MsgType::kPing: return "ping";
    case MsgType::kPong: return "pong";
    case MsgType::kLeaveNotice: return "leave_notice";
    case MsgType::kNeighborhoodQuery: return "neighborhood_query";
    case MsgType::kNeighborhoodReply: return "neighborhood_reply";
    case MsgType::kChannelRequest: return "channel_request";
    case MsgType::kChannelAccept: return "channel_accept";
    case MsgType::kChannelFinalize: return "channel_finalize";
    case MsgType::kWitnessInvite: return "witness_invite";
    case MsgType::kWitnessAck: return "witness_ack";
    case MsgType::kDataRelay: return "data_relay";
    case MsgType::kDataForward: return "data_forward";
    case MsgType::kTestimonyQuery: return "testimony_query";
    case MsgType::kTestimonyReply: return "testimony_reply";
    case MsgType::kEntryQuery: return "entry_query";
    case MsgType::kEntryReply: return "entry_reply";
    case MsgType::kWitnessUpdate: return "witness_update";
    case MsgType::kWitnessUpdateAck: return "witness_update_ack";
    case MsgType::kAccusation: return "accusation";
    case MsgType::kAccusationAck: return "accusation_ack";
    case MsgType::kCheckpointAnnounce: return "checkpoint_announce";
    case MsgType::kSegmentRequest: return "segment_request";
    case MsgType::kSegmentData: return "segment_data";
  }
  return "unknown";
}

Node::MetricIds::MetricIds(obs::MetricsRegistry& r)
    : shuffles_initiated(r.counter("node.shuffles_initiated")),
      shuffles_completed(r.counter("node.shuffles_completed")),
      shuffles_responded(r.counter("node.shuffles_responded")),
      shuffles_rejected(r.counter("node.shuffles_rejected")),
      shuffle_failures(r.counter("node.shuffle_failures")),
      verification_failures(r.counter("node.verification_failures")),
      history_suffix_bytes(r.counter("node.history_suffix_bytes")),
      leaves_reported(r.counter("node.leaves_reported")),
      relays_forwarded(r.counter("node.relays_forwarded")),
      rpc_retries(r.counter("node.rpc_retries")),
      rpc_exhausted(r.counter("node.rpc_exhausted")),
      join_failed(r.counter("node.join_failed")),
      witness_repairs(r.counter("node.witness_repairs")),
      blind_copies(r.counter("node.blind_copies")),
      t_make_offer(r.timer("node.make_offer")),
      t_verify_offer(r.timer("node.verify_offer")),
      t_make_response(r.timer("node.make_response")),
      t_verify_response(r.timer("node.verify_response")) {}

Node::Stats Node::stats() const {
  Stats s;
  s.shuffles_initiated = metrics_.counter_value(ids_.shuffles_initiated);
  s.shuffles_completed = metrics_.counter_value(ids_.shuffles_completed);
  s.shuffles_responded = metrics_.counter_value(ids_.shuffles_responded);
  s.shuffles_rejected = metrics_.counter_value(ids_.shuffles_rejected);
  s.shuffle_failures = metrics_.counter_value(ids_.shuffle_failures);
  s.verification_failures = metrics_.counter_value(ids_.verification_failures);
  s.history_suffix_bytes = metrics_.counter_value(ids_.history_suffix_bytes);
  s.leaves_reported = metrics_.counter_value(ids_.leaves_reported);
  s.relays_forwarded = metrics_.counter_value(ids_.relays_forwarded);
  s.rpc_retries = metrics_.counter_value(ids_.rpc_retries);
  s.rpc_exhausted = metrics_.counter_value(ids_.rpc_exhausted);
  s.witness_repairs = metrics_.counter_value(ids_.witness_repairs);
  return s;
}

void Node::update_config(const ConfigDelta& delta) {
  // Validate before touching anything, so a failed update leaves the config
  // exactly as it was.
  AN_ENSURE_MSG(!delta.witness_count || *delta.witness_count >= 1,
                "witness_count must be >= 1");
  if (delta.witness_count) config_.witness_count = *delta.witness_count;
  if (delta.majority_opt) config_.majority_opt = *delta.majority_opt;
}

Node::Node(sim::SimNetwork& net, const std::string& addr,
           const crypto::CryptoProvider& provider, BytesView seed32, Config config,
           std::uint64_t rng_seed)
    : net_(net),
      provider_(provider),
      state_(PeerId{addr, provider.make_signer(seed32)->public_key()},
             provider.make_signer(seed32), config.protocol),
      config_(config),
      rng_(rng_seed),
      evidence_(PeerId{addr, provider.make_signer(seed32)->public_key()}),
      retry_rng_(rng_seed ^ 0x5eedbacc0ffeeULL),
      adv_rng_(rng_seed ^ 0xbadf00dc0de5ULL) {
  if (config_.durability.journal != nullptr) {
    state_.set_journal(config_.durability.journal);
  }
}

Node::~Node() {
  *alive_ = false;
  // Detach from the fabric too: a destroyed node must never leave a handler
  // behind whose captured `this` now dangles. stop() is idempotent, so nodes
  // that were stopped explicitly (or never started) are unaffected.
  stop();
}

void Node::send(const std::string& to, MsgType type, Bytes payload) {
  net_.send({state_.self().addr, to, static_cast<std::uint32_t>(type),
             std::move(payload), trace_ctx_});
}

// ---------------------------------------------------------------------------
// Causal tracing (obs/span.hpp). All helpers collapse to a null-check when
// no tracer is attached; span ids come from the tracer's own id stream, so
// attaching one never touches a protocol Rng.
// ---------------------------------------------------------------------------

std::uint64_t Node::trace_begin(std::string name, obs::TraceContext parent) {
  if (tracer_ == nullptr) return 0;
  return tracer_->begin_span(std::move(name), state_.self().addr,
                             net_.simulator().now(), parent);
}

void Node::trace_attr(std::uint64_t span, const char* key, std::string value) {
  if (tracer_ != nullptr && span != 0) tracer_->attr(span, key, std::move(value));
}

void Node::trace_end(std::uint64_t span) {
  if (tracer_ != nullptr && span != 0) tracer_->end_span(span, net_.simulator().now());
}

void Node::trace_end_outcome(std::uint64_t span, const char* outcome) {
  if (tracer_ != nullptr && span != 0) {
    tracer_->attr(span, "outcome", outcome);
    tracer_->end_span(span, net_.simulator().now());
  }
}

Node::CtxScope::CtxScope(Node& node, std::uint64_t span)
    : node_(node), saved_(node.trace_ctx_) {
  if (node.tracer_ != nullptr && span != 0) {
    node.trace_ctx_ = node.tracer_->context(span);
  }
}

Node::SpanScope::SpanScope(Node& node, const char* name, obs::TraceContext parent)
    : node_(node), saved_(node.trace_ctx_) {
  span_ = node.trace_begin(name, parent);
  if (span_ != 0) node.trace_ctx_ = node.tracer_->context(span_);
}

Node::SpanScope::~SpanScope() {
  node_.trace_end(span_);
  node_.trace_ctx_ = saved_;
}

// ---------------------------------------------------------------------------
// Outstanding-RPC table (bounded retries, docs/RESILIENCE.md).
// ---------------------------------------------------------------------------

sim::Duration Node::jittered(sim::Duration base, double jitter_frac) {
  if (jitter_frac <= 0.0) return std::max<sim::Duration>(base, 1);
  const double j = (retry_rng_.uniform01() * 2.0 - 1.0) * jitter_frac;
  return std::max<sim::Duration>(
      static_cast<sim::Duration>(static_cast<double>(base) * (1.0 + j)), 1);
}

std::uint64_t Node::send_rpc(const std::string& to, MsgType type, Bytes payload,
                             const RetryPolicy& policy,
                             std::function<void()> give_up) {
  send(to, type, payload);
  // Single-shot with nothing to do on failure: no table entry needed. (A
  // single-shot *with* a give_up is still tracked so the failure fires.)
  if (policy.attempts <= 1 && !give_up) return 0;
  const std::uint64_t id = next_rpc_++;
  OutstandingRpc rpc;
  rpc.to = to;
  rpc.type = type;
  rpc.payload = std::move(payload);
  rpc.policy = policy;
  rpc.give_up = std::move(give_up);
  rpc_table_[id] = std::move(rpc);
  schedule_rpc_retry(id, jittered(policy.base_delay, policy.jitter_frac));
  return id;
}

void Node::finish_rpc(std::uint64_t rpc_id) {
  if (rpc_id != 0) rpc_table_.erase(rpc_id);
}

void Node::schedule_rpc_retry(std::uint64_t rpc_id, sim::Duration delay) {
  auto alive = alive_;
  net_.simulator().schedule(delay, [this, alive, rpc_id] {
    if (!*alive || !running_) return;
    const auto it = rpc_table_.find(rpc_id);
    if (it == rpc_table_.end()) return;  // reply arrived; nothing to do
    OutstandingRpc& rpc = it->second;
    if (rpc.sends_done >= rpc.policy.attempts) {
      auto give_up = std::move(rpc.give_up);
      rpc_table_.erase(it);
      metrics_.add(ids_.rpc_exhausted);
      if (give_up) give_up();
      return;
    }
    ++rpc.sends_done;
    metrics_.add(ids_.rpc_retries);
    metrics_.add(metrics_.counter(std::string("node.retry.") + msg_type_name(rpc.type)));
    send(rpc.to, rpc.type, rpc.payload);
    const double factor = std::pow(rpc.policy.backoff, rpc.sends_done - 1);
    const auto next = static_cast<sim::Duration>(
        static_cast<double>(rpc.policy.base_delay) * factor);
    schedule_rpc_retry(rpc_id, jittered(next, rpc.policy.jitter_frac));
  });
}

void Node::send_blind(const std::string& to, MsgType type, Bytes payload,
                      const RetryPolicy& policy) {
  if (policy.attempts <= 1) {
    send(to, type, std::move(payload));
    return;
  }
  send(to, type, payload);
  auto alive = alive_;
  sim::Duration when = 0;
  for (int k = 1; k < policy.attempts; ++k) {
    const double factor = std::pow(policy.backoff, k - 1);
    when += jittered(
        static_cast<sim::Duration>(static_cast<double>(policy.base_delay) * factor),
        policy.jitter_frac);
    net_.simulator().schedule(when, [this, alive, to, type, payload] {
      if (!*alive || !running_) return;
      metrics_.add(ids_.blind_copies);
      send(to, type, payload);
    });
  }
}

void Node::start_as_seed() {
  AN_ENSURE_MSG(!running_, "node already started");
  running_ = true;
  joined_ = true;
  state_.init_as_seed();
  net_.attach(state_.self().addr, [this](const sim::NetMessage& m) { handle(m); });
  schedule_next_shuffle();
}

void Node::start_join(const std::string& bootstrap_addr) {
  AN_ENSURE_MSG(!running_, "node already started");
  running_ = true;
  net_.attach(state_.self().addr, [this](const sim::NetMessage& m) { handle(m); });
  wire::Writer w;
  encode_peer(w, state_.self());
  join_span_ = trace_begin("join", {});
  trace_attr(join_span_, "bootstrap", bootstrap_addr);
  CtxScope trace(*this, join_span_);
  // Bounded bootstrap: kJoinRetry.attempts transmissions, then give up for
  // good. The node stays attached (peers can still reach it) but never
  // starts shuffling — a half-joined zombie is worse than a visible failure.
  join_rpc_ = send_rpc(bootstrap_addr, MsgType::kJoinRequest, std::move(w).take(),
                       kJoinRetry, [this] {
                         if (joined_) return;
                         join_failed_ = true;
                         metrics_.add(ids_.join_failed);
                         trace_end_outcome(join_span_, "failed");
                         join_span_ = 0;
                       });
}

void Node::start_recovered(const RecoveredNode& rec) {
  AN_ENSURE_MSG(!running_, "node already started");
  state_.restore(rec);
  // Peer standing survives the crash: quarantines and eviction verdicts were
  // journaled, so a convicted cheater cannot launder itself by waiting for
  // us to reboot. (The leave entries that removed such peers from the
  // peerset are part of the restored history already.)
  for (const auto& s : rec.standing) {
    if (s.addr == state_.self().addr) continue;
    quarantined_.insert(s.addr);
    reported_leavers_.insert(s.addr);
    auto& record = accused_[s.addr];
    for (const auto& a : s.accusers) record.accusers.insert(a);
    record.evicted = record.evicted || s.evicted;
  }
  running_ = true;
  joined_ = true;
  metrics_.add(metrics_.counter("node.recovery.restarts"));
  metrics_.add(metrics_.counter("node.recovery.entries_replayed"),
               rec.entries.size());
  net_.attach(state_.self().addr, [this](const sim::NetMessage& m) { handle(m); });
  // Skip re-announcing the epoch peers already saw before the crash — but do
  // announce with want_reply so counterparts answer with *their* latest
  // seals and the catch-up fetches flow both ways.
  announced_epoch_ = state_.checkpoint() ? state_.checkpoint()->epoch : 0;
  if (durable() && state_.checkpoint()) {
    for (const auto& p : state_.peerset().sorted()) {
      if (quarantined_.contains(p.addr)) continue;
      send_checkpoint_announce(p.addr, /*want_reply=*/true);
    }
  }
  schedule_next_shuffle();
}

void Node::stop() {
  if (!running_) return;
  running_ = false;
  net_.detach(state_.self().addr);
}

std::vector<std::string> Node::quarantined_addrs() const {
  std::vector<std::string> out(quarantined_.begin(), quarantined_.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Node::evicted_addrs() const {
  std::vector<std::string> out;
  for (const auto& [addr, record] : accused_) {
    if (record.evicted) out.push_back(addr);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Node::stop_gracefully() {
  if (!running_) return;
  // Announce our own departure; recipients ping-verify (we will be gone by
  // the time the ping lands) and then record the leave.
  const auto [round, sig] = state_.make_leave_report(state_.self());
  wire::Writer w;
  encode_peer(w, state_.self());   // leaver = self
  encode_peer(w, state_.self());   // reporter = self
  w.u64(round);
  w.bytes(sig);
  const Bytes payload = std::move(w).take();
  for (const auto& p : state_.peerset().sorted()) {
    send(p.addr, MsgType::kLeaveNotice, payload);
  }
  stop();
}

void Node::handle(const sim::NetMessage& msg) {
  if (!running_) return;
  // Quarantined peers are cut off entirely; whatever they have to say, a
  // convicted cheater saying it is not evidence. (Their traffic must not
  // refresh last_rx_ either — the self-quarantine gate measures contact with
  // the honest network.)
  if (acct() && quarantined_.contains(msg.from)) {
    metrics_.add(metrics_.counter("acc.drop.quarantined"));
    return;
  }
  last_rx_ = net_.simulator().now();
  try {
    switch (static_cast<MsgType>(msg.type)) {
      case MsgType::kJoinRequest: on_join_request(msg); break;
      case MsgType::kJoinReply: on_join_reply(msg); break;
      case MsgType::kRoundQuery: on_round_query(msg); break;
      case MsgType::kRoundReply: on_round_reply(msg); break;
      case MsgType::kShuffleOffer: on_shuffle_offer(msg); break;
      case MsgType::kShuffleResponse: on_shuffle_response(msg); break;
      case MsgType::kShuffleReject: on_shuffle_reject(msg); break;
      case MsgType::kPing: on_ping(msg); break;
      case MsgType::kPong: on_pong(msg); break;
      case MsgType::kLeaveNotice: on_leave_notice(msg); break;
      case MsgType::kNeighborhoodQuery: on_neighborhood_query(msg); break;
      case MsgType::kNeighborhoodReply: on_neighborhood_reply(msg); break;
      case MsgType::kChannelRequest: on_channel_request(msg); break;
      case MsgType::kChannelAccept: on_channel_accept(msg); break;
      case MsgType::kChannelFinalize: on_channel_finalize(msg); break;
      case MsgType::kWitnessInvite: on_witness_invite(msg); break;
      case MsgType::kWitnessAck: on_witness_ack(msg); break;
      case MsgType::kDataRelay: on_data_relay(msg); break;
      case MsgType::kDataForward: on_data_forward(msg); break;
      case MsgType::kTestimonyQuery: on_testimony_query(msg); break;
      case MsgType::kTestimonyReply: on_testimony_reply(msg); break;
      case MsgType::kEntryQuery: on_entry_query(msg); break;
      case MsgType::kEntryReply: on_entry_reply(msg); break;
      case MsgType::kWitnessUpdate: on_witness_update(msg); break;
      case MsgType::kWitnessUpdateAck: on_witness_update_ack(msg); break;
      case MsgType::kAccusation: on_accusation(msg); break;
      case MsgType::kAccusationAck: on_accusation_ack(msg); break;
      case MsgType::kCheckpointAnnounce: on_checkpoint_announce(msg); break;
      case MsgType::kSegmentRequest: on_segment_request(msg); break;
      case MsgType::kSegmentData: on_segment_data(msg); break;
    }
  } catch (const wire::DecodeError&) {
    // Malformed traffic from a buggy/malicious peer: drop it.
    metrics_.add(ids_.verification_failures);
  }
  // A handler above may have committed entries and crossed the seal
  // threshold; broadcast the fresh checkpoint while the peerset that should
  // hear about it is still current.
  if (durable()) maybe_announce_checkpoint();
}

// ---------------------------------------------------------------------------
// Join.
// ---------------------------------------------------------------------------

void Node::on_join_request(const sim::NetMessage& msg) {
  wire::Reader r(msg.payload);
  const PeerId joiner = decode_peer(r);
  r.expect_done();
  if (joiner.addr != msg.from) return;
  SpanScope span(*this, "join.serve", msg.trace);

  // Entry stamp σ_bn(addr_i) plus a neighbor list the joiner samples from.
  const Bytes stamp = state_.signer().sign(join_stamp_payload(joiner.addr));
  std::vector<PeerId> neighbors = state_.peerset().sorted();
  neighbors.push_back(state_.self());

  wire::Writer w;
  encode_peer(w, state_.self());
  w.bytes(stamp);
  encode_peer_list(w, neighbors);
  send(msg.from, MsgType::kJoinReply, std::move(w).take());
}

void Node::on_join_reply(const sim::NetMessage& msg) {
  // join_failed_ is terminal: a reply that limps in after we gave up no
  // longer changes the node's fate (tests and operators already saw it).
  if (joined_ || join_failed_) return;
  wire::Reader r(msg.payload);
  const PeerId bootstrap = decode_peer(r);
  const Bytes stamp = r.bytes();
  const std::vector<PeerId> neighbors = decode_peer_list(r);
  r.expect_done();
  if (bootstrap.addr != msg.from) return;
  if (!engine_.verify(bootstrap.key, join_stamp_payload(state_.self().addr), stamp)) {
    metrics_.add(ids_.verification_failures);
    return;
  }

  // Verifiable initial sample: up to f nodes, VRF-seeded by the entry stamp
  // (the joiner cannot predict it before contacting the bootstrap).
  Peerset candidates(neighbors);
  candidates.erase(state_.self());
  const Draw draw =
      sampler().draw(state_.signer(), candidates, config_.protocol.max_peerset,
                     "an.join.sample", stamp);
  {
    SpanScope span(*this, "join.apply", msg.trace);
    span.attr("sampled", std::to_string(draw.sample.size()));
    state_.apply_join(bootstrap, stamp, draw.sample);
    joined_ = true;
    finish_rpc(join_rpc_);
    join_rpc_ = 0;
    schedule_next_shuffle();
  }
  trace_end_outcome(join_span_, "joined");
  join_span_ = 0;
}

// ---------------------------------------------------------------------------
// Shuffling.
// ---------------------------------------------------------------------------

void Node::schedule_next_shuffle() {
  const auto period = static_cast<double>(config_.shuffle_period);
  const double jitter = (rng_.uniform01() * 2.0 - 1.0) * kShuffleJitterFrac;
  const auto delay = static_cast<sim::Duration>(period * (1.0 + jitter));
  auto alive = alive_;
  net_.simulator().schedule(std::max<sim::Duration>(delay, 1), [this, alive] {
    if (!*alive || !running_) return;
    begin_shuffle();
    schedule_next_shuffle();
  });
}

void Node::begin_shuffle() {
  if (!joined_ || pending_.has_value() || adversary_.refuse_shuffles) return;

  // Adversary equivocation: on alternating initiations, present a doctored
  // history — a copy of the real proof suffix whose last shuffle entry admits
  // a fabricated peer. Entry signatures cover only the nonce, so the doctored
  // suffix passes inline verification; it is caught when two body-signed
  // exchanges show conflicting entries for the same round. The doctored claim
  // replays from ∅, so a checkpoint-anchored proof is left honest.
  std::optional<PendingShuffle::Doctored> doctored;
  if (adversary_.equivocate && (adv_initiations_++ % 2 == 1) &&
      adv_rng_.uniform01() < adversary_.attack_rate) {
    PendingShuffle::Doctored d;
    HistoryProof proof = make_history_proof(state_);
    if (!proof.anchor) d.suffix = std::move(proof.suffix);
    if (!d.suffix.empty() && d.suffix.back().kind != EntryKind::kLeave) {
      d.suffix.back().in.push_back(fabricated_peer(state_.self().addr));
      d.claimed = UpdateHistory::reconstruct(d.suffix).sorted();
      doctored = std::move(d);
    }
  }

  std::optional<PartnerChoice> choice;
  if (doctored) {
    // The partner draw must replay over the *claimed* set or the proofs give
    // the lie away immediately. If the VRF lands on the fabricated peer
    // (nobody answers there), fall back to an honest round.
    const auto draw = sampler().draw_one(state_.signer(), Peerset(doctored->claimed),
                                         kPartnerDomain, round_nonce(state_.round()));
    if (draw && !draw->sample.empty() &&
        state_.peerset().contains(draw->sample.front())) {
      choice = PartnerChoice{draw->sample.front(), draw->proofs};
    } else {
      doctored.reset();
    }
  }
  if (!choice) choice = choose_partner(state_);
  if (!choice) return;  // empty peerset
  if (acct() && quarantined_.contains(choice->partner.addr)) {
    // Belt-and-braces (quarantine already removed the peer from the
    // peerset): never court a convicted cheater. Burn the round for a fresh
    // draw next period.
    state_.skip_round();
    return;
  }
  metrics_.add(ids_.shuffles_initiated);
  PendingShuffle p;
  p.partner = choice->partner;
  p.choice = *choice;
  p.round_at_start = state_.round();
  p.epoch = ++shuffle_epoch_;
  p.doctored = std::move(doctored);
  p.span = trace_begin("shuffle", {});
  trace_attr(p.span, "partner", choice->partner.addr);
  trace_attr(p.span, "round", std::to_string(state_.round()));
  pending_ = std::move(p);

  wire::Writer w;
  encode_peer(w, state_.self());
  CtxScope trace(*this, pending_->span);
  pending_->query_rpc = send_rpc(choice->partner.addr, MsgType::kRoundQuery,
                                 std::move(w).take(), config_.query_retry);
  schedule_shuffle_timeout();
}

void Node::schedule_shuffle_timeout() {
  // (Re)arms the abort deadline for the current exchange leg. Each leg gets
  // a fresh token, so an earlier timer that fires after progress was made is
  // a no-op instead of a spurious abort.
  if (!pending_) return;
  pending_->timeout_token = ++timeout_seq_;
  const auto token = pending_->timeout_token;
  const auto epoch = pending_->epoch;
  auto alive = alive_;
  net_.simulator().schedule(config_.rpc_timeout, [this, alive, epoch, token] {
    if (!*alive || !running_) return;
    if (pending_ && pending_->epoch == epoch && pending_->timeout_token == token) {
      abort_shuffle(/*partner_suspect=*/true);
    }
  });
}

void Node::abort_shuffle(bool partner_suspect) {
  if (!pending_) return;
  finish_rpc(pending_->query_rpc);
  finish_rpc(pending_->offer_rpc);
  trace_end_outcome(pending_->span, "aborted");
  metrics_.add(ids_.shuffle_failures);
  const PeerId partner = pending_->partner;
  pending_.reset();
  ++shuffle_epoch_;
  // Burn the round so the next initiation draws a fresh partner.
  state_.skip_round();
  if (partner_suspect) {
    const int fails = ++partner_failures_.at_or_insert(partner.addr);
    if (fails >= kFailuresBeforeLeaveCheck) {
      partner_failures_.erase(partner.addr);
      suspect_peer(partner);
    }
  }
}

void Node::on_round_query(const sim::NetMessage& msg) {
  if (!joined_ || adversary_.refuse_shuffles) return;
  wire::Reader r(msg.payload);
  const PeerId initiator = decode_peer(r);
  r.expect_done();
  if (initiator.addr != msg.from) return;
  SpanScope span(*this, "shuffle.round_query", msg.trace);
  wire::Writer w;
  encode_peer(w, state_.self());
  w.u64(state_.round());
  send(msg.from, MsgType::kRoundReply, std::move(w).take());
}

void Node::on_round_reply(const sim::NetMessage& msg) {
  if (!pending_ || pending_->offer_sent || msg.from != pending_->partner.addr) return;
  wire::Reader r(msg.payload);
  const PeerId responder = decode_peer(r);
  const Round responder_round = r.u64();
  r.expect_done();
  if (!(responder == pending_->partner)) return;
  finish_rpc(pending_->query_rpc);
  pending_->query_rpc = 0;
  if (state_.round() != pending_->round_at_start) {
    // A leave report advanced our round since the partner draw; the proofs
    // no longer match the round we would offer. Quietly retry next period.
    trace_end_outcome(pending_->span, "stale_round");
    pending_.reset();
    ++shuffle_epoch_;
    return;
  }
  CtxScope trace(*this, pending_->span);

  {
    obs::ScopedTimer t(&metrics_, ids_.t_make_offer);
    pending_->offer = make_offer(state_, pending_->choice, responder_round);
  }
  if (pending_->doctored) {
    // Re-dress the offer with the doctored history: identity and round
    // signature stay real, but claim, suffix, and sample all derive from the
    // forged set (internally consistent, so it verifies inline).
    ShuffleOffer& o = pending_->offer;
    o.claimed_peerset = pending_->doctored->claimed;
    o.history_suffix = pending_->doctored->suffix;
    const Peerset claimed(pending_->doctored->claimed);
    const Draw draw = sampler().draw(state_.signer(), claimed.minus({pending_->partner}),
                                     config_.protocol.shuffle_length - 1, kSampleDomain,
                                     round_nonce(responder_round));
    o.sample = draw.sample;
    o.sample_proofs = draw.proofs;
    metrics_.add(metrics_.counter("adv.attack.equivocate"));
  }
  const OfferAttacks fired = apply_offer_attacks(
      adversary_, pending_->offer, state_.self(), pending_->partner, adv_rng_);
  if (fired.bias_sample) metrics_.add(metrics_.counter("adv.attack.bias_sample"));
  if (fired.forge_history) metrics_.add(metrics_.counter("adv.attack.forge_history"));
  if (fired.truncate_history) {
    metrics_.add(metrics_.counter("adv.attack.truncate_history"));
  }
  Bytes core = pending_->offer.encode_core();
  if (acct()) {
    // Body signature comes last: the adversary signs what it actually sends,
    // which is exactly what turns its cheating into transferable evidence.
    pending_->offer.body_sig =
        state_.signer().sign(offer_body_payload(core, pending_->partner));
  }
  pending_->offer_wire = signed_wire(std::move(core), pending_->offer.body_sig);
  pending_->offer_wire.shrink_to_fit();  // may outlive the exchange as evidence
  pending_->offer_sent = true;
  metrics_.add(ids_.history_suffix_bytes, pending_->offer_wire.size());
  pending_->offer_rpc = send_rpc(msg.from, MsgType::kShuffleOffer,
                                 pending_->offer_wire, config_.query_retry);
  schedule_shuffle_timeout();
}

void Node::on_shuffle_offer(const sim::NetMessage& msg) {
  auto reject = [&](std::uint8_t code) {
    wire::Writer w;
    w.u8(code);  // 1 = busy, 2 = verification failed
    send(msg.from, MsgType::kShuffleReject, std::move(w).take());
  };
  if (!joined_ || adversary_.refuse_shuffles) return;
  const ShuffleOffer offer = ShuffleOffer::decode(msg.payload);
  if (offer.initiator.addr != msg.from) return;
  SpanScope span(*this, "shuffle.respond", msg.trace);

  // Replay defense: an initiator's offered round must move forward. The one
  // exception is a retransmission of the exact offer we already committed —
  // an at-least-once initiator may have missed our response, so we resend
  // the cached one instead of branding it a replay (which would make the
  // initiator abort and suspect us).
  const Round* floor = last_seen_initiator_round_.find(offer.initiator.addr);
  if (floor != nullptr && offer.initiator_round <= *floor) {
    if (offer.initiator_round == *floor) {
      if (const auto* cached = response_cache_.find(offer.initiator.addr);
          cached != nullptr && cached->first == offer.initiator_round) {
        span.attr("outcome", "resend_cached");
        send(msg.from, MsgType::kShuffleResponse, cached->second);
        return;
      }
    }
    metrics_.add(ids_.shuffles_rejected);
    span.attr("outcome", "rejected_replay");
    reject(2);
    return;
  }
  if (pending_.has_value()) {
    span.attr("outcome", "busy");
    reject(1);
    return;
  }

  // Benign race: our round advanced after we handed out the nonce (we
  // shuffled or recorded a leave in between). Not a protocol violation.
  if (offer.responder_round != state_.round()) {
    span.attr("outcome", "stale_round");
    reject(1);
    return;
  }

  if (acct()) {
    // Unsigned or mis-signed offers carry no accountability and are refused
    // outright — everything past this point is attributable to the sender.
    if (const VerifyError be = check_offer_body_sig(offer, state_.self(), engine_);
        be != VerifyError::kNone) {
      metrics_.add(ids_.shuffles_rejected);
      metrics_.add(ids_.verification_failures);
      metrics_.add(metrics_.counter(std::string("node.reject.") + error_tag(be)));
      span.attr("outcome", "bad_body_sig");
      reject(2);
      return;
    }
  }

  VerifyResult v;
  {
    obs::ScopedTimer t(&metrics_, ids_.t_verify_offer);
    v = verify_offer(offer, state_, state_.round(), engine_);
  }
  if (!v) {
    metrics_.add(ids_.shuffles_rejected);
    metrics_.add(ids_.verification_failures);
    metrics_.add(metrics_.counter(std::string("node.reject.") + error_tag(v.code)));
    span.attr("outcome", "verify_failed");
    span.attr("reject", error_tag(v.code));
    if (acct()) {
      // The offer is body-signed yet fails a check an honest node can never
      // fail (the only stateful check — the round-nonce echo — was handled
      // above as benign). Package it as transferable evidence.
      Accusation acc;
      acc.kind = AccusationKind::kInvalidOffer;
      acc.accused = offer.initiator;
      ExchangeItem item;
      item.shape = 1;
      item.offer = msg.payload;
      item.counterpart = state_.self();
      acc.items.push_back(std::move(item));
      raise_accusation(std::move(acc));
    }
    reject(2);
    return;
  }
  if (acct()) {
    ExchangeItem item;
    item.shape = 1;
    item.offer = msg.payload;
    item.counterpart = state_.self();
    note_exchange_entries(offer.initiator, offer.history_suffix, std::move(item));
    if (quarantined_.contains(msg.from)) {
      // The cross-check just convicted the initiator (history equivocation):
      // do not commit a shuffle against the forked history.
      span.attr("outcome", "equivocation");
      reject(2);
      return;
    }
  }
  last_seen_initiator_round_.put(offer.initiator.addr, offer.initiator_round);
  partner_failures_.erase(offer.initiator.addr);

  ShuffleResponse resp;
  {
    obs::ScopedTimer t(&metrics_, ids_.t_make_response);
    resp = make_response_and_commit(state_, offer);
  }
  Bytes core = resp.encode_core();
  if (acct()) {
    resp.body_sig = state_.signer().sign(response_body_payload(msg.payload, core));
  }
  purge_reported_leavers();
  metrics_.add(ids_.shuffles_responded);
  Bytes payload = signed_wire(std::move(core), resp.body_sig);
  metrics_.add(ids_.history_suffix_bytes, payload.size());
  // The cache keeps an exact-size copy; the sent buffer is transient.
  response_cache_.put(offer.initiator.addr, {offer.initiator_round, payload});
  span.attr("outcome", "committed");
  send(msg.from, MsgType::kShuffleResponse, std::move(payload));
}

void Node::on_shuffle_response(const sim::NetMessage& msg) {
  if (!pending_ || !pending_->offer_sent || msg.from != pending_->partner.addr) return;
  finish_rpc(pending_->offer_rpc);
  pending_->offer_rpc = 0;
  CtxScope trace(*this, pending_->span);
  const ShuffleResponse resp = ShuffleResponse::decode(msg.payload);
  if (acct()) {
    // Exact bytes we sent (including our body signature) — the responder's
    // body signature binds them, making the pair verify as a unit.
    if (const VerifyError be =
            check_response_body_sig(resp, pending_->offer_wire, engine_);
        be != VerifyError::kNone) {
      metrics_.add(ids_.verification_failures);
      metrics_.add(metrics_.counter(std::string("node.reject.") + error_tag(be)));
      abort_shuffle(/*partner_suspect=*/true);
      return;
    }
  }
  VerifyResult v;
  {
    obs::ScopedTimer t(&metrics_, ids_.t_verify_response);
    v = verify_response(resp, state_, pending_->offer, engine_);
  }
  if (!v) {
    metrics_.add(ids_.verification_failures);
    metrics_.add(metrics_.counter(std::string("node.reject.") + error_tag(v.code)));
    if (acct()) {
      // Body-signed response failing a static check: transferable evidence
      // (the signature binds it to our exact offer, so replaying the checks
      // needs no trust in us).
      Accusation acc;
      acc.kind = AccusationKind::kInvalidResponse;
      acc.accused = resp.responder;
      ExchangeItem item;
      item.shape = 2;
      item.offer = std::move(pending_->offer_wire);  // the exchange ends here
      item.response = msg.payload;
      acc.items.push_back(std::move(item));
      raise_accusation(std::move(acc));
    }
    abort_shuffle(/*partner_suspect=*/true);
    return;
  }
  if (acct()) {
    ExchangeItem item;
    item.shape = 2;
    item.offer = std::move(pending_->offer_wire);  // the exchange ends here
    item.response = msg.payload;
    note_exchange_entries(resp.responder, resp.history_suffix, std::move(item));
    if (!pending_ || quarantined_.contains(msg.from)) {
      // The cross-check convicted the responder (and already aborted the
      // exchange): do not commit against the forked history.
      abort_shuffle(/*partner_suspect=*/false);
      return;
    }
  }
  apply_offer_outcome(state_, pending_->offer, resp);
  purge_reported_leavers();
  metrics_.add(ids_.shuffles_completed);
  partner_failures_.erase(msg.from);
  trace_end_outcome(pending_->span, "completed");
  pending_.reset();
  ++shuffle_epoch_;
}

void Node::on_shuffle_reject(const sim::NetMessage& msg) {
  if (!pending_ || msg.from != pending_->partner.addr) return;
  wire::Reader r(msg.payload);
  const std::uint8_t code = r.u8();
  // Code 1 is the benign busy/round-mismatch refusal; it is protocol
  // behavior, not a liveness failure, so liveness metrics can subtract it.
  if (code != 2) metrics_.add(metrics_.counter("node.shuffles_rejected_benign"));
  abort_shuffle(/*partner_suspect=*/code == 2);
}

// ---------------------------------------------------------------------------
// Leave detection.
// ---------------------------------------------------------------------------

void Node::purge_reported_leavers() {
  // Shuffling can re-introduce a peer we already know to be gone (other
  // nodes still circulate it until they notice). Re-record the leave so our
  // reconstruction stays exact and the zombie peer is dropped again.
  std::vector<PeerId> zombies;
  for (const auto& p : state_.peerset().sorted()) {
    if (reported_leavers_.contains(p.addr)) zombies.push_back(p);
  }
  for (const auto& z : zombies) {
    const auto [round, sig] = state_.make_leave_report(z);
    state_.apply_leave_report(state_.self(), round, sig, z);
  }
}

void Node::suspect_peer(const PeerId& peer) {
  if (reported_leavers_.contains(peer.addr) || ping_probes_.contains(peer.addr)) return;
  PingProbe probe;
  probe.target = peer;
  ping_probes_[peer.addr] = std::move(probe);
  // Blind redundancy: under loss a single lost ping (or pong) would evict a
  // live peer; extra copies make the probe see through the noise.
  send_blind(peer.addr, MsgType::kPing, {}, config_.blind_retry);

  auto alive = alive_;
  const std::string addr = peer.addr;
  net_.simulator().schedule(config_.rpc_timeout, [this, alive, addr] {
    if (!*alive || !running_) return;
    const auto it = ping_probes_.find(addr);
    if (it == ping_probes_.end()) return;  // pong arrived
    const PingProbe probe = it->second;
    ping_probes_.erase(it);
    reported_leavers_.insert(addr);
    if (probe.from_notice) {
      // Confirmed someone else's report: record it as received.
      state_.apply_leave_report(probe.reporter, probe.reporter_round, probe.report_sig,
                                probe.target);
      trigger_witness_repair(addr);
      return;
    }
    // We are the reporter: log, then inform our peers (Sec. IV-A, Leaving).
    metrics_.add(ids_.leaves_reported);
    const auto [round, sig] = state_.make_leave_report(probe.target);
    wire::Writer w;
    encode_peer(w, probe.target);
    encode_peer(w, state_.self());
    w.u64(round);
    w.bytes(sig);
    const Bytes payload = std::move(w).take();
    for (const auto& p : state_.peerset().sorted()) {
      if (!(p == probe.target)) send(p.addr, MsgType::kLeaveNotice, payload);
    }
    state_.apply_leave_report(state_.self(), round, sig, probe.target);
    trigger_witness_repair(addr);
  });
}

void Node::on_leave_notice(const sim::NetMessage& msg) {
  wire::Reader r(msg.payload);
  const PeerId leaver = decode_peer(r);
  const PeerId reporter = decode_peer(r);
  const Round reporter_round = r.u64();
  const Bytes sig = r.bytes();
  r.expect_done();
  if (leaver == state_.self()) return;
  if (reported_leavers_.contains(leaver.addr) || ping_probes_.contains(leaver.addr)) return;
  if (!engine_.verify(reporter.key, leave_payload(reporter_round, leaver.addr), sig)) {
    metrics_.add(ids_.verification_failures);
    return;
  }
  // Independent liveness check before trusting the report.
  PingProbe probe;
  probe.target = leaver;
  probe.from_notice = true;
  probe.reporter = reporter;
  probe.reporter_round = reporter_round;
  probe.report_sig = sig;
  ping_probes_[leaver.addr] = std::move(probe);
  send_blind(leaver.addr, MsgType::kPing, {}, config_.blind_retry);

  auto alive = alive_;
  const std::string addr = leaver.addr;
  net_.simulator().schedule(config_.rpc_timeout, [this, alive, addr] {
    if (!*alive || !running_) return;
    const auto it = ping_probes_.find(addr);
    if (it == ping_probes_.end()) return;
    const PingProbe probe = it->second;
    ping_probes_.erase(it);
    reported_leavers_.insert(addr);
    state_.apply_leave_report(probe.reporter, probe.reporter_round, probe.report_sig,
                              probe.target);
    trigger_witness_repair(addr);
  });
}

void Node::on_ping(const sim::NetMessage& msg) {
  send(msg.from, MsgType::kPong, {});
}

void Node::on_pong(const sim::NetMessage& msg) {
  ping_probes_.erase(msg.from);
  partner_failures_.erase(msg.from);
}

// ---------------------------------------------------------------------------
// Neighborhood flooding.
// ---------------------------------------------------------------------------

void Node::discover_neighborhood(std::function<void(std::vector<PeerId>)> done) {
  if (probe_.has_value()) {
    // One flood at a time; queue the request and reuse the machinery.
    probe_queue_.push_back(std::move(done));
    return;
  }
  NeighborhoodProbe probe;
  probe.query_id = (fnv1a(state_.self().addr) << 16) | next_query_id_++;
  probe.done = std::move(done);
  probe_ = std::move(probe);
  seen_queries_.insert(probe_->query_id);

  wire::Writer w;
  w.u64(probe_->query_id);
  encode_peer(w, state_.self());
  w.varint(config_.depth);
  const Bytes payload = std::move(w).take();
  for (const auto& p : state_.peerset().sorted()) {
    send(p.addr, MsgType::kNeighborhoodQuery, payload);
  }

  auto alive = alive_;
  const auto wait = kNeighborhoodWait *
                    static_cast<sim::Duration>(std::max<std::size_t>(config_.depth, 1));
  net_.simulator().schedule(wait, [this, alive] {
    if (!*alive || !running_ || !probe_) return;
    std::vector<PeerId> found;
    found.reserve(probe_->found.size());
    for (const auto& p : probe_->found) {
      // Quarantined peers must not surface as witness candidates.
      if (!acct() || !quarantined_.contains(p.addr)) found.push_back(p);
    }
    auto done = std::move(probe_->done);
    probe_.reset();
    done(std::move(found));
    if (!probe_queue_.empty()) {
      auto next = std::move(probe_queue_.front());
      probe_queue_.erase(probe_queue_.begin());
      discover_neighborhood(std::move(next));
    }
  });
}

void Node::on_neighborhood_query(const sim::NetMessage& msg) {
  wire::Reader r(msg.payload);
  const std::uint64_t query_id = r.u64();
  const PeerId origin = decode_peer(r);
  const std::uint64_t ttl = r.varint();
  r.expect_done();
  if (origin == state_.self()) return;
  if (!seen_queries_.insert(query_id)) return;  // already served

  wire::Writer reply;
  reply.u64(query_id);
  encode_peer(reply, state_.self());
  send(origin.addr, MsgType::kNeighborhoodReply, std::move(reply).take());

  if (ttl > 1) {
    wire::Writer fwd;
    fwd.u64(query_id);
    encode_peer(fwd, origin);
    fwd.varint(ttl - 1);
    const Bytes payload = std::move(fwd).take();
    for (const auto& p : state_.peerset().sorted()) {
      if (p.addr != msg.from && !(p == origin)) {
        send(p.addr, MsgType::kNeighborhoodQuery, payload);
      }
    }
  }
}

void Node::on_neighborhood_reply(const sim::NetMessage& msg) {
  if (!probe_) return;
  wire::Reader r(msg.payload);
  const std::uint64_t query_id = r.u64();
  const PeerId responder = decode_peer(r);
  r.expect_done();
  if (query_id != probe_->query_id) return;
  if (responder.addr != msg.from || responder == state_.self()) return;
  probe_->found.insert(responder);
}

// ---------------------------------------------------------------------------
// Channels (witness formation + witnessed relay).
// ---------------------------------------------------------------------------

void Node::open_channel(const std::string& consumer_addr, ChannelReadyCallback on_ready) {
  AN_ENSURE_MSG(joined_, "open_channel before join completes");
  const std::uint64_t id = (fnv1a(state_.self().addr) << 20) | next_channel_id_++;
  ProducerChannel ch;
  ch.id = id;
  ch.consumer.addr = consumer_addr;
  ch.on_ready = std::move(on_ready);
  ch.span = trace_begin("channel", {});
  trace_attr(ch.span, "consumer", consumer_addr);
  trace_attr(ch.span, "channel", std::to_string(id));
  producer_channels_[id] = std::move(ch);

  // Setup deadline: discovery + exchange + invites must complete within a
  // bounded window or the channel fails (e.g. a witness died mid-setup).
  auto alive = alive_;
  net_.simulator().schedule(
      kNeighborhoodWait * 4 + config_.rpc_timeout * 4, [this, alive, id] {
        if (!*alive || !running_) return;
        const auto it = producer_channels_.find(id);
        if (it == producer_channels_.end() || it->second.ready) return;
        finish_channel_rpcs(it->second);
        trace_end_outcome(it->second.span, "timed_out");
        auto cb = std::move(it->second.on_ready);
        producer_channels_.erase(it);
        if (cb) cb(id, false);
      });

  discover_neighborhood([this, id, consumer_addr](std::vector<PeerId> found) {
    auto it = producer_channels_.find(id);
    if (it == producer_channels_.end()) return;
    it->second.my_neighborhood = std::move(found);
    it->second.my_round = state_.round();
    wire::Writer w;
    w.u64(id);
    encode_peer(w, state_.self());
    w.u64(it->second.my_round);
    encode_peer_list(w, it->second.my_neighborhood);
    CtxScope trace(*this, it->second.span);
    it->second.request_rpc = send_rpc(consumer_addr, MsgType::kChannelRequest,
                                      std::move(w).take(), config_.channel_retry);
  });
}

void Node::finish_channel_rpcs(ProducerChannel& ch) {
  finish_rpc(ch.request_rpc);
  ch.request_rpc = 0;
  for (const auto& [addr, rpc] : ch.invite_rpcs) finish_rpc(rpc);
  ch.invite_rpcs.clear();
}

void Node::on_channel_request(const sim::NetMessage& msg) {
  wire::Reader r(msg.payload);
  const std::uint64_t id = r.u64();
  const PeerId producer = decode_peer(r);
  const Round producer_round = r.u64();
  std::vector<PeerId> producer_nbh = decode_peer_list(r);
  r.expect_done();
  if (producer.addr != msg.from || !joined_) return;

  if (const auto dup = consumer_channels_.find(id); dup != consumer_channels_.end()) {
    // Retransmitted request (the producer may have missed our accept): the
    // draw is already committed, so resend it verbatim rather than redraw.
    if (dup->second.producer.addr == msg.from && !dup->second.accept_payload.empty()) {
      send(msg.from, MsgType::kChannelAccept, dup->second.accept_payload);
    }
    return;
  }

  ConsumerChannel ch;
  ch.id = id;
  ch.producer = producer;
  ch.producer_round = producer_round;
  ch.producer_neighborhood = std::move(producer_nbh);
  consumer_channels_[id] = std::move(ch);

  // Discovery is asynchronous; carry the request's causal context into the
  // callback so the accept leg stays on the producer's channel trace.
  const obs::TraceContext req_ctx = msg.trace;
  discover_neighborhood([this, id, producer, req_ctx](std::vector<PeerId> mine) {
    auto it = consumer_channels_.find(id);
    if (it == consumer_channels_.end()) return;
    ConsumerChannel& ch = it->second;
    ch.my_neighborhood = std::move(mine);
    ch.my_round = state_.round();
    const auto plan = plan_witness_group(ch.producer_neighborhood, ch.my_neighborhood,
                                         producer, state_.self(), config_.witness_count);
    const Bytes nonce =
        channel_nonce(producer, ch.producer_round, state_.self(), ch.my_round);
    const Draw draw = draw_witnesses(sampler(), state_.signer(),
                                     plan.candidates_consumer, plan.quota_consumer,
                                     nonce);
    ch.witnesses = draw.sample;  // producer half is merged at finalize
    wire::Writer w;
    w.u64(id);
    encode_peer(w, state_.self());
    w.u64(ch.my_round);
    encode_peer_list(w, ch.my_neighborhood);
    encode_peer_list(w, draw.sample);
    encode_bytes_list(w, draw.proofs);
    ch.accept_payload = std::move(w).take();
    SpanScope span(*this, "channel.accept", req_ctx);
    span.attr("witness_draw", std::to_string(ch.witnesses.size()));
    send(producer.addr, MsgType::kChannelAccept, ch.accept_payload);
  });
}

void Node::on_channel_accept(const sim::NetMessage& msg) {
  wire::Reader r(msg.payload);
  const std::uint64_t id = r.u64();
  const PeerId consumer = decode_peer(r);
  const Round consumer_round = r.u64();
  const std::vector<PeerId> consumer_nbh = decode_peer_list(r);
  const std::vector<PeerId> consumer_draw = decode_peer_list(r);
  const std::vector<Bytes> consumer_proofs = decode_bytes_list(r);
  r.expect_done();

  const auto it = producer_channels_.find(id);
  if (it == producer_channels_.end() || consumer.addr != msg.from) return;
  ProducerChannel& ch = it->second;
  if (ch.accepted) {
    // Duplicate accept: our finalize may have been lost — resend it. The
    // draw must not be redone (the witnesses are already committed).
    if (!ch.finalize_payload.empty()) {
      send(msg.from, MsgType::kChannelFinalize, ch.finalize_payload);
    }
    return;
  }
  finish_rpc(ch.request_rpc);
  ch.request_rpc = 0;
  ch.consumer = consumer;
  ch.consumer_round = consumer_round;
  SpanScope span(*this, "channel.finalize", msg.trace);

  const auto plan = plan_witness_group(ch.my_neighborhood, consumer_nbh, state_.self(),
                                       consumer, config_.witness_count);
  const Bytes nonce = channel_nonce(state_.self(), ch.my_round, consumer, consumer_round);
  if (const auto v = verify_witnesses(sampler(), engine_, consumer.key,
                                      plan.candidates_consumer, plan.quota_consumer,
                                      nonce, consumer_proofs, consumer_draw);
      !v) {
    metrics_.add(ids_.verification_failures);
    span.attr("outcome", "verify_failed");
    trace_end_outcome(ch.span, "failed");
    if (ch.on_ready) ch.on_ready(id, false);
    producer_channels_.erase(it);
    return;
  }
  ch.accepted = true;
  const Draw my_draw = draw_witnesses(sampler(), state_.signer(),
                                      plan.candidates_producer, plan.quota_producer,
                                      nonce);
  ch.witnesses = merge_witnesses(my_draw.sample, consumer_draw);

  // Tell the consumer our half of the draw (it re-verifies symmetrically).
  wire::Writer w;
  w.u64(id);
  encode_peer_list(w, my_draw.sample);
  encode_bytes_list(w, my_draw.proofs);
  encode_peer_list(w, ch.my_neighborhood);
  w.u64(ch.my_round);
  ch.finalize_payload = std::move(w).take();
  send_blind(consumer.addr, MsgType::kChannelFinalize, ch.finalize_payload,
             config_.blind_retry);

  // Invite every witness.
  wire::Writer inv;
  inv.u64(id);
  encode_peer(inv, state_.self());
  encode_peer(inv, consumer);
  const Bytes invite = std::move(inv).take();
  for (const auto& w_id : ch.witnesses) {
    ch.invite_rpcs[w_id.addr] =
        send_rpc(w_id.addr, MsgType::kWitnessInvite, invite, config_.channel_retry);
  }
  if (ch.witnesses.empty() && ch.on_ready) {
    trace_end_outcome(ch.span, "no_witnesses");
    ch.on_ready(id, false);
    producer_channels_.erase(it);
  }
}

void Node::on_channel_finalize(const sim::NetMessage& msg) {
  wire::Reader r(msg.payload);
  const std::uint64_t id = r.u64();
  const std::vector<PeerId> producer_draw = decode_peer_list(r);
  const std::vector<Bytes> producer_proofs = decode_bytes_list(r);
  const std::vector<PeerId> producer_nbh = decode_peer_list(r);
  const Round producer_round = r.u64();
  r.expect_done();

  const auto it = consumer_channels_.find(id);
  if (it == consumer_channels_.end() || it->second.producer.addr != msg.from) return;
  ConsumerChannel& ch = it->second;
  if (ch.ready) return;  // duplicate finalize: the merge already happened
  SpanScope span(*this, "channel.apply", msg.trace);

  // The producer's neighborhood must match what it sent at request time
  // (otherwise it could shop for a candidate set after seeing our draw).
  if (producer_nbh != ch.producer_neighborhood || producer_round != ch.producer_round) {
    metrics_.add(ids_.verification_failures);
    consumer_channels_.erase(it);
    return;
  }
  const auto plan = plan_witness_group(ch.producer_neighborhood, ch.my_neighborhood,
                                       ch.producer, state_.self(), config_.witness_count);
  const Bytes nonce =
      channel_nonce(ch.producer, ch.producer_round, state_.self(), ch.my_round);
  if (const auto v = verify_witnesses(sampler(), engine_, ch.producer.key,
                                      plan.candidates_producer, plan.quota_producer,
                                      nonce, producer_proofs, producer_draw);
      !v) {
    metrics_.add(ids_.verification_failures);
    consumer_channels_.erase(it);
    return;
  }
  ch.witnesses = merge_witnesses(producer_draw, ch.witnesses);
  ch.ready = true;
  span.attr("witnesses", std::to_string(ch.witnesses.size()));
}

void Node::on_witness_invite(const sim::NetMessage& msg) {
  wire::Reader r(msg.payload);
  const std::uint64_t id = r.u64();
  const PeerId producer = decode_peer(r);
  const PeerId consumer = decode_peer(r);
  r.expect_done();
  if (producer.addr != msg.from) return;
  SpanScope span(*this, "channel.witness_ack", msg.trace);
  relay_duties_[id] = RelayDuty{producer, consumer};
  wire::Writer w;
  w.u64(id);
  if (acct()) {
    // Signed acceptance of the duty, binding channel, producer, consumer and
    // ourselves. The consumer gets a copy too: it is the party that packages
    // witness accusations, and the duty signature is their anchor.
    w.bytes(state_.signer().sign(
        wduty_payload(id, producer, consumer.addr, state_.self().addr)));
    const Bytes payload = std::move(w).take();
    send(msg.from, MsgType::kWitnessAck, payload);
    send(consumer.addr, MsgType::kWitnessAck, payload);
    return;
  }
  send(msg.from, MsgType::kWitnessAck, std::move(w).take());
}

void Node::on_witness_ack(const sim::NetMessage& msg) {
  wire::Reader r(msg.payload);
  const std::uint64_t id = r.u64();
  Bytes duty_sig;
  if (!r.done()) duty_sig = r.bytes();
  r.expect_done();
  const auto it = producer_channels_.find(id);
  if (it == producer_channels_.end()) {
    // Consumer-side copy (accountability mode): file the duty signature for
    // later accusation packaging. Verified lazily — a bogus one just makes
    // the eventual accusation unprovable, which self-verification catches.
    if (acct() && !duty_sig.empty()) {
      if (const auto cit = consumer_channels_.find(id); cit != consumer_channels_.end()) {
        cit->second.duty_sigs.emplace(msg.from, std::move(duty_sig));
      }
    }
    return;
  }
  ProducerChannel& ch = it->second;
  if (const auto rit = ch.invite_rpcs.find(msg.from); rit != ch.invite_rpcs.end()) {
    finish_rpc(rit->second);
    ch.invite_rpcs.erase(rit);
  }
  if (ch.ready) return;
  // Count each witness at most once, and only actual witnesses — a
  // duplicated (or forged) ack must not push the channel to ready early.
  const bool is_witness =
      std::any_of(ch.witnesses.begin(), ch.witnesses.end(),
                  [&](const PeerId& w) { return w.addr == msg.from; });
  if (!is_witness) return;
  if (!ch.acked.insert(msg.from).second) return;
  if (ch.acked.size() >= ch.witnesses.size()) {
    ch.ready = true;
    trace_end_outcome(ch.span, "ready");
    schedule_witness_health();
    if (ch.on_ready) ch.on_ready(id, true);
  }
}

void Node::send_data(std::uint64_t channel_id, Bytes payload) {
  const auto it = producer_channels_.find(channel_id);
  AN_ENSURE_MSG(it != producer_channels_.end(), "unknown channel");
  AN_ENSURE_MSG(it->second.ready, "channel not ready");
  ProducerChannel& ch = it->second;
  const std::uint64_t seq = ch.next_seq++;
  const std::uint64_t relay_span = trace_begin("relay", {});
  trace_attr(relay_span, "channel", std::to_string(channel_id));
  trace_attr(relay_span, "seq", std::to_string(seq));
  CtxScope trace(*this, relay_span);
  wire::Writer w;
  w.u64(channel_id);
  w.u64(seq);
  w.bytes(payload);
  if (acct()) {
    // Relay header: binds (channel, seq, digest) under the producer's key,
    // so witnesses can only relay what we actually sent — and we can only
    // disown what we actually never sent.
    w.bytes(state_.signer().sign(
        relay_header_payload(channel_id, seq, digest_of(payload))));
  }
  const Bytes msg = std::move(w).take();
  for (const auto& witness : ch.witnesses) {
    send_blind(witness.addr, MsgType::kDataRelay, msg, config_.blind_retry);
  }
  // The produce leg ends here; witness/consumer legs extend the same trace.
  trace_end(relay_span);
}

void Node::on_data_relay(const sim::NetMessage& msg) {
  wire::Reader r(msg.payload);
  const std::uint64_t id = r.u64();
  const std::uint64_t seq = r.u64();
  Bytes payload = r.bytes();
  Bytes header_sig;
  if (!r.done()) header_sig = r.bytes();
  r.expect_done();
  const auto it = relay_duties_.find(id);
  if (it == relay_duties_.end() || it->second.producer.addr != msg.from) return;
  SpanScope span(*this, "relay.forward", msg.trace);
  span.attr("seq", std::to_string(seq));

  if (acct()) {
    // An unattributable relay (no valid producer header) never enters the
    // evidence log: it is exactly the hook a framing producer would use to
    // make an honest witness testify to bytes the producer later disowns.
    if (header_sig.empty() ||
        !engine_.verify(it->second.producer.key,
                        relay_header_payload(id, seq, digest_of(payload)),
                        header_sig)) {
      metrics_.add(metrics_.counter("acc.relay.bad_header"));
      span.attr("outcome", "bad_header");
      return;
    }
  }

  // A duplicated relay (network dup or producer redundancy) must not log a
  // second evidence record or double-forward: one relay per (channel, seq).
  const std::string dedup_key = std::to_string(id) + ":" + std::to_string(seq);
  if (!relayed_keys_.insert(dedup_key)) return;

  // In accountability mode the first record is final even if the bounded
  // dedup set has forgotten the sequence — re-recording would let a
  // double-sending producer manufacture a "self-contradicting" witness.
  if (acct() && evidence_.lookup(id, seq)) return;

  // Witness duty: log evidence, then relay 1 hop to the consumer.
  Bytes logged = payload;
  if (adversary_.lie_in_testimony) {
    logged = bytes_of("fabricated-evidence");
    metrics_.add(metrics_.counter("adv.attack.lie_testimony"));
  }
  evidence_.record(state_.signer(), id, seq, logged);

  if (adversary_.drop_relays && adv_rng_.uniform01() < adversary_.attack_rate) {
    metrics_.add(metrics_.counter("adv.attack.drop_relay"));
    span.attr("outcome", "dropped");
    return;
  }
  if (adversary_.tamper_relays && adv_rng_.uniform01() < adversary_.attack_rate) {
    payload = bytes_of("tampered-payload");
    metrics_.add(metrics_.counter("adv.attack.tamper_relay"));
  }
  metrics_.add(ids_.relays_forwarded);
  wire::Writer w;
  w.u64(id);
  w.u64(seq);
  w.bytes(payload);
  if (acct()) {
    // Forward endorsement: "I relay exactly these bytes under exactly this
    // producer header". A tampering witness signs its own conviction here.
    w.bytes(header_sig);
    w.bytes(state_.signer().sign(
        forward_payload(id, seq, digest_of(payload), header_sig)));
  }
  send_blind(it->second.consumer.addr, MsgType::kDataForward, std::move(w).take(),
             config_.blind_retry);
}

void Node::on_data_forward(const sim::NetMessage& msg) {
  wire::Reader r(msg.payload);
  const std::uint64_t id = r.u64();
  const std::uint64_t seq = r.u64();
  const Bytes payload = r.bytes();
  Bytes header_sig;
  Bytes forward_sig;
  if (!r.done()) header_sig = r.bytes();
  if (!r.done()) forward_sig = r.bytes();
  r.expect_done();
  const auto it = consumer_channels_.find(id);
  if (it == consumer_channels_.end()) return;
  ConsumerChannel& ch = it->second;
  // Only accept forwards from the channel's witnesses.
  const auto wit = std::find_if(ch.witnesses.begin(), ch.witnesses.end(),
                                [&](const PeerId& w) { return w.addr == msg.from; });
  if (wit == ch.witnesses.end()) return;
  SpanScope span(*this, "relay.deliver", msg.trace);
  span.attr("seq", std::to_string(seq));
  span.attr("witness", msg.from);

  auto& tally = ch.pending[seq];
  if (tally.delivered) return;
  // Each witness gets exactly one vote per sequence number: a duplicated
  // kDataForward must not double-count its digest (it could otherwise fake
  // a majority all by itself).
  if (!tally.seen.insert(msg.from).second) return;
  const auto digest = digest_of(payload);

  if (acct()) {
    // The forward must carry the witness's endorsement of exactly this
    // payload under exactly this producer header — an unendorsed forward is
    // unattributable, so it cannot be tallied (or accused over).
    if (forward_sig.empty() ||
        !engine_.verify(wit->key, forward_payload(id, seq, digest, header_sig),
                        forward_sig)) {
      metrics_.add(metrics_.counter("acc.forward.bad_sig"));
      return;
    }
    auto& rec = tally.forwards[msg.from];
    rec.digest = Bytes(digest.begin(), digest.end());
    rec.forward_sig = forward_sig;
    rec.header_sig = header_sig;
    rec.header_ok = engine_.verify(
        ch.producer.key, relay_header_payload(id, seq, digest), header_sig);
    if (!rec.header_ok) {
      // Valid forward endorsement of a payload the producer never signed:
      // the witness tampered, and its own signature proves it. Needs the
      // duty signature to attribute the relay duty; without it (ack lost)
      // the vote is still discarded, just not prosecuted.
      if (const auto duty = ch.duty_sigs.find(msg.from); duty != ch.duty_sigs.end()) {
        Accusation acc;
        acc.kind = AccusationKind::kRelayTamper;
        acc.accused = *wit;
        acc.channel_id = id;
        acc.sequence = seq;
        acc.producer = ch.producer;
        acc.consumer_addr = state_.self().addr;
        acc.duty_sig = duty->second;
        acc.header_sig = header_sig;
        acc.digest_a = rec.digest;
        acc.sig_a = forward_sig;
        raise_accusation(std::move(acc));
      }
      span.attr("outcome", "tampered");
      return;  // a tampered payload never counts toward delivery
    }
  }

  const Bytes key(digest.begin(), digest.end());
  auto& slot = tally.digests[key];
  if (slot.first == 0) slot.second = payload;
  ++slot.first;
  ++tally.total;
  maybe_deliver(ch, seq);
}

void Node::maybe_deliver(ConsumerChannel& ch, std::uint64_t seq) {
  auto& tally = ch.pending[seq];
  if (tally.delivered) return;
  const std::size_t group = ch.witnesses.size();
  const std::size_t majority = group / 2 + 1;

  const auto best = std::max_element(
      tally.digests.begin(), tally.digests.end(),
      [](const auto& a, const auto& b) { return a.second.first < b.second.first; });
  if (best == tally.digests.end()) return;

  const bool deliver_now = config_.majority_opt ? best->second.first >= majority
                                                : tally.total >= group;
  if (!deliver_now) return;
  tally.delivered = true;
  if (tracer_ != nullptr) {
    // Instant marker on whichever forward tipped the tally over.
    const std::uint64_t s = trace_begin("relay.delivered", trace_ctx_);
    trace_attr(s, "votes", std::to_string(best->second.first));
    trace_end(s);
  }
  if (on_delivery_) {
    on_delivery_(ch.id, seq, best->second.second, ch.producer);
  }
  if (acct() && !tally.audited) {
    tally.audited = true;
    schedule_consumer_audit(ch.id, seq);
  }
}

// ---------------------------------------------------------------------------
// Witness repair (docs/RESILIENCE.md).
// ---------------------------------------------------------------------------

namespace {

/// Nonce binding a repair draw to the channel, the witness being replaced,
/// and the repair epoch — so each repair is a fresh, non-replayable draw.
Bytes repair_nonce(const PeerId& producer, Round producer_round, const PeerId& consumer,
                   Round consumer_round, const std::string& dead_addr,
                   std::uint64_t epoch) {
  wire::Writer w;
  w.bytes(channel_nonce(producer, producer_round, consumer, consumer_round));
  w.bytes(bytes_of(dead_addr));
  w.u64(epoch);
  return std::move(w).take();
}

}  // namespace

void Node::trigger_witness_repair(const std::string& dead_addr) {
  // Self-quarantine: if we have heard nothing from *anyone* for a full RPC
  // timeout, mass witness silence is indistinguishable from our own
  // isolation (partition, crash window). Repairing now would tear down a
  // group the consumer still trusts and the kWitnessUpdate announcing the
  // replacement could not get through anyway — a lost update desyncs the
  // two witness views permanently. Skip; if the peer is genuinely dead the
  // next health check re-suspects it once we are reachable again.
  const sim::TimePoint now = net_.simulator().now();
  if (last_rx_ >= 0 && now - last_rx_ >= config_.rpc_timeout) {
    metrics_.add(metrics_.counter("node.repair_quarantined"));
    return;
  }

  // Consumer side: drop the dead witness immediately so the delivery
  // threshold tracks the surviving group (graceful degradation); the
  // producer's replacement arrives later via kWitnessUpdate.
  for (auto& [id, ch] : consumer_channels_) {
    const auto w = std::find_if(ch.witnesses.begin(), ch.witnesses.end(),
                                [&](const PeerId& p) { return p.addr == dead_addr; });
    if (w == ch.witnesses.end()) continue;
    ch.witnesses.erase(w);
    // A shrunk group may already satisfy the (new) threshold for queued seqs.
    std::vector<std::uint64_t> seqs;
    for (const auto& [seq, tally] : ch.pending) {
      if (!tally.delivered) seqs.push_back(seq);
    }
    for (const auto seq : seqs) maybe_deliver(ch, seq);
  }

  // Producer side: replace the witness via a fresh verifiable draw over the
  // surviving candidates of the neighborhood committed at setup, and tell
  // the consumer (which re-verifies the draw before adopting it).
  for (auto& [id, ch] : producer_channels_) {
    if (!ch.ready) continue;
    const auto w = std::find_if(ch.witnesses.begin(), ch.witnesses.end(),
                                [&](const PeerId& p) { return p.addr == dead_addr; });
    if (w == ch.witnesses.end()) continue;
    ch.witnesses.erase(w);
    ch.acked.erase(dead_addr);
    if (const auto rit = ch.invite_rpcs.find(dead_addr); rit != ch.invite_rpcs.end()) {
      finish_rpc(rit->second);
      ch.invite_rpcs.erase(rit);
    }
    ++ch.repair_epoch;
    metrics_.add(ids_.witness_repairs);

    std::vector<PeerId> candidates;
    for (const auto& p : ch.my_neighborhood) {
      if (p.addr == dead_addr || p == ch.consumer || p == state_.self()) continue;
      if (reported_leavers_.contains(p.addr)) continue;
      const bool already =
          std::any_of(ch.witnesses.begin(), ch.witnesses.end(),
                      [&](const PeerId& q) { return q.addr == p.addr; });
      if (!already) candidates.push_back(p);
    }
    const std::size_t quota = candidates.empty() ? 0 : 1;
    const Bytes nonce = repair_nonce(state_.self(), ch.my_round, ch.consumer,
                                     ch.consumer_round, dead_addr, ch.repair_epoch);
    const Draw draw = draw_witnesses(sampler(), state_.signer(), candidates, quota,
                                     nonce);

    wire::Writer inv;
    inv.u64(ch.id);
    encode_peer(inv, state_.self());
    encode_peer(inv, ch.consumer);
    const Bytes invite = std::move(inv).take();
    for (const auto& repl : draw.sample) {
      ch.witnesses.push_back(repl);
      ch.invite_rpcs[repl.addr] =
          send_rpc(repl.addr, MsgType::kWitnessInvite, invite, config_.channel_retry);
    }

    // Even an empty draw is announced: the consumer must lower its
    // threshold to the shrunk group rather than wait forever.
    wire::Writer upd;
    upd.u64(ch.id);
    upd.u64(ch.repair_epoch);
    upd.bytes(bytes_of(dead_addr));
    encode_peer_list(upd, candidates);
    encode_peer_list(upd, draw.sample);
    encode_bytes_list(upd, draw.proofs);
    Bytes update = std::move(upd).take();
    ch.unacked_updates.emplace_back(ch.repair_epoch, update);
    send_blind(ch.consumer.addr, MsgType::kWitnessUpdate, std::move(update),
               config_.blind_retry);
  }
}

void Node::on_witness_update(const sim::NetMessage& msg) {
  wire::Reader r(msg.payload);
  const std::uint64_t id = r.u64();
  const std::uint64_t epoch = r.u64();
  const Bytes dead_bytes = r.bytes();
  const std::string dead_addr(dead_bytes.begin(), dead_bytes.end());
  const std::vector<PeerId> candidates = decode_peer_list(r);
  const std::vector<PeerId> sample = decode_peer_list(r);
  const std::vector<Bytes> proofs = decode_bytes_list(r);
  r.expect_done();

  const auto it = consumer_channels_.find(id);
  if (it == consumer_channels_.end() || it->second.producer.addr != msg.from) return;
  ConsumerChannel& ch = it->second;
  // Epochs apply strictly in order. <= current is a duplicate (blind
  // redundancy or a producer resend): re-ack so the producer stops
  // replaying it. A gap means we missed one — stay silent and wait for the
  // in-order replay from the producer's health tick.
  if (epoch <= ch.repair_epoch) {
    wire::Writer ack;
    ack.u64(id);
    ack.u64(ch.repair_epoch);
    send(msg.from, MsgType::kWitnessUpdateAck, std::move(ack).take());
    return;
  }
  if (epoch != ch.repair_epoch + 1) return;

  // The candidate pool must come from the neighborhood the producer
  // committed at setup — it cannot mint fresh candidates after seeing who
  // it would like to draw.
  for (const auto& c : candidates) {
    const bool in_nbh =
        std::any_of(ch.producer_neighborhood.begin(), ch.producer_neighborhood.end(),
                    [&](const PeerId& p) { return p.addr == c.addr; });
    if (!in_nbh || c == ch.producer || c == state_.self() || c.addr == dead_addr) {
      metrics_.add(ids_.verification_failures);
      return;
    }
  }
  const std::size_t quota = candidates.empty() ? 0 : 1;
  const Bytes nonce = repair_nonce(ch.producer, ch.producer_round, state_.self(),
                                   ch.my_round, dead_addr, epoch);
  if (const auto v = verify_witnesses(sampler(), engine_, ch.producer.key, candidates,
                                      quota, nonce, proofs, sample);
      !v) {
    metrics_.add(ids_.verification_failures);
    return;
  }

  ch.repair_epoch = epoch;
  ch.witnesses.erase(std::remove_if(ch.witnesses.begin(), ch.witnesses.end(),
                                    [&](const PeerId& p) { return p.addr == dead_addr; }),
                     ch.witnesses.end());
  for (const auto& repl : sample) {
    const bool already =
        std::any_of(ch.witnesses.begin(), ch.witnesses.end(),
                    [&](const PeerId& p) { return p.addr == repl.addr; });
    if (!already) ch.witnesses.push_back(repl);
  }
  metrics_.add(ids_.witness_repairs);

  std::vector<std::uint64_t> seqs;
  for (const auto& [seq, tally] : ch.pending) {
    if (!tally.delivered) seqs.push_back(seq);
  }
  for (const auto seq : seqs) maybe_deliver(ch, seq);

  wire::Writer ack;
  ack.u64(id);
  ack.u64(ch.repair_epoch);
  send(msg.from, MsgType::kWitnessUpdateAck, std::move(ack).take());
}

void Node::on_witness_update_ack(const sim::NetMessage& msg) {
  wire::Reader r(msg.payload);
  const std::uint64_t id = r.u64();
  const std::uint64_t epoch = r.u64();
  r.expect_done();
  const auto it = producer_channels_.find(id);
  if (it == producer_channels_.end() || it->second.consumer.addr != msg.from) return;
  auto& pending = it->second.unacked_updates;
  pending.erase(std::remove_if(pending.begin(), pending.end(),
                               [&](const auto& u) { return u.first <= epoch; }),
                pending.end());
}

void Node::schedule_witness_health() {
  if (config_.witness_ping_period <= 0 || health_timer_armed_) return;
  health_timer_armed_ = true;
  auto alive = alive_;
  net_.simulator().schedule(config_.witness_ping_period, [this, alive] {
    if (!*alive) return;
    health_timer_armed_ = false;
    if (!running_) return;
    bool any_ready = false;
    std::vector<PeerId> probe;
    std::vector<std::string> rerepair;
    for (const auto& [id, ch] : producer_channels_) {
      if (!ch.ready) continue;
      any_ready = true;
      for (const auto& w : ch.witnesses) {
        if (reported_leavers_.contains(w.addr)) {
          // Already known dead but still in the group: an earlier repair was
          // quarantined (we looked isolated at the time). Retry now.
          rerepair.push_back(w.addr);
        } else {
          probe.push_back(w);
        }
      }
      // Replay un-acked repair announcements in epoch order; the consumer
      // acks what it applies, so this converges once the path heals.
      for (const auto& [epoch, payload] : ch.unacked_updates) {
        send_blind(ch.consumer.addr, MsgType::kWitnessUpdate, payload,
                   config_.blind_retry);
      }
    }
    for (const auto& w : probe) suspect_peer(w);
    for (const auto& addr : rerepair) trigger_witness_repair(addr);
    if (any_ready) schedule_witness_health();
  });
}

std::vector<std::uint64_t> Node::producer_channel_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(producer_channels_.size());
  for (const auto& [id, ch] : producer_channels_) ids.push_back(id);
  return ids;
}

// ---------------------------------------------------------------------------
// Accountability pipeline: accuse → quarantine → evict (docs/RESILIENCE.md).
// ---------------------------------------------------------------------------

void Node::note_exchange_entries(const PeerId& peer,
                                 const std::vector<HistoryEntry>& suffix,
                                 ExchangeItem item) {
  const auto shared = std::make_shared<const ExchangeItem>(std::move(item));
  for (std::size_t i = 0; i < suffix.size(); ++i) {
    const HistoryEntry& e = suffix[i];
    const std::string key = peer.addr + "#" + std::to_string(e.self_round);
    const SeenEntry* prev = seen_entries_.find(key);
    if (prev == nullptr) {
      seen_entries_.put(key, SeenEntry{shared, static_cast<std::uint32_t>(i)});
      continue;
    }
    // A repeat (about one entry in ten): decode the earlier exchange again.
    if (encoded_entry(item_suffix(*prev->item)[prev->index]) == encoded_entry(e)) {
      continue;
    }
    // Two body-signed exchanges show different entries for the same round of
    // the same node: a forked history. Both exchanges together are the
    // third-party-checkable proof. (History is append-only, so an honest
    // node re-serves every round byte-identically forever.)
    Accusation acc;
    acc.kind = AccusationKind::kHistoryEquivocation;
    acc.accused = peer;
    acc.round = e.self_round;
    acc.items.push_back(*prev->item);
    acc.items.push_back(*shared);
    raise_accusation(std::move(acc));
    return;
  }
}

void Node::raise_accusation(Accusation acc) {
  acc.accuser = state_.self();
  acc.accuser_sig = state_.signer().sign(acc.signing_payload());
  // Self-check before gossip: shipping an unprovable accusation would only
  // burn our own credibility at every recipient.
  if (const auto v = verify_accusation(acc, engine_, config_.protocol); !v) {
    metrics_.add(metrics_.counter("acc.accuse.unprovable"));
    return;
  }
  const std::string key = to_hex(acc.digest());
  if (!accusations_seen_.insert(key)) return;  // already raised
  metrics_.add(metrics_.counter(std::string("acc.accuse.created.") +
                                accusation_kind_tag(acc.kind)));
  // Forensics: the accusation span is a child of whatever operation exposed
  // the misbehaviour (the relay/shuffle trace), so the whole dispute — accuse,
  // gossip, every peer's quarantine and evict — shares that trace id.
  SpanScope span(*this, "accuse.raise", trace_ctx_);
  span.attr("kind", accusation_kind_tag(acc.kind));
  span.attr("accused", acc.accused.addr);
  accept_accusation(acc);
  gossip_accusation(acc, /*skip_addr=*/"");
}

void Node::accept_accusation(const Accusation& acc) {
  auto& rec = accused_[acc.accused.addr];
  rec.accusers.insert(acc.accuser.addr);
  quarantine_peer(acc.accused, accusation_kind_tag(acc.kind));
  if (HistoryJournal* j = config_.durability.journal) {
    j->on_standing(acc.accused.addr, rec.evicted, acc.accuser.addr);
  }
  if (!rec.evicted && rec.accusers.size() >= config_.accountability.evict_threshold) {
    rec.evicted = true;
    if (HistoryJournal* j = config_.durability.journal) {
      j->on_standing(acc.accused.addr, /*evicted=*/true, acc.accuser.addr);
    }
    metrics_.add(metrics_.counter("acc.evict.peers"));
    metrics_.add(metrics_.counter(std::string("acc.evict.") +
                                  accusation_kind_tag(acc.kind)));
    if (tracer_ != nullptr) {
      const std::uint64_t s = trace_begin("accuse.evict", trace_ctx_);
      trace_attr(s, "peer", acc.accused.addr);
      trace_attr(s, "accusers", std::to_string(rec.accusers.size()));
      trace_end(s);
    }
  }
}

void Node::gossip_accusation(const Accusation& acc, const std::string& skip_addr) {
  const Bytes payload = acc.encode();
  const std::string dig = to_hex(acc.digest());
  for (const auto& p : state_.peerset().sorted()) {
    if (p.addr == skip_addr || p.addr == acc.accused.addr) continue;
    if (quarantined_.contains(p.addr)) continue;
    const std::uint64_t rpc =
        send_rpc(p.addr, MsgType::kAccusation, payload, config_.query_retry);
    if (rpc != 0) accusation_rpcs_[dig + "#" + p.addr] = rpc;
    metrics_.add(metrics_.counter("acc.accuse.sent"));
  }
}

void Node::quarantine_peer(const PeerId& peer, const char* kind_tag) {
  if (peer == state_.self()) return;
  if (!quarantined_.insert(peer.addr).second) return;
  if (HistoryJournal* j = config_.durability.journal) {
    j->on_standing(peer.addr, /*evicted=*/false, /*accuser=*/"");
  }
  metrics_.add(metrics_.counter("acc.quarantine.peers"));
  metrics_.add(metrics_.counter(std::string("acc.quarantine.") + kind_tag));
  if (tracer_ != nullptr) {
    const std::uint64_t s = trace_begin("accuse.quarantine", trace_ctx_);
    trace_attr(s, "peer", peer.addr);
    trace_attr(s, "kind", kind_tag);
    trace_end(s);
  }
  if (pending_ && pending_->partner.addr == peer.addr) {
    abort_shuffle(/*partner_suspect=*/false);
  }
  // Local leave-record: removes the peer from the peerset (partner and
  // witness draws can never select it again) while keeping reconstruction
  // exact. Deliberately NO kLeaveNotice fanout — the peer is alive and would
  // ping-clear itself; peers convict independently from the gossiped
  // accusation instead.
  reported_leavers_.insert(peer.addr);
  if (state_.peerset().contains(peer)) {
    const auto [round, sig] = state_.make_leave_report(peer);
    state_.apply_leave_report(state_.self(), round, sig, peer);
  }
  // If it serves as witness on one of our channels, repair around it.
  trigger_witness_repair(peer.addr);
}

void Node::start_omission_challenge(Accusation acc) {
  const std::string key = acc.accused.addr + "#" + std::to_string(acc.channel_id) +
                          "#" + std::to_string(acc.sequence);
  if (!active_challenges_.insert(key).second) return;
  metrics_.add(metrics_.counter("acc.challenge.started"));
  const auto shared = std::make_shared<Accusation>(std::move(acc));
  // The verdict lands asynchronously; keep it on the challenge's trace.
  const obs::TraceContext challenge_ctx = trace_ctx_;
  request_testimony_internal(
      shared->accused.addr, shared->channel_id, shared->sequence,
      [this, key, shared, challenge_ctx](bool replied, std::optional<Testimony>) {
        CtxScope trace(*this, challenge_ctx);
        active_challenges_.erase(key);
        if (replied) {
          // Any answer — even "no record" — clears the omission charge: the
          // witness is alive and accountable, and the missed relay may be
          // the network's fault, not malice. (A witness that answers with a
          // *lying* record is caught by the testimony spot-check instead.)
          metrics_.add(metrics_.counter("acc.challenge.cleared"));
          return;
        }
        metrics_.add(metrics_.counter("acc.challenge.convicted"));
        if (shared->accuser_sig.empty()) {
          raise_accusation(*shared);  // we built this accusation ourselves
        } else {
          // Gossiped accusation, independently re-verified by our own live
          // challenge: adopt and keep spreading it.
          accept_accusation(*shared);
          gossip_accusation(*shared, /*skip_addr=*/"");
        }
      });
}

void Node::schedule_consumer_audit(std::uint64_t channel_id, std::uint64_t seq) {
  auto alive = alive_;
  net_.simulator().schedule(kAuditDelay,
                            [this, alive, channel_id, seq] {
                              if (!*alive || !running_) return;
                              run_consumer_audit(channel_id, seq);
                            });
}

void Node::run_consumer_audit(std::uint64_t channel_id, std::uint64_t seq) {
  const auto it = consumer_channels_.find(channel_id);
  if (it == consumer_channels_.end()) return;
  ConsumerChannel& ch = it->second;
  const auto tit = ch.pending.find(seq);
  if (tit == ch.pending.end()) return;
  auto& tally = tit->second;
  // Audits run from a timer, so they root a fresh trace; accusations raised
  // below (and their gossip fan-out) all hang off it.
  SpanScope span(*this, "audit", {});
  span.attr("channel", std::to_string(channel_id));
  span.attr("seq", std::to_string(seq));

  // The delivered majority fixes the authoritative digest for this sequence;
  // a header-verified forward that carried it anchors the omission proofs.
  Bytes majority;
  std::size_t best = 0;
  for (const auto& [digest, slot] : tally.digests) {
    if (slot.first > best) {
      best = slot.first;
      majority = digest;
    }
  }
  const ConsumerChannel::Tally::ForwardRec* anchor = nullptr;
  for (const auto& [addr, rec] : tally.forwards) {
    if (rec.header_ok && rec.digest == majority) {
      anchor = &rec;
      break;
    }
  }

  // (a) Omission: every witness that never forwarded gets a live challenge;
  // only full silence convicts. Needs the duty signature (attributes the
  // duty) and an anchor forward (proves the message existed on it).
  for (const auto& w : ch.witnesses) {
    if (tally.seen.contains(w.addr)) continue;
    if (quarantined_.contains(w.addr)) continue;
    const auto duty = ch.duty_sigs.find(w.addr);
    if (duty == ch.duty_sigs.end() || anchor == nullptr) continue;
    Accusation acc;
    acc.kind = AccusationKind::kRelayOmission;
    acc.accused = w;
    acc.channel_id = channel_id;
    acc.sequence = seq;
    acc.producer = ch.producer;
    acc.consumer_addr = state_.self().addr;
    acc.duty_sig = duty->second;
    acc.header_sig = anchor->header_sig;
    acc.digest_a = anchor->digest;
    start_omission_challenge(std::move(acc));
  }

  // (b) Every kAuditPeriod-th sequence: spot-check the forwarders' sworn
  // testimonies against what they actually forwarded us (catches the witness
  // that relays faithfully but logs a lie for later disputes).
  if (seq % kAuditPeriod != 0) return;
  for (const auto& w : ch.witnesses) {
    const auto fit = tally.forwards.find(w.addr);
    if (fit == tally.forwards.end() || !fit->second.header_ok) continue;
    if (quarantined_.contains(w.addr)) continue;
    const PeerId witness = w;
    const ConsumerChannel::Tally::ForwardRec rec = fit->second;
    const obs::TraceContext audit_ctx = trace_ctx_;
    request_testimony_internal(
        w.addr, channel_id, seq,
        [this, witness, channel_id, seq, rec, audit_ctx](bool replied,
                                                         std::optional<Testimony> t) {
          CtxScope trace(*this, audit_ctx);
          if (!replied || !t) return;  // silence is the omission path's job
          if (!(t->witness == witness) || !verify_testimony(*t, engine_)) return;
          const Bytes tdig(t->digest.begin(), t->digest.end());
          if (tdig == rec.digest) return;  // books match
          Accusation acc;
          acc.kind = AccusationKind::kTestimonyMismatch;
          acc.accused = witness;
          acc.channel_id = channel_id;
          acc.sequence = seq;
          acc.header_sig = rec.header_sig;
          acc.digest_a = rec.digest;
          acc.sig_a = rec.forward_sig;
          acc.digest_b = tdig;
          acc.sig_b = t->signature;
          raise_accusation(std::move(acc));
        });
  }
}

void Node::on_accusation(const sim::NetMessage& msg) {
  const Accusation acc = Accusation::decode(msg.payload);
  const DataDigest dig = acc.digest();
  {
    // Ack first (even duplicates) so the sender's gossip retry stops.
    wire::Writer w;
    w.bytes(Bytes(dig.begin(), dig.end()));
    send(msg.from, MsgType::kAccusationAck, std::move(w).take());
  }
  if (!acct()) return;
  if (!accusations_seen_.insert(to_hex(dig))) return;
  metrics_.add(metrics_.counter("acc.accuse.received"));
  SpanScope span(*this, "accuse.receive", msg.trace);
  span.attr("kind", accusation_kind_tag(acc.kind));
  span.attr("accused", acc.accused.addr);
  if (acc.accused == state_.self()) {
    // An indictment of ourselves: nothing to apply locally (honest nodes
    // never see one that verifies; the counter feeds the framing tests).
    metrics_.add(metrics_.counter("acc.accuse.self"));
    return;
  }
  // Independent re-verification — recipients NEVER take the accuser's word.
  if (const auto v = verify_accusation(acc, engine_, config_.protocol); !v) {
    metrics_.add(ids_.verification_failures);
    metrics_.add(metrics_.counter("acc.accuse.rejected"));
    metrics_.add(metrics_.counter(std::string("node.reject.") + error_tag(v.code)));
    return;
  }
  metrics_.add(metrics_.counter("acc.accuse.verified"));
  if (acc.kind == AccusationKind::kRelayOmission) {
    // Omission is never convicted on paper evidence alone — the proof only
    // shows the duty and the message. Challenge the accused ourselves and
    // convict on silence.
    start_omission_challenge(acc);
    return;
  }
  accept_accusation(acc);
  gossip_accusation(acc, /*skip_addr=*/msg.from);
}

void Node::on_accusation_ack(const sim::NetMessage& msg) {
  wire::Reader r(msg.payload);
  const Bytes dig = r.bytes();
  r.expect_done();
  const std::string key = to_hex(dig) + "#" + msg.from;
  const auto it = accusation_rpcs_.find(key);
  if (it == accusation_rpcs_.end()) return;
  finish_rpc(it->second);
  accusation_rpcs_.erase(it);
}

// ---------------------------------------------------------------------------
// Durability & catch-up sync (docs/RESILIENCE.md). Every peer mirrors every
// counterpart's *sealed* history as (entry count, accumulated chain digest):
// a checkpoint announce with a newer seal triggers bounded SegmentRequest
// fetches, each chunk verified fail-closed before the mirror advances. The
// mirror is what makes a later signed checkpoint or segment from the same
// node falsifiable — and the boundary chunk is offline-decidable, so a
// server contradicting its own seal feeds the accuse → quarantine → evict
// pipeline like any other provable violation.
// ---------------------------------------------------------------------------

void Node::maybe_announce_checkpoint() {
  // Surface silent proof-window loss: first_index() counts entries trimmed
  // from RAM. Lazily interned, so non-durable nodes never emit the series.
  const obs::MetricId trimmed = metrics_.counter("node.history.trimmed");
  const std::uint64_t have = metrics_.counter_value(trimmed);
  const std::uint64_t now = state_.history().first_index();
  if (now > have) metrics_.add(trimmed, now - have);

  const auto& ck = state_.checkpoint();
  if (!ck || ck->epoch <= announced_epoch_) return;
  announced_epoch_ = ck->epoch;
  metrics_.add(metrics_.counter("node.ckpt.sealed"));
  for (const auto& p : state_.peerset().sorted()) {
    if (acct() && quarantined_.contains(p.addr)) continue;
    send_checkpoint_announce(p.addr, /*want_reply=*/false);
  }
}

void Node::send_checkpoint_announce(const std::string& to, bool want_reply) {
  CheckpointAnnounce ann;
  ann.checkpoint = *state_.checkpoint();
  ann.want_reply = want_reply;
  metrics_.add(metrics_.counter("node.ckpt.announced"));
  send(to, MsgType::kCheckpointAnnounce, ann.encode());
}

void Node::request_next_segment(const std::string& addr, PeerSyncState& sync) {
  if (!sync.target || sync.rpc != 0) return;
  SegmentRequest req;
  req.request_id = next_request_id_++;
  req.start = sync.synced;
  req.end = std::min<std::uint64_t>(
      sync.target->sealed_count,
      sync.synced + kMaxSegmentEntries);
  sync.request_id = req.request_id;
  metrics_.add(metrics_.counter("node.sync.requests"));
  // Bounded retries via the RPC table; a peer that never serves the range
  // just leaves our mirror where it was (the next announce retriggers).
  sync.rpc = send_rpc(addr, MsgType::kSegmentRequest, req.encode(),
                      config_.query_retry, [this, addr] {
                        metrics_.add(metrics_.counter("node.sync.give_up"));
                        if (!peer_sync_.contains(addr)) return;
                        auto& s = peer_sync_.at_or_insert(addr);
                        s.rpc = 0;
                        s.request_id = 0;
                        s.target.reset();
                      });
}

void Node::on_checkpoint_announce(const sim::NetMessage& msg) {
  if (!durable() || !joined_) return;
  const CheckpointAnnounce ann = CheckpointAnnounce::decode(msg.payload);
  const Checkpoint& ck = ann.checkpoint;
  if (ck.owner.addr != msg.from) return;
  // Pin the key to the peerset identity when we hold one; a stranger's
  // checkpoint is self-certifying (the signature check below binds it to the
  // embedded key, which is the identity every later contradiction is
  // attributed to).
  for (const auto& p : state_.peerset().sorted()) {
    if (p.addr == msg.from && !(p.key == ck.owner.key)) return;
  }
  if (const auto v = verify_checkpoint(ck, ck.owner, engine_); !v) {
    metrics_.add(ids_.verification_failures);
    metrics_.add(metrics_.counter(std::string("node.reject.") + error_tag(v.code)));
    return;
  }
  SpanScope span(*this, "sync.announce", msg.trace);
  span.attr("owner", ck.owner.addr);
  span.attr("epoch", std::to_string(ck.epoch));
  if (ann.want_reply && state_.checkpoint()) {
    send_checkpoint_announce(msg.from, /*want_reply=*/false);
  }
  auto& sync = peer_sync_.at_or_insert(msg.from);
  if (ck.epoch <= sync.epoch) return;  // nothing newer than our mirror
  if (sync.target && sync.target->epoch >= ck.epoch) return;  // already fetching
  sync.target = ck;
  if (sync.synced >= ck.sealed_count) {
    // Seal grew in epoch but not past our mirror (cannot happen with an
    // honest server — epochs only advance with entries): fail closed.
    sync.target.reset();
    return;
  }
  request_next_segment(msg.from, sync);
}

void Node::on_segment_request(const sim::NetMessage& msg) {
  if (!durable() || !joined_) return;
  const SegmentRequest req = SegmentRequest::decode(msg.payload);
  if (req.end <= req.start) return;
  const std::uint64_t count = std::min<std::uint64_t>(
      req.end - req.start, kMaxSegmentEntries);
  const UpdateHistory& h = state_.history();
  SegmentData seg;
  seg.request_id = req.request_id;
  seg.server = state_.self();
  seg.start = req.start;
  if (req.start >= h.first_index() && req.start < h.total_appended()) {
    seg.base_chain = h.chain_at(req.start);
    seg.entries = h.entries_from(req.start, static_cast<std::size_t>(count));
  } else if (HistoryJournal* j = config_.durability.journal;
             j != nullptr && req.start < h.total_appended()) {
    // The in-memory window was trimmed past the request: serve from the
    // journal, refolding the base digest from genesis. O(journal), but
    // catch-up this deep only happens after long partitions.
    const auto prefix = j->read_entries(0, static_cast<std::size_t>(req.start));
    if (prefix.size() < req.start) return;  // journal shorter than the claim
    seg.base_chain = fold_chain(ChainDigest{}, prefix);
    seg.entries = j->read_entries(req.start, static_cast<std::size_t>(count));
  } else {
    return;  // nothing to serve; the requester's retry budget handles it
  }
  if (seg.entries.empty()) return;
  seg.server_sig = state_.signer().sign(seg.signing_payload());
  metrics_.add(metrics_.counter("node.sync.served"));
  send(msg.from, MsgType::kSegmentData, seg.encode());
}

void Node::on_segment_data(const sim::NetMessage& msg) {
  if (!durable() || !peer_sync_.contains(msg.from)) return;
  const SegmentData seg = SegmentData::decode(msg.payload);
  auto& sync = peer_sync_.at_or_insert(msg.from);
  if (!sync.target || seg.request_id != sync.request_id) return;
  finish_rpc(sync.rpc);
  sync.rpc = 0;
  sync.request_id = 0;
  const Checkpoint ck = *sync.target;
  const auto abandon = [&](const char* why) {
    metrics_.add(metrics_.counter(std::string("node.sync.abort.") + why));
    sync.target.reset();
  };
  SpanScope span(*this, "sync.segment", msg.trace);
  span.attr("server", msg.from);
  span.attr("start", std::to_string(seg.start));
  const std::uint64_t end = seg.start + seg.entries.size();
  if (!(seg.server == ck.owner) || seg.start != sync.synced ||
      seg.entries.empty() || end > ck.sealed_count ||
      seg.entries.size() > kMaxSegmentEntries) {
    abandon("malformed");
    return;
  }
  if (!engine_.verify(seg.server.key, seg.signing_payload(), seg.server_sig)) {
    metrics_.add(ids_.verification_failures);
    abandon("bad_sig");
    return;
  }
  // Offline-decidable contradiction first: a signed boundary slice whose
  // fold misses the same server's signed checkpoint convicts it no matter
  // what we mirrored before — the pair of signatures IS the proof.
  if (segment_contradicts_checkpoint(seg, ck)) {
    metrics_.add(metrics_.counter("node.sync.contradiction"));
    span.attr("outcome", "contradiction");
    sync.target.reset();
    if (acct()) {
      Accusation acc;
      acc.kind = AccusationKind::kSegmentMismatch;
      acc.accused = ck.owner;
      acc.round = ck.last_round;
      ExchangeItem item;
      item.shape = 3;
      item.offer = ck.encode();
      item.response = msg.payload;
      item.counterpart = state_.self();
      acc.items.push_back(std::move(item));
      raise_accusation(std::move(acc));
    } else {
      quarantine_peer(ck.owner, "segment_mismatch");
    }
    return;
  }
  // Fail closed on everything not provable: a mid-prefix chunk must extend
  // the mirror we already verified (the checkpoint only commits the total
  // fold, so a lie here is detectable but not third-party-attributable).
  if (seg.base_chain != sync.chain) {
    abandon("discontinuity");
    return;
  }
  sync.chain = fold_chain(sync.chain, seg.entries);
  sync.synced = end;
  metrics_.add(metrics_.counter("node.sync.segments"));
  metrics_.add(metrics_.counter("node.sync.entries"), seg.entries.size());
  if (sync.synced >= ck.sealed_count) {
    // The final fold matched ck.chain (else the contradiction branch fired):
    // the mirror now covers the whole sealed prefix.
    sync.epoch = ck.epoch;
    sync.target.reset();
    span.attr("outcome", "completed");
    metrics_.add(metrics_.counter("node.sync.completed"));
  } else {
    request_next_segment(msg.from, sync);
  }
}

// ---------------------------------------------------------------------------
// Evidence & history query service (third-party resolver support and the
// Sec. IV-A old-entry lookup).
// ---------------------------------------------------------------------------

void Node::request_testimony(const std::string& witness_addr, std::uint64_t channel_id,
                             std::uint64_t sequence, TestimonyCallback cb) {
  request_testimony_internal(witness_addr, channel_id, sequence,
                             [cb = std::move(cb)](bool, std::optional<Testimony> t) {
                               cb(std::move(t));
                             });
}

void Node::request_testimony_internal(const std::string& witness_addr,
                                      std::uint64_t channel_id, std::uint64_t sequence,
                                      TestimonyReplyCallback cb) {
  const std::uint64_t request = next_request_id_++;
  wire::Writer w;
  w.u64(request);
  w.u64(channel_id);
  w.u64(sequence);
  const std::uint64_t rpc = send_rpc(witness_addr, MsgType::kTestimonyQuery,
                                     std::move(w).take(), config_.query_retry);
  testimony_waiters_[request] = {std::move(cb), rpc};
  auto alive = alive_;
  net_.simulator().schedule(config_.rpc_timeout, [this, alive, request] {
    if (!*alive) return;
    const auto it = testimony_waiters_.find(request);
    if (it == testimony_waiters_.end()) return;  // answered
    finish_rpc(it->second.second);
    auto waiter = std::move(it->second.first);
    testimony_waiters_.erase(it);
    waiter(/*replied=*/false, std::nullopt);
  });
}

void Node::on_testimony_query(const sim::NetMessage& msg) {
  wire::Reader r(msg.payload);
  const std::uint64_t request = r.u64();
  const std::uint64_t channel_id = r.u64();
  const std::uint64_t sequence = r.u64();
  r.expect_done();
  if (adversary_.withhold_testimony) {
    // Stonewalling witness: never answers. Answering parties can always be
    // cross-checked; silence is what the live omission challenge convicts.
    metrics_.add(metrics_.counter("adv.attack.withhold_testimony"));
    return;
  }
  SpanScope span(*this, "testimony.serve", msg.trace);
  wire::Writer w;
  w.u64(request);
  const auto t = evidence_.lookup(channel_id, sequence);
  span.attr("has_record", t.has_value() ? "1" : "0");
  // A lying witness presents its (fabricated) log faithfully — the lie
  // happened at record time; the query service itself is honest bookkeeping.
  w.u8(t.has_value() ? 1 : 0);
  if (t) {
    encode_peer(w, t->witness);
    w.u64(t->channel_id);
    w.u64(t->sequence);
    w.raw(BytesView(t->digest.data(), t->digest.size()));
    w.bytes(t->signature);
  }
  send(msg.from, MsgType::kTestimonyReply, std::move(w).take());
}

void Node::on_testimony_reply(const sim::NetMessage& msg) {
  wire::Reader r(msg.payload);
  const std::uint64_t request = r.u64();
  const bool has = r.u8() != 0;
  std::optional<Testimony> t;
  if (has) {
    Testimony parsed;
    parsed.witness = decode_peer(r);
    parsed.channel_id = r.u64();
    parsed.sequence = r.u64();
    const Bytes digest = r.raw(parsed.digest.size());
    std::copy(digest.begin(), digest.end(), parsed.digest.begin());
    parsed.signature = r.bytes();
    t = std::move(parsed);
  }
  r.expect_done();
  const auto it = testimony_waiters_.find(request);
  if (it == testimony_waiters_.end()) return;  // timed out already
  finish_rpc(it->second.second);
  auto waiter = std::move(it->second.first);
  testimony_waiters_.erase(it);
  waiter(/*replied=*/true, std::move(t));
}

void Node::request_history_entry(const std::string& peer_addr, Round round,
                                 EntryCallback cb) {
  const std::uint64_t request = next_request_id_++;
  wire::Writer w;
  w.u64(request);
  w.u64(round);
  const std::uint64_t rpc = send_rpc(peer_addr, MsgType::kEntryQuery,
                                     std::move(w).take(), config_.query_retry);
  entry_waiters_[request] = {std::move(cb), rpc};
  auto alive = alive_;
  net_.simulator().schedule(config_.rpc_timeout, [this, alive, request] {
    if (!*alive) return;
    const auto it = entry_waiters_.find(request);
    if (it == entry_waiters_.end()) return;
    finish_rpc(it->second.second);
    auto waiter = std::move(it->second.first);
    entry_waiters_.erase(it);
    waiter(std::nullopt);
  });
}

void Node::on_entry_query(const sim::NetMessage& msg) {
  wire::Reader r(msg.payload);
  const std::uint64_t request = r.u64();
  const Round round = r.u64();
  r.expect_done();
  const UpdateHistory& h = state_.history();
  const std::optional<std::uint64_t> at = h.find_round(round);
  wire::Writer w;
  w.u64(request);
  w.u8(at ? 1 : 0);
  if (at) w.raw(h.entry_bytes(*at));
  send(msg.from, MsgType::kEntryReply, std::move(w).take());
}

void Node::on_entry_reply(const sim::NetMessage& msg) {
  wire::Reader r(msg.payload);
  const std::uint64_t request = r.u64();
  const bool has = r.u8() != 0;
  std::optional<HistoryEntry> entry;
  if (has) entry = decode_entry(r);
  r.expect_done();
  const auto it = entry_waiters_.find(request);
  if (it == entry_waiters_.end()) return;
  finish_rpc(it->second.second);
  auto waiter = std::move(it->second.first);
  entry_waiters_.erase(it);
  waiter(std::move(entry));
}

const std::vector<PeerId>* Node::channel_witnesses(std::uint64_t channel_id) const {
  if (const auto it = producer_channels_.find(channel_id); it != producer_channels_.end()) {
    return &it->second.witnesses;
  }
  if (const auto it = consumer_channels_.find(channel_id); it != consumer_channels_.end()) {
    return &it->second.witnesses;
  }
  return nullptr;
}

}  // namespace accountnet::core
