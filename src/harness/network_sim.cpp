#include "accountnet/harness/network_sim.hpp"

#include <algorithm>

#include "accountnet/core/history.hpp"
#include "accountnet/core/neighborhood.hpp"
#include "accountnet/core/node.hpp"
#include "accountnet/core/witness.hpp"
#include "accountnet/crypto/sha256.hpp"
#include "accountnet/storage/node_store.hpp"
#include "accountnet/util/bytes.hpp"
#include "accountnet/util/ensure.hpp"
#include "accountnet/util/worker_pool.hpp"

namespace accountnet::harness {

namespace {

/// Wave-size backstop. A flush is forced once this many events are pending,
/// keeping per-flush memory bounded. The cap is a constant — NEVER derived
/// from the thread count — so flush points (and therefore metric deltas,
/// everything) are identical at every thread count.
constexpr std::size_t kMaxWave = 4096;

std::string addr_of(std::size_t idx) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "n%06zu", idx);
  return buf;
}

// Same fabrication scheme as the event-driven adversary: an address that
// sorts past every real node and a key nobody holds the secret for.
core::PeerId fabricated_peer(const std::string& owner_addr) {
  core::PeerId p;
  p.addr = "zz-fab-" + owner_addr;
  const auto digest = crypto::Sha256::hash(bytes_of(p.addr));
  std::copy(digest.begin(), digest.end(), p.key.begin());
  return p;
}

}  // namespace

struct NetworkSim::HarnessNode {
  std::size_t index = 0;
  bool malicious = false;
  bool alive = false;
  bool joined = false;
  sim::TimePoint launch_at = 0;
  /// Identity and key material cached outside NodeState so they survive a
  /// simulated crash (the PeerId of record; the seed rebuilds the signer).
  core::PeerId self;
  Bytes seed;
  /// durable_nodes only. The store models the disk: it survives the crash
  /// that destroys everything else, and the journal is recreated over it at
  /// restart exactly as a restarted process would reopen its data dir.
  std::shared_ptr<storage::MemorySegmentStore> store;
  std::unique_ptr<storage::NodeStore> journal;
  std::unique_ptr<core::NodeState> state;
  /// Per-node verification front-end. All engines share the sim-wide
  /// registry, so their counters aggregate network-wide.
  std::unique_ptr<core::VerificationEngine> engine;
  Rng rng{0};
  std::unordered_set<std::string> reported_leavers;
  std::unordered_set<std::string> quarantined;  ///< addrs this node refuses
  std::size_t adv_initiations = 0;  ///< equivocators alternate per initiation
  // Coverage bitset (distinct peers ever held), built lazily.
  std::vector<std::uint64_t> coverage_bits;
  std::size_t coverage_count = 0;
};

NetworkSim::NetworkSim(ExperimentConfig config)
    : config_(std::move(config)),
      provider_(config_.use_real_crypto ? crypto::make_real_crypto()
                                        : crypto::make_fast_crypto()),
      rng_(config_.seed) {
  AN_ENSURE(config_.network_size >= 2);
  AN_ENSURE(config_.f >= config_.l && config_.l >= 1);
  if (config_.fault_plan) faults_.emplace(*config_.fault_plan);
  in_wave_.assign(config_.network_size, 0);
  if (parallel()) {
    pool_ = std::make_unique<util::WorkerPool>(config_.threads);
    // Smallest delay rearm_shuffle_at can emit, minus one: a wave started at
    // T may batch events up to T + rearm_bound_ and still flush before any
    // deferred re-arm's absolute time, so schedule_at never lands in the
    // past and re-arm ordering matches a wave of one exactly.
    rearm_bound_ = std::max<sim::Duration>(
        0, static_cast<sim::Duration>(static_cast<double>(config_.shuffle_period) *
                                      (1.0 - config_.shuffle_jitter_frac)) -
               1);
  }

  node_config_.max_peerset = config_.f;
  node_config_.shuffle_length = config_.l;
  node_config_.history_limit = config_.history_limit;
  node_config_.checkpoint_interval = config_.checkpoint_interval;
  node_config_.sampler = config_.sampler;

  nodes_.reserve(config_.network_size);
  bootstrap_groups_.fill(OrderStatIndex(config_.network_size));
  const std::size_t lanes =
      (config_.network_size + config_.lane_size - 1) / config_.lane_size;
  std::vector<sim::TimePoint> lane_clock(lanes, 0);

  for (std::size_t i = 0; i < config_.network_size; ++i) {
    auto hn = std::make_unique<HarnessNode>();
    hn->index = i;
    hn->malicious = rng_.chance(config_.pm);
    hn->rng = rng_.fork();

    Bytes seed(32);
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng_.next_u64());
    auto signer = provider_->make_signer(seed);
    core::PeerId id{addr_of(i), signer->public_key()};
    hn->self = id;
    hn->seed = seed;
    hn->state = std::make_unique<core::NodeState>(id, provider_->make_signer(seed),
                                                  node_config_);
    if (config_.durable_nodes) {
      hn->store = std::make_shared<storage::MemorySegmentStore>();
      hn->journal = std::make_unique<storage::NodeStore>(hn->store);
      hn->state->set_journal(hn->journal.get());
    }
    hn->engine = std::make_unique<core::VerificationEngine>(
        *provider_, config_.verification, &metrics_);

    const std::size_t lane = i % lanes;
    lane_clock[lane] += hn->rng.uniform_range(0, config_.launch_spacing_max);
    hn->launch_at = lane_clock[lane];

    addr_to_index_[id.addr] = i;
    nodes_.push_back(std::move(hn));
  }
  if (config_.track_shuffle_pairs) {
    AN_ENSURE_MSG(config_.network_size <= 2048, "heatmap tracking is for small nets");
    shuffle_pairs_.assign(config_.network_size,
                          std::vector<std::uint8_t>(config_.network_size, 0));
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    sim_.schedule_at(nodes_[i]->launch_at, [this, i] { launch_node(i); });
  }
}

NetworkSim::~NetworkSim() = default;

sim::TimePoint NetworkSim::now() const { return sim_.now(); }

void NetworkSim::sync_metrics() {
  // Counters are monotonic adds; bring each up to the struct's value so the
  // hot shuffle loop keeps its plain-integer bookkeeping.
  const auto sync_counter = [this](const char* name, std::uint64_t value) {
    const obs::MetricId id = metrics_.counter(name);
    const std::uint64_t have = metrics_.counter_value(id);
    if (value > have) metrics_.add(id, value - have);
  };
  sync_counter("harness.shuffles_attempted", stats_.shuffles_attempted);
  sync_counter("harness.shuffles_completed", stats_.shuffles_completed);
  sync_counter("harness.shuffles_verified", stats_.shuffles_verified);
  sync_counter("harness.verification_failures", stats_.verification_failures);
  sync_counter("harness.dead_partner_hits", stats_.dead_partner_hits);
  sync_counter("harness.leave_reports", stats_.leave_reports);
  sync_counter("harness.fault_failures", stats_.fault_failures);
  if (config_.adversary.any()) {
    // Only materialized under an active adversary, so scrapes from every
    // pre-existing bench stay byte-identical.
    sync_counter("harness.byz.attacks", stats_.byz_attacks);
    sync_counter("harness.byz.detections", stats_.byz_detections);
    sync_counter("harness.byz.quarantines", stats_.byz_quarantines);
    sync_counter("harness.byz.refused_quarantined", stats_.byz_refused_quarantined);
  }
  if (config_.durable_nodes) {
    // Durability series follow the byz.* rule: they only materialize when
    // the feature is on, so scrapes from every pre-existing bench stay
    // byte-identical.
    sync_counter("harness.recovery.crashes", recovery_crashes_);
    sync_counter("harness.recovery.restarts", recovery_restarts_);
    sync_counter("harness.recovery.entries_replayed", recovery_entries_replayed_);
    std::uint64_t trimmed = 0, journaled = 0;
    for (const auto& n : nodes_) {
      // first_index() counts entries trimmed from the in-memory window —
      // the silent proof degradation this counter makes visible.
      if (n->state) trimmed += n->state->history().first_index();
      if (n->journal) journaled += n->journal->entry_count();
    }
    sync_counter("harness.history.trimmed", trimmed);
    metrics_.set(metrics_.gauge("harness.journal.entries"),
                 static_cast<double>(journaled));
  }
  metrics_.set(metrics_.gauge("harness.network_size"),
               static_cast<double>(nodes_.size()));
  metrics_.set(metrics_.gauge("harness.alive"), static_cast<double>(alive_count_));
  metrics_.set(metrics_.gauge("harness.joined"), static_cast<double>(joined_count_));
  metrics_.set(metrics_.gauge("harness.rounds_completed"),
               static_cast<double>(rounds_completed_));
}

void NetworkSim::scrape_metrics(obs::Sink& sink) {
  sync_metrics();
  metrics_.scrape_to(sink, sim_.now());
  sink.flush();
}

void NetworkSim::write_metrics_json(const std::string& path) {
  obs::JsonLinesSink sink(path);
  scrape_metrics(sink);
}

void NetworkSim::launch_node(std::size_t idx) {
  // Bootstrap reads arbitrary peersets and schedules: the network must be
  // settled first (sequential ordering — the pending events all predate us).
  flush_wave();
  HarnessNode& hn = *nodes_[idx];
  hn.alive = true;
  ++alive_count_;

  // Bootstrap through a random already-joined node of the compatible group
  // (in separate-overlay mode the coalitions never mix, Sec. IV-B). The k-th
  // smallest index of the group is the node a scan of nodes_ would list k-th.
  OrderStatIndex& group = bootstrap_group(hn);
  if (group.empty()) {
    hn.state->init_as_seed();
    hn.joined = true;
  } else {
    const std::size_t bn_idx = group.kth(hn.rng.uniform(group.size()));
    HarnessNode& bn = *nodes_[bn_idx];
    // Bootstrap provides itself plus its depth-d neighborhood (Sec. IV-A).
    std::vector<core::PeerId> offer = {bn.state->self()};
    for (const std::size_t n : neighborhood_indices(bn_idx, config_.d)) {
      offer.push_back(nodes_[n]->state->self());
    }
    const Bytes stamp =
        bn.state->signer().sign(core::join_stamp_payload(hn.state->self().addr));
    const core::Draw draw =
        core::sampler_backend(config_.sampler)
            .draw(hn.state->signer(), core::Peerset(offer), config_.f,
                  "an.join.sample", stamp);
    hn.state->apply_join(bn.state->self(), stamp, draw.sample);
    hn.joined = true;
  }
  ++joined_count_;
  group.insert(idx);
  update_coverage(hn);
  rearm_shuffle_at(idx, sim_.now());
}

OrderStatIndex& NetworkSim::bootstrap_group(const HarnessNode& node) {
  const bool apart =
      config_.malicious_mode == MaliciousMode::kSeparateOverlay && node.malicious;
  return bootstrap_groups_[apart ? 1 : 0];
}

std::size_t NetworkSim::index_of(const core::PeerId& peer) const {
  const auto it = addr_to_index_.find(peer.addr);
  AN_ENSURE_MSG(it != addr_to_index_.end(), "unknown peer address");
  return it->second;
}

bool NetworkSim::apply_adversary(HarnessNode& hn, core::ShuffleOffer& offer,
                                 const core::PeerId& partner) {
  // Mirrors the attack block in core::Node::on_round_reply, adapted to the
  // synchronous exchange: there is no cross-exchange gossip here, so the
  // equivocating claim is left inconsistent with the (honestly drawn) VRF
  // proofs and detection runs entirely through the responder's verify path.
  const core::AdversaryPolicy& adv = config_.adversary;
  bool mutated = false;
  if (adv.equivocate && (hn.adv_initiations++ % 2 == 1) &&
      !offer.history_suffix.empty() &&
      offer.history_suffix.back().kind != core::EntryKind::kLeave &&
      hn.rng.uniform01() < adv.attack_rate) {
    offer.history_suffix.back().in.push_back(fabricated_peer(hn.state->self().addr));
    offer.claimed_peerset =
        core::UpdateHistory::reconstruct(offer.history_suffix).sorted();
    mutated = true;
  }
  if (adv.bias_sample && hn.rng.uniform01() < adv.attack_rate) {
    // Swap a hand-picked member (a colluder if one is in reach) into the
    // sample while keeping the original proofs.
    std::optional<core::PeerId> sub;
    for (const auto& p : offer.claimed_peerset) {
      const bool in_sample =
          std::any_of(offer.sample.begin(), offer.sample.end(),
                      [&](const core::PeerId& s) { return s.addr == p.addr; });
      if (in_sample || p.addr == partner.addr || p.addr == hn.state->self().addr) {
        continue;
      }
      if (adv.colludes_with(p.addr)) {
        sub = p;
        break;
      }
      if (!sub) sub = p;
    }
    if (sub && !offer.sample.empty()) {
      offer.sample.front() = *sub;
      mutated = true;
    }
  }
  if (adv.forge_history && !offer.history_suffix.empty() &&
      !offer.history_suffix.back().signature.empty() &&
      hn.rng.uniform01() < adv.attack_rate) {
    offer.history_suffix.back().signature.front() ^= 0x01;
    mutated = true;
  }
  if (adv.truncate_history && !offer.history_suffix.empty() &&
      hn.rng.uniform01() < adv.attack_rate) {
    offer.history_suffix.erase(offer.history_suffix.begin());
    mutated = true;
  }
  return mutated;
}

void NetworkSim::quarantine(HarnessNode& observer, const core::PeerId& accused,
                            HarnessStats& stats, obs::TraceContext ctx) {
  if (!observer.quarantined.insert(accused.addr).second) return;
  ++stats.byz_quarantines;
  // Standing is part of the durable record: a quarantine must survive a
  // crash, or a restarted node would re-trust a peer it already caught.
  if (observer.journal) observer.journal->on_standing(accused.addr, false, "");
  if (tracer_ != nullptr) {
    const std::uint64_t s = tracer_->begin_span(
        "accuse.quarantine", observer.state->self().addr, sim_.now(), ctx);
    tracer_->attr(s, "peer", accused.addr);
    tracer_->end_span(s, sim_.now());
  }
  // Quarantine doubles as a local leave record so the accused drains from
  // the observer's peerset and the zombie purge keeps it out.
  record_leave(observer, accused, stats);
}

void NetworkSim::handle_dead_partner(std::size_t idx, std::size_t partner_idx) {
  HarnessNode& hn = *nodes_[idx];
  // Use the cached identity: a crashed partner has no NodeState to ask.
  const core::PeerId& leaver = nodes_[partner_idx]->self;
  hn.state->skip_round();
  record_leave(hn, leaver, stats_);
  // Inform the reporter's peers; each confirms liveness (the dead node
  // cannot answer a ping) and records the report.
  const auto peers = hn.state->peerset().sorted();
  for (const auto& p : peers) {
    const std::size_t pi = index_of(p);
    HarnessNode& peer = *nodes_[pi];
    if (!peer.alive || peer.reported_leavers.contains(leaver.addr)) continue;
    const auto [round, sig] = hn.state->make_leave_report(leaver);
    peer.state->apply_leave_report(hn.state->self(), round, sig, leaver);
    peer.reported_leavers.insert(leaver.addr);
  }
}

void NetworkSim::record_leave(HarnessNode& reporter_node, const core::PeerId& leaver,
                              HarnessStats& stats) {
  if (reporter_node.reported_leavers.contains(leaver.addr)) {
    // Already recorded once; just drop it again if it crept back.
    if (reporter_node.state->peerset().contains(leaver)) {
      const auto [round, sig] = reporter_node.state->make_leave_report(leaver);
      reporter_node.state->apply_leave_report(reporter_node.state->self(), round, sig,
                                              leaver);
    }
    return;
  }
  ++stats.leave_reports;
  reporter_node.reported_leavers.insert(leaver.addr);
  const auto [round, sig] = reporter_node.state->make_leave_report(leaver);
  reporter_node.state->apply_leave_report(reporter_node.state->self(), round, sig, leaver);
}

void NetworkSim::purge_zombies(HarnessNode& node) {
  if (node.reported_leavers.empty()) return;
  std::vector<core::PeerId> zombies;
  for (const auto& p : node.state->peerset().sorted()) {
    if (node.reported_leavers.contains(p.addr)) zombies.push_back(p);
  }
  for (const auto& z : zombies) {
    const auto [round, sig] = node.state->make_leave_report(z);
    node.state->apply_leave_report(node.state->self(), round, sig, z);
  }
}

void NetworkSim::update_coverage(HarnessNode& node) {
  if (!config_.track_coverage) return;
  if (node.coverage_bits.empty()) {
    node.coverage_bits.assign((nodes_.size() + 63) / 64, 0);
  }
  for (const auto& p : node.state->peerset().sorted()) {
    const std::size_t i = index_of(p);
    auto& word = node.coverage_bits[i / 64];
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if (!(word & bit)) {
      word |= bit;
      ++node.coverage_count;
    }
  }
}

// --- Shuffle drive -----------------------------------------------------------
//
// Every shuffle timer runs plan_shuffle at the event's own timestamp, in event
// order: partner selection, the refusal/fault legs, plan-time stats and the
// global-RNG draw. The expensive remainder — offer build + adversary mutation,
// offer verification, commit — runs in exec_event, and merge_event folds the
// results back and re-arms the timer. At threads <= 1 that happens at once,
// as a wave of one. At threads >= 2 the remainder is deferred into wave_ and
// executed in one pool pass at flush time over PROVABLY disjoint node pairs
// (any plan whose initiator or partner overlaps a pending event flushes
// first); each responder's engine verifies the offer itself, exactly as in a
// wave of one. See docs/PARALLELISM.md for the bit-identity argument.

void NetworkSim::plan_shuffle(std::size_t idx) {
  if (in_wave_[idx] != 0) flush_wave();
  WaveEvent& ev = next_;
  ev.skip = true;
  ev.idx = idx;
  ev.when = sim_.now();
  ev.root = 0;
  ev.scratch = HarnessStats{};
  HarnessNode& hn = *nodes_[idx];

  if (!hn.joined || hn.state->peerset().empty()) {
    dispatch_event();
    return;
  }
  ++stats_.shuffles_attempted;

  auto choice = core::choose_partner(*hn.state);
  if (!choice) {
    hn.state->skip_round();
    dispatch_event();
    return;
  }
  const std::size_t pidx = index_of(choice->partner);
  // `choice` stays valid across this flush: no pending event touches idx
  // (else we flushed above), so hn.state is exactly as choose_partner saw it.
  // Partner-side state is re-read below, AFTER the flush.
  if (in_wave_[pidx] != 0) flush_wave();
  HarnessNode& partner = *nodes_[pidx];

  // Root span for the synchronous exchange; ended with an outcome tag on
  // every exit path (here for refusals, in exec_event otherwise).
  if (tracer_ != nullptr) {
    ev.root = tracer_->begin_span("shuffle", hn.state->self().addr, sim_.now(), {});
    tracer_->attr(ev.root, "partner", choice->partner.addr);
    tracer_->attr(ev.root, "round", std::to_string(hn.state->round()));
  }
  // A refused exchange: the initiator burns the round; only the re-arm remains.
  const auto refuse = [&](const char* outcome) {
    close_span(ev.root, outcome);
    hn.state->skip_round();
    dispatch_event();
  };

  if (!partner.alive) {
    // The leave fan-out touches the initiator's whole peerset; settle the
    // network first.
    flush_wave();
    ++stats_.dead_partner_hits;
    close_span(ev.root, "dead_partner");
    handle_dead_partner(idx, pidx);
    dispatch_event();
    return;
  }
  if (partner.quarantined.contains(hn.state->self().addr) ||
      hn.quarantined.contains(partner.state->self().addr)) {
    // A quarantined pair refuses contact in either direction (mirrors
    // core::Node's inbound drop).
    ++stats_.byz_refused_quarantined;
    refuse("refused_quarantined");
    return;
  }
  if (faults_) {
    // Synchronous exchange: a drop on any of the four logical legs (or a
    // crashed endpoint) fails the whole shuffle. No retries here —
    // core::Node models those. The injector owns its RNG stream, so plan
    // order IS its sequential draw order.
    const std::string& a = hn.state->self().addr;
    const std::string& b = partner.state->self().addr;
    const sim::TimePoint t = sim_.now();
    const auto leg = [&](const std::string& from, const std::string& to,
                         core::MsgType type) {
      return faults_->decide(from, to, static_cast<std::uint32_t>(type), t).drop;
    };
    if (faults_->crashed(a, t) || faults_->crashed(b, t) ||
        leg(a, b, core::MsgType::kRoundQuery) ||
        leg(b, a, core::MsgType::kRoundReply) ||
        leg(a, b, core::MsgType::kShuffleOffer) ||
        leg(b, a, core::MsgType::kShuffleResponse)) {
      ++stats_.fault_failures;
      refuse("fault");
      return;
    }
  }

  // Full path. The verify draw comes ahead of the offer build, which is
  // safe: nothing in build consumes rng_ (make_offer and apply_adversary
  // only touch the node's own signer and rng).
  ev.skip = false;
  ev.pidx = pidx;
  ev.choice = std::move(*choice);
  ev.rj = partner.state->round();
  ev.verify = rng_.chance(config_.verify_fraction);
  if (ev.verify) ++stats_.shuffles_verified;
  dispatch_event();
}

void NetworkSim::dispatch_event() {
  WaveEvent& ev = next_;
  if (!parallel()) {
    // A wave of one, run at once on this thread.
    exec_event(ev);
    merge_event(ev);
    return;
  }
  const bool full = !ev.skip;
  if (full) {
    // Skip events register no conflict: the prologue already applied every
    // state effect.
    in_wave_[ev.idx] = 1;
    in_wave_[ev.pidx] = 1;
  }
  if (wave_.empty()) wave_deadline_ = ev.when + rearm_bound_;
  wave_.push_back(std::move(next_));
  if (full && wave_.size() >= kMaxWave) flush_wave();
}

void NetworkSim::exec_event(WaveEvent& ev) {
  if (ev.skip) return;
  HarnessNode& hn = *nodes_[ev.idx];
  HarnessNode& partner = *nodes_[ev.pidx];
  core::ShuffleOffer offer = core::make_offer(*hn.state, ev.choice, ev.rj);
  const bool attacked = hn.malicious && config_.adversary.any() &&
                        apply_adversary(hn, offer, ev.choice.partner);
  if (attacked) ++ev.scratch.byz_attacks;
  ev.history_sample = static_cast<double>(offer.history_suffix.size());
  // Partner leg: verify + commit happen on the responder, so they get their
  // own child span under the initiator's root.
  std::uint64_t respond = 0;
  if (ev.root != 0) {
    respond = tracer_->begin_span("shuffle.respond", partner.state->self().addr,
                                  sim_.now(), tracer_->context(ev.root));
  }
  if (ev.verify) {
    if (const auto v = core::verify_offer(offer, *partner.state, ev.rj, *partner.engine);
        !v) {
      if (attacked) {
        // Detection: the responder caught the mutation and quarantines the
        // initiator. Honest failures stay in verification_failures so the
        // "MUST stay 0 with honest nodes" invariant keeps its teeth.
        ++ev.scratch.byz_detections;
        quarantine(partner, hn.state->self(), ev.scratch,
                   respond != 0 ? tracer_->context(respond) : obs::TraceContext{});
      } else {
        ++ev.scratch.verification_failures;
      }
      close_span(respond, "verify_failed");
      close_span(ev.root, "rejected");
      hn.state->skip_round();
      return;
    }
  }
  const auto response = core::make_response_and_commit(*partner.state, offer);
  close_span(respond, "committed");
  if (ev.verify) {
    if (const auto v = core::verify_response(response, *hn.state, offer, *hn.engine);
        !v) {
      ++ev.scratch.verification_failures;
      close_span(ev.root, "response_rejected");
      hn.state->skip_round();
      return;
    }
  }
  core::apply_offer_outcome(*hn.state, offer, response);
  close_span(ev.root, "completed");
  ++ev.scratch.shuffles_completed;
  purge_zombies(hn);
  purge_zombies(partner);
  update_coverage(hn);
  update_coverage(partner);
  if (config_.track_shuffle_pairs) {
    // Rows idx and pidx belong to this event alone (node disjointness).
    shuffle_pairs_[ev.idx][ev.pidx] = 1;
    shuffle_pairs_[ev.pidx][ev.idx] = 1;
  }
}

void NetworkSim::merge_event(WaveEvent& ev) {
  if (!ev.skip) {
    history_samples_.add(ev.history_sample);
    stats_.shuffles_completed += ev.scratch.shuffles_completed;
    shuffle_delta_ += ev.scratch.shuffles_completed;
    stats_.verification_failures += ev.scratch.verification_failures;
    stats_.leave_reports += ev.scratch.leave_reports;
    stats_.byz_attacks += ev.scratch.byz_attacks;
    stats_.byz_detections += ev.scratch.byz_detections;
    stats_.byz_quarantines += ev.scratch.byz_quarantines;
  }
  rearm_shuffle_at(ev.idx, ev.when);
}

void NetworkSim::close_span(std::uint64_t span, const char* outcome) {
  if (span == 0) return;
  tracer_->attr(span, "outcome", outcome);
  tracer_->end_span(span, sim_.now());
}

void NetworkSim::flush_wave() {
  if (wave_.empty()) return;

  // One parallel pass: each event builds its offer and runs the exchange on
  // its own two nodes (disjoint by construction), the responder's engine
  // verifying the offer itself. Counter bumps go to the event's scratch.
  pool_->run(wave_.size(), [this](std::size_t i) { exec_event(wave_[i]); });

  // Sequential merge, in event order: fold scratch stats and history samples
  // back, then emit every deferred re-arm. Event order makes the float
  // accumulation, the per-node jitter draws and the re-arm sequence numbers
  // identical to a wave of one.
  for (WaveEvent& ev : wave_) {
    in_wave_[ev.idx] = 0;
    if (!ev.skip) in_wave_[ev.pidx] = 0;
    merge_event(ev);
  }
  wave_.clear();
}

void NetworkSim::drive_until(sim::TimePoint deadline) {
  while (true) {
    const std::optional<sim::TimePoint> next = sim_.next_event_time();
    if (!next || *next > deadline) {
      if (!wave_.empty()) {
        // The flush may schedule re-arms inside the deadline; loop again.
        flush_wave();
        continue;
      }
      break;
    }
    if (!wave_.empty() && *next > wave_deadline_) {
      // Stepping past wave_deadline_ could overtake a deferred re-arm's
      // absolute time; flush while every re-arm is still in the future.
      flush_wave();
      continue;
    }
    sim_.step();
  }
  sim_.run_until(deadline);  // advances the clock; queue is already drained
}

void NetworkSim::rearm_shuffle_at(std::size_t idx, sim::TimePoint event_when) {
  // A deferred re-arm keeps the absolute timestamp it would have had at
  // event_when; the wave_deadline_ rule guarantees that is still in the
  // future.
  HarnessNode& hn = *nodes_[idx];
  const double jitter = (hn.rng.uniform01() * 2.0 - 1.0) * config_.shuffle_jitter_frac;
  const auto delay = static_cast<sim::Duration>(
      static_cast<double>(config_.shuffle_period) * (1.0 + jitter));
  sim_.schedule_at(event_when + std::max<sim::Duration>(delay, 1), [this, idx] {
    if (nodes_[idx]->alive) plan_shuffle(idx);
  });
}

void NetworkSim::run(std::size_t rounds,
                     const std::function<void(std::size_t)>& on_analysis) {
  if (parallel()) {
    // Tracing and metric timing are per-event instrumentation on the hot
    // path; waves run events on worker threads, where both would race.
    AN_ENSURE_MSG(tracer_ == nullptr,
                  "wave-parallel drive (threads >= 2) is incompatible with tracing");
    AN_ENSURE_MSG(!metrics_.timing_enabled(),
                  "wave-parallel drive (threads >= 2) is incompatible with timing");
  }
  if (!run_started_) {
    run_started_ = true;
    drive_until(0);
    if (on_analysis) on_analysis(0);
  }
  for (std::size_t i = 0; i < rounds; ++i) {
    ++rounds_completed_;
    drive_until(static_cast<sim::TimePoint>(rounds_completed_) * config_.analysis_period);
    if (on_analysis) on_analysis(rounds_completed_);
  }
}

void NetworkSim::schedule_churn(std::size_t count, sim::TimePoint start,
                                sim::Duration window) {
  // Choose victims among nodes that will have launched by `start`.
  std::vector<std::size_t> pool;
  for (const auto& n : nodes_) {
    if (n->launch_at < start) pool.push_back(n->index);
  }
  AN_ENSURE_MSG(pool.size() >= count, "not enough nodes for churn");
  rng_.shuffle(pool);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t victim = pool[k];
    const auto when = start + (window > 0 ? rng_.uniform_range(0, window) : 0);
    sim_.schedule_at(when, [this, victim] {
      // Pending wave events may involve the victim; settle them first (they
      // all predate this event, so this is the sequential order).
      flush_wave();
      HarnessNode& hn = *nodes_[victim];
      if (!hn.alive) return;
      hn.alive = false;
      --alive_count_;
      if (hn.joined) {
        --joined_count_;
        bootstrap_group(hn).erase(victim);
      }
    });
  }
}

void NetworkSim::schedule_crash_restart(std::size_t idx, sim::TimePoint crash_at,
                                        sim::TimePoint restart_at) {
  AN_ENSURE_MSG(config_.durable_nodes, "crash/restart recovery needs durable_nodes");
  AN_ENSURE_MSG(restart_at > crash_at, "restart must follow the crash");
  AN_ENSURE(idx < nodes_.size());
  sim_.schedule_at(crash_at, [this, idx] {
    flush_wave();  // see schedule_churn
    HarnessNode& hn = *nodes_[idx];
    if (!hn.alive) return;
    hn.alive = false;  // also terminates the shuffle timer chain
    --alive_count_;
    if (hn.joined) {
      --joined_count_;
      bootstrap_group(hn).erase(idx);
    }
    hn.joined = false;
    // Process death: every byte of RAM is gone — protocol state, the
    // verification engine, leaver/quarantine sets, even the journal object. Only
    // hn.store (the disk) survives to seed recovery.
    hn.state.reset();
    hn.engine.reset();
    hn.journal.reset();
    hn.reported_leavers.clear();
    hn.quarantined.clear();
    ++recovery_crashes_;
  });
  sim_.schedule_at(restart_at, [this, idx] { restart_node(idx); });
}

void NetworkSim::restart_node(std::size_t idx) {
  flush_wave();  // see schedule_churn
  HarnessNode& hn = *nodes_[idx];
  if (hn.alive || hn.state != nullptr) return;  // the crash never fired
  // Reopen the data dir: a fresh journal over the surviving store, replayed
  // into recovery state exactly as a restarted process would.
  hn.journal = std::make_unique<storage::NodeStore>(hn.store);
  const core::RecoveredNode rec = hn.journal->load();
  hn.state = std::make_unique<core::NodeState>(
      hn.self, provider_->make_signer(hn.seed), node_config_);
  hn.state->set_journal(hn.journal.get());
  hn.state->restore(rec);
  for (const auto& s : rec.standing) {
    hn.quarantined.insert(s.addr);
    hn.reported_leavers.insert(s.addr);  // keeps the zombie purge armed
  }
  hn.engine = std::make_unique<core::VerificationEngine>(*provider_,
                                                         config_.verification,
                                                         &metrics_);
  hn.alive = true;
  hn.joined = true;
  ++alive_count_;
  ++joined_count_;
  bootstrap_group(hn).insert(idx);
  ++recovery_restarts_;
  recovery_entries_replayed_ += rec.entries.size();
  update_coverage(hn);
  rearm_shuffle_at(idx, sim_.now());
}

std::size_t NetworkSim::malicious_alive_count() const {
  std::size_t c = 0;
  for (const auto& n : nodes_) {
    if (n->alive && n->malicious) ++c;
  }
  return c;
}

bool NetworkSim::is_alive(std::size_t idx) const { return nodes_[idx]->alive; }
bool NetworkSim::is_malicious(std::size_t idx) const { return nodes_[idx]->malicious; }
bool NetworkSim::is_joined(std::size_t idx) const { return nodes_[idx]->joined; }

const core::NodeState& NetworkSim::node_state(std::size_t idx) const {
  return *nodes_[idx]->state;
}

analysis::Adjacency NetworkSim::snapshot_adjacency() const {
  analysis::Adjacency adj(nodes_.size());
  for (const auto& n : nodes_) {
    if (!n->alive || !n->joined) continue;
    auto& row = adj[n->index];
    for (const auto& p : n->state->peerset().sorted()) {
      row.push_back(index_of(p));
    }
    std::sort(row.begin(), row.end());
  }
  return adj;
}

std::vector<std::size_t> NetworkSim::neighborhood_indices(std::size_t idx,
                                                          std::size_t depth) const {
  // BFS over live peersets; dead nodes still count as neighbors if referenced
  // (their peersets no longer expand), matching what a query flood would see.
  std::vector<std::size_t> result;
  std::unordered_set<std::size_t> visited = {idx};
  std::vector<std::size_t> frontier = {idx};
  for (std::size_t level = 0; level < depth && !frontier.empty(); ++level) {
    std::vector<std::size_t> next;
    for (const std::size_t u : frontier) {
      const HarnessNode& un = *nodes_[u];
      if (!un.alive || !un.joined) continue;
      for (const auto& p : un.state->peerset().sorted()) {
        const std::size_t v = index_of(p);
        if (!nodes_[v]->alive) continue;  // ping test fails during discovery
        if (visited.insert(v).second) {
          result.push_back(v);
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }
  std::sort(result.begin(), result.end());
  return result;
}

double NetworkSim::sample_avg_neighborhood(std::size_t depth, std::size_t samples,
                                           Rng& rng) const {
  std::vector<std::size_t> alive;
  for (const auto& n : nodes_) {
    if (n->alive && n->joined) alive.push_back(n->index);
  }
  if (alive.empty()) return 0.0;
  RunningStats stats;
  const std::size_t count = std::min(samples, alive.size());
  for (const std::size_t i : rng.sample_indices(alive.size(), count)) {
    stats.add(static_cast<double>(neighborhood_indices(alive[i], depth).size()));
  }
  return stats.mean();
}

double NetworkSim::sample_avg_common(std::size_t depth, std::size_t pair_samples,
                                     Rng& rng) const {
  std::vector<std::size_t> alive;
  for (const auto& n : nodes_) {
    if (n->alive && n->joined) alive.push_back(n->index);
  }
  if (alive.size() < 2) return 0.0;
  RunningStats stats;
  for (std::size_t s = 0; s < pair_samples; ++s) {
    const std::size_t a = alive[rng.uniform(alive.size())];
    std::size_t b = a;
    while (b == a) b = alive[rng.uniform(alive.size())];
    const auto na = neighborhood_indices(a, depth);
    const auto nb = neighborhood_indices(b, depth);
    std::vector<std::size_t> common;
    std::set_intersection(na.begin(), na.end(), nb.begin(), nb.end(),
                          std::back_inserter(common));
    stats.add(static_cast<double>(common.size()));
  }
  return stats.mean();
}

Samples NetworkSim::sample_neighbor_malicious_fraction(std::size_t depth,
                                                       std::size_t samples,
                                                       Rng& rng) const {
  std::vector<std::size_t> alive;
  for (const auto& n : nodes_) {
    if (n->alive && n->joined && !n->malicious) alive.push_back(n->index);
  }
  Samples out;
  if (alive.empty()) return out;
  const std::size_t count = std::min(samples, alive.size());
  for (const std::size_t i : rng.sample_indices(alive.size(), count)) {
    const auto nbh = neighborhood_indices(alive[i], depth);
    if (nbh.empty()) continue;
    std::size_t bad = 0;
    for (const std::size_t v : nbh) {
      if (nodes_[v]->malicious) ++bad;
    }
    out.add(static_cast<double>(bad) / static_cast<double>(nbh.size()));
  }
  return out;
}

Samples NetworkSim::sample_candidate_malicious_fraction(std::size_t depth,
                                                        std::size_t witness_count,
                                                        std::size_t pair_samples,
                                                        Rng& rng,
                                                        bool exclude_common) const {
  std::vector<std::size_t> alive;
  for (const auto& n : nodes_) {
    if (n->alive && n->joined) alive.push_back(n->index);
  }
  Samples out;
  if (alive.size() < 2) return out;
  for (std::size_t s = 0; s < pair_samples; ++s) {
    const std::size_t a = alive[rng.uniform(alive.size())];
    std::size_t b = a;
    while (b == a) b = alive[rng.uniform(alive.size())];

    auto to_peers = [&](const std::vector<std::size_t>& idxs) {
      std::vector<core::PeerId> peers;
      peers.reserve(idxs.size());
      for (const std::size_t i : idxs) peers.push_back(nodes_[i]->state->self());
      return peers;  // sorted because addresses sort with indices
    };
    std::vector<std::size_t> na = neighborhood_indices(a, depth);
    std::vector<std::size_t> nb = neighborhood_indices(b, depth);
    if (na.empty() && nb.empty()) continue;

    if (!exclude_common) {
      // Ablation: no common-node exclusion — candidates are the raw sets.
      std::size_t bad = 0, total = 0;
      for (const auto* set : {&na, &nb}) {
        for (const std::size_t v : *set) {
          ++total;
          if (nodes_[v]->malicious) ++bad;
        }
      }
      if (total > 0) out.add(static_cast<double>(bad) / static_cast<double>(total));
      continue;
    }

    const auto plan = core::plan_witness_group(to_peers(na), to_peers(nb),
                                               nodes_[a]->state->self(),
                                               nodes_[b]->state->self(), witness_count);
    auto frac_bad = [&](const std::vector<core::PeerId>& cands) {
      if (cands.empty()) return 0.0;
      std::size_t bad = 0;
      for (const auto& p : cands) {
        if (nodes_[index_of(p)]->malicious) ++bad;
      }
      return static_cast<double>(bad) / static_cast<double>(cands.size());
    };
    const double denom = static_cast<double>(plan.quota_producer + plan.quota_consumer);
    if (denom == 0) continue;
    const double p = (static_cast<double>(plan.quota_producer) * frac_bad(plan.candidates_producer) +
                      static_cast<double>(plan.quota_consumer) * frac_bad(plan.candidates_consumer)) /
                     denom;
    out.add(p);
  }
  return out;
}

Samples NetworkSim::take_history_length_samples() {
  Samples out = std::move(history_samples_);
  history_samples_ = Samples{};
  return out;
}

std::uint64_t NetworkSim::take_shuffle_delta() {
  const std::uint64_t d = shuffle_delta_;
  shuffle_delta_ = 0;
  return d;
}

Samples NetworkSim::coverage_counts() const {
  AN_ENSURE_MSG(config_.track_coverage, "coverage tracking disabled");
  Samples out;
  for (const auto& n : nodes_) {
    if (n->alive && n->joined) out.add(static_cast<double>(n->coverage_count));
  }
  return out;
}

bool NetworkSim::ever_shuffled(std::size_t i, std::size_t j) const {
  AN_ENSURE_MSG(config_.track_shuffle_pairs, "pair tracking disabled");
  return shuffle_pairs_[i][j] != 0;
}

std::size_t NetworkSim::quarantined_by_count(std::size_t accused) const {
  const std::string& addr = nodes_[accused]->self.addr;  // valid even mid-crash
  std::size_t c = 0;
  for (const auto& n : nodes_) {
    if (n->alive && !n->malicious && n->quarantined.contains(addr)) ++c;
  }
  return c;
}

std::vector<core::HistoryEntry> NetworkSim::journal_entries(std::size_t idx,
                                                            std::uint64_t start,
                                                            std::size_t count) const {
  AN_ENSURE_MSG(config_.durable_nodes, "journal introspection needs durable_nodes");
  const HarnessNode& hn = *nodes_[idx];
  AN_ENSURE_MSG(hn.journal != nullptr, "node is mid-crash; journal not open");
  return hn.journal->read_entries(start, count);
}

std::size_t NetworkSim::quarantine_edges() const {
  std::size_t c = 0;
  for (const auto& n : nodes_) {
    if (n->alive) c += n->quarantined.size();
  }
  return c;
}

}  // namespace accountnet::harness
