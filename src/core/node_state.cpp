#include "accountnet/core/node_state.hpp"

#include <algorithm>

#include "accountnet/util/ensure.hpp"

namespace accountnet::core {

namespace {

std::optional<std::size_t> position(const Peerset& set, const PeerId& p) {
  const auto& sorted = set.sorted();
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), p);
  if (it == sorted.end() || !(*it == p)) return std::nullopt;
  return static_cast<std::size_t>(it - sorted.begin());
}

bool mentions(const std::vector<PeerId>& peers, const PeerId& p) {
  return std::find(peers.begin(), peers.end(), p) != peers.end();
}

}  // namespace

NodeState::NodeState(PeerId self, std::unique_ptr<crypto::Signer> signer,
                     NodeConfig config)
    : self_(std::move(self)), signer_(std::move(signer)), config_(config) {
  AN_ENSURE(signer_ != nullptr);
  AN_ENSURE_MSG(config_.shuffle_length >= 1, "L must be >= 1");
  AN_ENSURE_MSG(config_.max_peerset >= config_.shuffle_length,
                "f must be >= L (cannot exchange more peers than the set holds)");
  AN_ENSURE_MSG(self_.key == signer_->public_key(), "PeerId key must match signer");
  inserted_at_.reserve(config_.max_peerset);  // commits then never reallocate it
}

Bytes NodeState::sign_current_round() const {
  return signer_->sign(shuffle_nonce_payload(round_));
}

void NodeState::init_as_seed() {
  AN_ENSURE_MSG(round_ == 0 && history_.empty(), "init_as_seed on a used node");
}

void NodeState::apply_join(const PeerId& bootstrap, Bytes entry_stamp,
                           std::vector<PeerId> initial_peers) {
  AN_ENSURE_MSG(round_ == 0 && history_.empty(), "join on a used node");
  HistoryEntry e;
  e.kind = EntryKind::kJoin;
  e.self_round = 0;
  e.counterpart = bootstrap;
  e.nonce = 0;
  e.signature = std::move(entry_stamp);
  Peerset initial;
  for (auto& p : initial_peers) {
    if (p == self_) continue;
    if (initial.size() >= config_.max_peerset) break;
    if (initial.insert(p)) e.in.push_back(p);
  }
  journal_entry(e);
  history_.append(std::move(e));
  track_commit(history_.back(), initial);
  peerset_ = std::move(initial);
  round_ = 1;
  journal_round();
  maybe_seal();
}

void NodeState::apply_leave_report(const PeerId& reporter, Round reporter_round,
                                   Bytes signature, const PeerId& leaver) {
  HistoryEntry e;
  e.kind = EntryKind::kLeave;
  e.self_round = round_;
  e.counterpart = reporter;
  e.nonce = reporter_round;
  e.signature = std::move(signature);
  e.out.push_back(leaver);
  journal_entry(e);
  history_.append(std::move(e));
  if (const auto pos = position(peerset_, leaver)) {
    inserted_at_.erase(inserted_at_.begin() + static_cast<std::ptrdiff_t>(*pos));
    peerset_.erase(leaver);
  }
  ++round_;
  journal_round();
  maybe_seal();
  trim_history();
}

std::pair<Round, Bytes> NodeState::make_leave_report(const PeerId& leaver) const {
  return {round_, signer_->sign(leave_payload(round_, leaver.addr))};
}

void NodeState::commit_shuffle(HistoryEntry entry, Peerset next_peerset) {
  AN_ENSURE_MSG(entry.self_round == round_, "shuffle entry round mismatch");
  AN_ENSURE_MSG(next_peerset.size() <= config_.max_peerset, "peerset overflow");
  journal_entry(entry);
  history_.append(std::move(entry));
  track_commit(history_.back(), next_peerset);
  peerset_ = std::move(next_peerset);
  ++round_;
  journal_round();
  maybe_seal();
  trim_history();
}

void NodeState::track_commit(const HistoryEntry& e, const Peerset& next) {
  // Re-aligns inserted_at_ from peerset_ (before the commit) to `next`, in
  // place: a peer that stays keeps its index, a peer `e` inserts gets e's.
  const auto at = static_cast<std::int64_t>(history_.total_appended() - 1);
  const auto& old = peerset_.sorted();
  const auto& now = next.sorted();
  // Forward pass: compact the indices of the peers that stay, in order.
  std::size_t kept = 0;
  for (std::size_t i = 0, j = 0; i < old.size(); ++i) {
    while (j < now.size() && now[j] < old[i]) ++j;
    if (j < now.size() && now[j] == old[i]) inserted_at_[kept++] = inserted_at_[i];
  }
  // Backward pass: spread them to their slots in `next`. The stayers are a
  // subset of `next`, so the slot written is never below the next one read.
  inserted_at_.resize(now.size());
  for (std::size_t j = now.size(), i = old.size(); j-- > 0;) {
    while (i > 0 && now[j] < old[i - 1]) --i;
    std::int64_t v = kNoEntry;
    if (i > 0 && old[i - 1] == now[j]) {
      v = inserted_at_[--kept];
      --i;
    }
    if (mentions(e.in, now[j]) || mentions(e.fill, now[j])) v = at;
    inserted_at_[j] = v;
  }
}

NodeState::ProofSpan NodeState::proof_span() const {
  const std::uint64_t total = history_.total_appended();
  auto oldest = static_cast<std::int64_t>(total);
  for (const std::int64_t at : inserted_at_) oldest = std::min(oldest, at);
  std::uint64_t first = 0;
  bool anchored = false;
  if (oldest >= static_cast<std::int64_t>(history_.first_index())) {
    first = static_cast<std::uint64_t>(oldest);  // the minimal suffix
  } else if (checkpoint_) {
    first = checkpoint_->sealed_count;  // unsealed entries are never trimmed
    anchored = true;
  } else {
    first = history_.first_index();  // degraded: everything retained
  }
  return {first, static_cast<std::size_t>(total - first), anchored};
}

void NodeState::skip_round() {
  ++round_;
  journal_round();
}

void NodeState::journal_entry(const HistoryEntry& e) {
  if (journal_ != nullptr) journal_->on_entry(history_.total_appended(), e);
}

void NodeState::journal_round() {
  if (journal_ != nullptr) journal_->on_round(round_);
}

void NodeState::maybe_seal() {
  if (config_.checkpoint_interval == 0 || history_.total_appended() == 0) return;
  const std::uint64_t sealed = checkpoint_ ? checkpoint_->sealed_count : 0;
  if (history_.total_appended() - sealed < config_.checkpoint_interval) return;
  Checkpoint ck;
  ck.owner = self_;
  ck.epoch = checkpoint_ ? checkpoint_->epoch + 1 : 1;
  ck.sealed_count = history_.total_appended();
  ck.last_round = history_.back().self_round;
  ck.chain = history_.chain();
  ck.peerset = peerset_.sorted();
  ck.owner_sig = signer_->sign(ck.signing_payload());
  checkpoint_ = std::move(ck);
  if (journal_ != nullptr) journal_->on_checkpoint(*checkpoint_);
}

void NodeState::trim_history() {
  if (config_.history_limit == 0) return;
  // With checkpointing on, unsealed entries are never trimmed — including
  // before the FIRST seal, when everything is unsealed. Anchored proofs
  // replay the unsealed tail from the checkpoint base (or, pre-seal, plain
  // proofs still have the whole history), so the retained window is
  // max(limit, unsealed count), bounded by max(limit, checkpoint_interval).
  // With checkpointing off this is exactly the historical behavior.
  std::size_t keep = config_.history_limit;
  if (config_.checkpoint_interval > 0) {
    const std::uint64_t sealed = checkpoint_ ? checkpoint_->sealed_count : 0;
    keep = std::max(keep, static_cast<std::size_t>(history_.total_appended() - sealed));
  }
  history_.trim(keep);
}

void NodeState::restore(const RecoveredNode& rec) {
  AN_ENSURE_MSG(round_ == 0 && history_.empty(), "restore on a used node");
  if (rec.checkpoint) {
    AN_ENSURE_MSG(rec.checkpoint->owner == self_, "recovered checkpoint owner mismatch");
    AN_ENSURE_MSG(rec.first_index <= rec.checkpoint->sealed_count,
                  "compacted past the sealed boundary");
  } else {
    AN_ENSURE_MSG(rec.first_index == 0, "compaction requires a checkpoint");
  }
  history_ = UpdateHistory::restore(rec.base_chain, rec.first_index, rec.entries);
  checkpoint_ = rec.checkpoint;
  if (checkpoint_) {
    AN_ENSURE_MSG(checkpoint_->sealed_count <= history_.total_appended(),
                  "recovered checkpoint seals entries the store does not hold");
    AN_ENSURE_MSG(history_.chain_at(checkpoint_->sealed_count) == checkpoint_->chain,
                  "recovered entries contradict the sealed checkpoint digest");
    // Peerset: sealed base, then the unsealed tail's deltas.
    Peerset n{std::vector<PeerId>(checkpoint_->peerset)};
    for (const auto& e :
         history_.entries_from(checkpoint_->sealed_count,
                               static_cast<std::size_t>(history_.total_appended() -
                                                        checkpoint_->sealed_count))) {
      for (const auto& p : e.out) n.erase(p);
      n.insert_all(e.in);
      n.insert_all(e.fill);
    }
    peerset_ = std::move(n);
  } else {
    peerset_ = UpdateHistory::reconstruct(rec.entries);
  }
  inserted_at_.assign(peerset_.size(), kNoEntry);
  auto at = static_cast<std::int64_t>(history_.first_index());
  for (const auto& e : history_.entries()) {
    for (const auto* added : {&e.in, &e.fill}) {
      for (const auto& p : *added) {
        if (const auto pos = position(peerset_, p)) inserted_at_[*pos] = at;
      }
    }
    ++at;
  }
  Round next = rec.next_round;
  if (!history_.empty()) next = std::max(next, history_.back().self_round + 1);
  round_ = next;
}

}  // namespace accountnet::core
