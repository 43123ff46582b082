// Protocol-visible state of one AccountNet participant: peerset, round
// counter, update history and signing identity. The shuffle/witness engines
// operate on this state; transport concerns live elsewhere (core/node.hpp for
// the event-driven actor, harness/ for the synchronous simulation driver).
//
// The state also keeps, per current peer, the global index of the history
// entry that last inserted it (updated in place at every commit), so the
// length of a history proof (proof_span) takes O(f) and reads no entry.
#pragma once

#include <memory>
#include <optional>

#include "accountnet/core/checkpoint.hpp"
#include "accountnet/core/history.hpp"
#include "accountnet/core/peerset.hpp"
#include "accountnet/core/sampler.hpp"
#include "accountnet/core/types.hpp"

namespace accountnet::core {

/// Network-wide default for retained history entries. The event-driven node
/// and the simulation harness share this value — they previously diverged
/// (512 vs 96), silently giving the two drivers different proof-degradation
/// behavior. bench/abl_history_limit measures the safe floor per (f, L); 96
/// clears it for every paper configuration, and checkpoint anchoring
/// (checkpoint.hpp) removes the floor entirely.
inline constexpr std::size_t kDefaultHistoryLimit = 96;

struct NodeConfig {
  std::size_t max_peerset = 10;    ///< f — maximum peerset size.
  std::size_t shuffle_length = 5;  ///< L — peers exchanged per shuffle.
  /// Retained history entries (0 = unlimited). With checkpointing on, unsealed
  /// entries are always retained regardless of this bound.
  std::size_t history_limit = kDefaultHistoryLimit;
  /// Seal a signed checkpoint every this many appended entries (0 = never,
  /// the default: checkpointing is opt-in and changes no wire bytes when off).
  std::uint64_t checkpoint_interval = 0;
  /// Verifiable-sampling backend for every draw (core/sampler.hpp). Must be
  /// identical network-wide; proofs from one backend never verify under
  /// another (domain separation). kVrf is the paper's algorithm.
  SamplerKind sampler = SamplerKind::kVrf;
};

class NodeState {
 public:
  NodeState(PeerId self, std::unique_ptr<crypto::Signer> signer, NodeConfig config);

  const PeerId& self() const { return self_; }
  Round round() const { return round_; }
  const Peerset& peerset() const { return peerset_; }
  const UpdateHistory& history() const { return history_; }
  const NodeConfig& config() const { return config_; }
  const crypto::Signer& signer() const { return *signer_; }

  /// Signature over the node's current round (σ_i(r_i)), handed to shuffle
  /// counterparts as the forgery-preventing nonce acknowledgement.
  Bytes sign_current_round() const;

  /// Seeds the very first node(s) of a network: empty peerset, round 0,
  /// no join entry (there is no bootstrap to stamp them).
  void init_as_seed();

  /// Applies a bootstrap join (Sec. IV-A "Network join"): the sampled
  /// initial peerset plus the bootstrap's entry stamp become ω_{i,0}.
  void apply_join(const PeerId& bootstrap, Bytes entry_stamp,
                  std::vector<PeerId> initial_peers);

  /// Records a peer-leave report (ours or relayed) and drops the peer.
  /// `reporter`/`reporter_round`/`signature` identify who vouches for the
  /// leave; the entry is added regardless of current membership (Sec. IV-A).
  void apply_leave_report(const PeerId& reporter, Round reporter_round,
                          Bytes signature, const PeerId& leaver);

  /// Creates this node's own leave report for `leaver` (reporter = self).
  /// Returns the (reporter_round, signature) pair peers need to record it.
  std::pair<Round, Bytes> make_leave_report(const PeerId& leaver) const;

  /// Low-level mutators used by the shuffle engine.
  void commit_shuffle(HistoryEntry entry, Peerset next_peerset);
  /// Burns a round without a peerset change (failed/aborted shuffle).
  void skip_round();

  /// The entries a history proof of the current peerset ships — the one
  /// proof rule, which make_history_proof() (shuffle.hpp) copies: the
  /// minimal suffix whose replay from ∅ reconstructs the peerset (the
  /// quantity Fig. 16 measures); when trimming cut that suffix, the unsealed
  /// tail anchored on checkpoint() if one is sealed, else the whole retained
  /// window. O(f): reads the insertion indices kept at commit, no entry.
  struct ProofSpan {
    std::uint64_t first = 0;  ///< Global index of the oldest entry shipped.
    std::size_t length = 0;   ///< Entries shipped: [first, total_appended()).
    bool anchored = false;    ///< Replayed from checkpoint() instead of ∅.
  };
  ProofSpan proof_span() const;

  /// Latest sealed checkpoint (nullopt until checkpoint_interval entries
  /// accumulate, or always when checkpointing is off).
  const std::optional<Checkpoint>& checkpoint() const { return checkpoint_; }

  /// Attaches a durability journal (non-owning; may be null). Every commit
  /// path notifies it *before* mutating in-memory state (write-ahead), so a
  /// crash between the two leaves the journal ahead, never behind.
  void set_journal(HistoryJournal* journal) { journal_ = journal; }
  HistoryJournal* journal() const { return journal_; }

  /// Rebuilds a freshly constructed state from recovered durable state:
  /// replays the retained entry window (peerset from the sealed checkpoint
  /// base when one exists, from ∅ otherwise) and resumes past the recorded
  /// round high-water mark. The journal is NOT notified during restore.
  void restore(const RecoveredNode& rec);

 private:
  void journal_entry(const HistoryEntry& e);
  void journal_round();
  void maybe_seal();
  void trim_history();
  void track_commit(const HistoryEntry& e, const Peerset& next);

  /// No retained or replayed entry inserted the peer (a restored checkpoint
  /// base): any proof from ∅ must reach past the window.
  static constexpr std::int64_t kNoEntry = -1;

  PeerId self_;
  std::unique_ptr<crypto::Signer> signer_;
  NodeConfig config_;
  Round round_ = 0;
  Peerset peerset_;
  /// Parallel to peerset_.sorted(): global index of the entry that last
  /// inserted (in or fill) each current peer, or kNoEntry.
  std::vector<std::int64_t> inserted_at_;
  UpdateHistory history_;
  std::optional<Checkpoint> checkpoint_;
  HistoryJournal* journal_ = nullptr;
};

}  // namespace accountnet::core
