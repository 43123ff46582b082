// Signed history checkpoints and catch-up segments (durability layer).
//
// A node periodically seals its peerset-update history prefix into a
// self-certifying Checkpoint: (owner, epoch, sealed entry count, last sealed
// round, rolling chain digest over the sealed prefix, peerset at seal time),
// signed by the owner. The chain digest is history.hpp's rolling form —
// c_k = SHA256(c_{k-1} ‖ SHA256(encode_entry(e_k))) from
// c_0 = 0^32 — so a checkpoint commits to the exact wire bytes of every
// sealed entry.
//
// Checkpoints serve two roles:
//
//  1. Verification anchor. verify_history_suffix_anchored() accepts a
//     checkpoint plus only the post-checkpoint entries: the verifier checks
//     the owner's checkpoint signature and replays the suffix from the
//     sealed peerset instead of from ∅, so history trimming no longer
//     degrades proofs (the pre-PR behavior measured by bench/abl_history_limit).
//
//  2. Catch-up sync. A checkpoint announce tells counterparts how much
//     sealed history the owner holds; lagging or freshly recovered peers
//     fetch the missing entry range in bounded SegmentData chunks and verify
//     each tail chunk against the announced chain digest, fail-closed. A
//     server whose signed segment contradicts its own signed checkpoint is
//     convicted through the standard accusation pipeline
//     (AccusationKind::kSegmentMismatch).
//
// HistoryJournal is the write-side interface the durable store implements
// (storage/node_store.hpp); RecoveredNode is the read-side result a restarted
// node rebuilds its NodeState from.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "accountnet/core/history.hpp"

namespace accountnet::core {

struct Checkpoint {
  PeerId owner;
  std::uint64_t epoch = 0;         ///< Seal sequence number, starts at 1.
  std::uint64_t sealed_count = 0;  ///< Entries covered (a total_appended() value).
  Round last_round = 0;            ///< self_round of the last sealed entry.
  ChainDigest chain{};             ///< Rolling chain over the sealed prefix.
  std::vector<PeerId> peerset;     ///< Owner's peerset at seal time (sorted).
  Bytes owner_sig;                 ///< σ_owner over signing_payload().

  Bytes encode() const;       ///< full wire form (includes owner_sig)
  Bytes encode_core() const;  ///< without owner_sig (the signed portion)
  static Checkpoint decode(BytesView data);  ///< throws wire::DecodeError

  /// What the owner signs: "an.ckpt" + SHA-256(encode_core()).
  Bytes signing_payload() const;

  friend bool operator==(const Checkpoint&, const Checkpoint&) = default;
};

/// Embeddable forms for composite messages (anchored offers, announces).
void encode_checkpoint(wire::Writer& w, const Checkpoint& ck);
Checkpoint decode_checkpoint(wire::Reader& r);

/// Folds `entries` (oldest first) onto a chain value.
ChainDigest fold_chain(ChainDigest base, const std::vector<HistoryEntry>& entries);

/// Structural + cryptographic checks on a checkpoint claimed by
/// `expected_owner`: owner identity matches (address AND key —
/// kCheckpointOwnerMismatch), epoch and sealed count positive, peerset
/// strictly sorted and owner-free (kCheckpointMalformed), owner signature
/// valid (kCheckpointBadSignature).
VerifyResult verify_checkpoint(const Checkpoint& ck, const PeerId& expected_owner,
                               const crypto::CryptoProvider& provider);

/// Checkpoint-anchored variant of verify_history_suffix(): checks the
/// checkpoint itself, then only the post-checkpoint `suffix` (rounds must
/// ascend from ck.last_round; counterpart signatures per entry kind), and
/// finally that replaying the suffix deltas onto the sealed peerset yields
/// `claimed` — verify_history_from() (history.hpp) with the checkpoint's
/// last round and peerset. Trimmed-away sealed entries are never needed.
VerifyResult verify_history_suffix_anchored(const Checkpoint& ck,
                                            const std::vector<HistoryEntry>& suffix,
                                            const PeerId& owner, const Peerset& claimed,
                                            const crypto::CryptoProvider& provider);

// ---------------------------------------------------------------------------
// Catch-up sync wire messages (node.cpp: kCheckpointAnnounce, kSegmentRequest,
// kSegmentData).

struct CheckpointAnnounce {
  Checkpoint checkpoint;
  bool want_reply = false;  ///< Set by a freshly recovered node: "announce back".

  Bytes encode() const;
  static CheckpointAnnounce decode(BytesView data);
};

/// Asks for the owner's history entries with global index in [start, end).
struct SegmentRequest {
  std::uint64_t request_id = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;  ///< exclusive

  Bytes encode() const;
  static SegmentRequest decode(BytesView data);
};

/// A server-signed slice of the server's own history: `entries` are the
/// global-index range [start, start+entries.size()), and `base_chain` is the
/// server's claimed chain digest over [0, start). The signature makes the
/// slice transferable evidence: a slice inconsistent with the same server's
/// signed checkpoint convicts it (segment_contradicts_checkpoint()).
struct SegmentData {
  std::uint64_t request_id = 0;
  PeerId server;
  std::uint64_t start = 0;
  ChainDigest base_chain{};
  std::vector<HistoryEntry> entries;
  Bytes server_sig;  ///< σ_server over signing_payload().

  Bytes encode() const;       ///< full wire form (includes server_sig)
  Bytes encode_core() const;  ///< without server_sig (the signed portion)
  static SegmentData decode(BytesView data);

  /// What the server signs: "an.segment" + SHA-256(encode_core()).
  Bytes signing_payload() const;
};

/// Offline-decidable contradiction between a segment and a checkpoint signed
/// by the same node (both signatures assumed already checked). True iff the
/// segment reaches the sealed boundary with a fold that misses ck.chain, or
/// claims a different full-prefix chain at the boundary. Mid-prefix slices
/// are not decidable offline (the checkpoint only commits the total fold).
bool segment_contradicts_checkpoint(const SegmentData& seg, const Checkpoint& ck);

// ---------------------------------------------------------------------------
// Durable-store interfaces.

/// Write-side journal a NodeState (and its owning Node) streams state changes
/// into. Implementations must be durable against process death after each
/// call returns (storage/node_store.hpp) or deterministic in-memory fakes
/// (tests, harness). Default no-ops let callers implement only what they use.
class HistoryJournal {
 public:
  virtual ~HistoryJournal() = default;
  /// A history entry was committed at global index `index`.
  virtual void on_entry(std::uint64_t index, const HistoryEntry& entry) = 0;
  /// A checkpoint was sealed (sealed entries may now be compacted).
  virtual void on_checkpoint(const Checkpoint& ck) = 0;
  /// The node's round advanced to `next_round` without a history entry.
  virtual void on_round(Round next_round) = 0;
  /// Peer standing changed: quarantined, or evicted after enough accusers.
  virtual void on_standing(const std::string& /*addr*/, bool /*evicted*/,
                           const std::string& /*accuser*/) {}
  /// Read-back for catch-up serving: journaled entries with global index in
  /// [start, start+count), oldest first, stopping early at the journal's
  /// end. The default (no read support) serves nothing.
  virtual std::vector<HistoryEntry> read_entries(std::uint64_t /*start*/,
                                                 std::size_t /*count*/) const {
    return {};
  }
};

/// Everything a restarted node needs to resume with its pre-crash identity
/// of record: the retained entry window, the latest sealed checkpoint, the
/// round high-water mark, and peer standing (quarantines / evictions).
struct RecoveredNode {
  /// Retained entries, oldest first; entries[i] has global index
  /// first_index + i. Pre-first_index entries were compacted after sealing.
  std::vector<HistoryEntry> entries;
  std::uint64_t first_index = 0;
  /// Chain digest over the compacted [0, first_index) prefix.
  ChainDigest base_chain{};
  std::optional<Checkpoint> checkpoint;
  Round next_round = 0;  ///< Journal-recorded round high-water mark.

  struct Standing {
    std::string addr;
    bool evicted = false;
    std::vector<std::string> accusers;
  };
  std::vector<Standing> standing;
};

}  // namespace accountnet::core
