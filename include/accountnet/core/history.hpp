// Peerset Update History (Sec. IV-A).
//
// Every change to a node's peerset is recorded as an entry
//   ω_{i,r} = (v_j, σ_j(nonce), nonce, out, in, fill)
// and the ordered list Ω_i is handed to counterparts, who *reconstruct* the
// claimed peerset by replaying the deltas:
//   N̂[r] = (N̂[r-1] − out) ∪ in ∪ fill,  N̂[a-1] = ∅.
//
// The out/in/fill fields record the deltas actually applied, so replaying a
// suffix that covers the last insertion of every current peer reconstructs
// the peerset exactly. How much history a node must ship (the quantity
// Fig. 16 measures) is kept by its NodeState, which records at commit which
// entry last inserted each current peer (NodeState::proof_span).
//
// Signatures are domain-separated by entry kind:
//   join    — bootstrap signs   "an.join"    ‖ joiner address   (entry stamp)
//   shuffle — counterpart signs "an.shuffle" ‖ its round number
//   leave   — reporter signs    "an.leave"   ‖ its round ‖ leaver address
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "accountnet/core/peerset.hpp"
#include "accountnet/core/types.hpp"
#include "accountnet/core/verify.hpp"
#include "accountnet/wire/codec.hpp"

namespace accountnet::core {

enum class EntryKind : std::uint8_t {
  kJoin = 1,
  kShuffle = 2,
  kLeave = 3,
};

struct HistoryEntry {
  EntryKind kind = EntryKind::kShuffle;
  Round self_round = 0;       ///< The owner's round when the entry was made.
  PeerId counterpart;         ///< Shuffle partner / bootstrap / leave reporter.
  Round nonce = 0;            ///< Counterpart round (shuffle/leave); 0 for join.
  Bytes signature;            ///< Counterpart's signature over the nonce payload.
  bool initiated = false;     ///< True if the owner initiated the shuffle.
  std::vector<PeerId> out;    ///< Peers removed at this round.
  std::vector<PeerId> in;     ///< Peers added (learned from the counterpart).
  std::vector<PeerId> fill;   ///< Refills drawn back from the outgoing set.

  friend bool operator==(const HistoryEntry&, const HistoryEntry&) = default;
};

/// Signing payload builders (domain-separated; see file comment).
Bytes join_stamp_payload(const std::string& joiner_addr);
Bytes shuffle_nonce_payload(Round counterpart_round);
Bytes leave_payload(Round reporter_round, const std::string& leaver_addr);

/// Wire encoding.
void encode_peer(wire::Writer& w, const PeerId& p);
PeerId decode_peer(wire::Reader& r);
void encode_entry(wire::Writer& w, const HistoryEntry& e);
HistoryEntry decode_entry(wire::Reader& r);
/// Varint-counted lists. Decoding fails closed: a count above 100 000
/// throws wire::DecodeError before anything is allocated.
void encode_peer_list(wire::Writer& w, const std::vector<PeerId>& peers);
std::vector<PeerId> decode_peer_list(wire::Reader& r);
void encode_bytes_list(wire::Writer& w, const std::vector<Bytes>& list);
std::vector<Bytes> decode_bytes_list(wire::Reader& r);

/// Rolling chain digest over an entry sequence, shared by UpdateHistory and
/// signed checkpoints (checkpoint.hpp):
/// c_k = SHA256(c_{k-1} ‖ SHA256(encode_entry(e_k))), c_0 = 0^32. A chain
/// value commits to the exact wire bytes of every entry it folded, so equal
/// chains over equal counts mean byte-identical prefixes.
using ChainDigest = std::array<std::uint8_t, 32>;
ChainDigest entry_digest(const HistoryEntry& e);
ChainDigest chain_step(const ChainDigest& prev, const ChainDigest& entry);

/// Ω_i, stored as the encode_entry() bytes of each retained entry — the
/// bytes entry_digest() hashes and the chain commits to — in one buffer.
/// Readers decode on demand.
class UpdateHistory {
 public:
  /// Encodes `entry` once into the store and folds those bytes into chain().
  void append(const HistoryEntry& entry);

  /// Retained entries: total_appended() - first_index().
  std::size_t size() const { return offsets_.size() - head_; }
  bool empty() const { return size() == 0; }
  /// self_round of the newest retained entry; the history must not be empty.
  Round last_round() const;

  /// Rolling chain over *every* entry ever appended (trim-independent).
  const ChainDigest& chain() const { return chain_; }

  /// Chain over the trimmed-away prefix: chain_at(first_index()).
  const ChainDigest& base_chain() const { return base_chain_; }

  /// Global index of the oldest retained entry == number of entries trimmed
  /// away so far.
  std::uint64_t first_index() const { return trim_count_; }

  /// Chain over the first `index` entries ever appended. `index` must lie in
  /// [first_index(), total_appended()] — older prefixes were folded into
  /// base_chain() and cannot be re-derived.
  ChainDigest chain_at(std::uint64_t index) const;

  /// Up to `count` retained entries starting at global index `index`
  /// (oldest first), decoded; empty if `index` lies outside the retained
  /// window.
  std::vector<HistoryEntry> entries_from(std::uint64_t index, std::size_t count) const;

  /// The stored encode_entry() bytes of the retained entry at global index
  /// `index`; valid until the next append() or trim().
  BytesView entry_bytes(std::uint64_t index) const;

  /// Global index of the retained entry made at `round`, if any. Rounds are
  /// strictly ascending, so this is a binary search.
  std::optional<std::uint64_t> find_round(Round round) const;

  /// Replays entries (oldest first) from an empty set.
  static Peerset reconstruct(std::span<const HistoryEntry> suffix);

  /// Bounds retained length; drops oldest entries beyond `max_entries`.
  void trim(std::size_t max_entries);

  /// Total entries ever appended (survives trimming).
  std::uint64_t total_appended() const { return total_appended_; }

  /// Rebuilds a trimmed history from recovered durable state: `first_index`
  /// entries were compacted away leaving `base` as their chain; `entries`
  /// are the retained window, oldest first. chain() is re-derived by folding
  /// the window onto `base`.
  static UpdateHistory restore(const ChainDigest& base, std::uint64_t first_index,
                               std::span<const HistoryEntry> entries);

 private:
  /// Bytes of offsets_[slot]'s entry.
  BytesView stored(std::size_t slot) const;
  Round round_at(std::size_t slot) const;

  Bytes bytes_;                       ///< encode_entry() of each entry, back to back.
  std::vector<std::size_t> offsets_;  ///< Where each entry starts in bytes_.
  /// offsets_[0, head_) are trimmed entries whose bytes still lead bytes_;
  /// trim() compacts them once they are as many as the retained ones.
  std::size_t head_ = 0;
  std::uint64_t total_appended_ = 0;
  std::uint64_t trim_count_ = 0;
  ChainDigest chain_{};       ///< Over all total_appended_ entries.
  ChainDigest base_chain_{};  ///< Over the trim_count_ trimmed entries.
};

/// Structural + cryptographic checks on a history suffix claimed by `owner`:
/// rounds strictly ascending, join entries only at the owner's round 0,
/// counterpart signatures valid for each entry kind, and the reconstruction
/// equal to `claimed`. This is the Verify(Ω_j, N_j, ...) step of Algorithm 1.
/// The checks run one at a time, entry by entry, and the first failure is
/// the verdict.
VerifyResult verify_history_suffix(const std::vector<HistoryEntry>& suffix,
                                   const PeerId& owner, const Peerset& claimed,
                                   const crypto::CryptoProvider& provider);

/// The loop behind verify_history_suffix() and the checkpoint-anchored
/// verify_history_suffix_anchored() (checkpoint.hpp): the same checks, with
/// the deltas replayed onto `base` instead of the empty set. `prev_round` is
/// the round of the entry preceding the suffix (a checkpoint's last round);
/// without it the first entry skips the ascending-rounds check.
VerifyResult verify_history_from(const std::vector<HistoryEntry>& suffix,
                                 std::optional<Round> prev_round, const PeerId& owner,
                                 Peerset base, const Peerset& claimed,
                                 const crypto::CryptoProvider& provider);

}  // namespace accountnet::core
