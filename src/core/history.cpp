#include "accountnet/core/history.hpp"

#include <algorithm>

#include "accountnet/crypto/sha256.hpp"
#include "accountnet/util/ensure.hpp"

namespace accountnet::core {

Bytes join_stamp_payload(const std::string& joiner_addr) {
  wire::Writer w;
  w.str("an.join");
  w.str(joiner_addr);
  return std::move(w).take();
}

Bytes shuffle_nonce_payload(Round counterpart_round) {
  wire::Writer w;
  w.str("an.shuffle");
  w.u64(counterpart_round);
  return std::move(w).take();
}

Bytes leave_payload(Round reporter_round, const std::string& leaver_addr) {
  wire::Writer w;
  w.str("an.leave");
  w.u64(reporter_round);
  w.str(leaver_addr);
  return std::move(w).take();
}

void encode_peer(wire::Writer& w, const PeerId& p) {
  w.str(p.addr);
  w.raw(BytesView(p.key.data(), p.key.size()));
}

PeerId decode_peer(wire::Reader& r) {
  PeerId p;
  p.addr = r.str();
  const Bytes key = r.raw(32);
  std::copy(key.begin(), key.end(), p.key.begin());
  return p;
}

void encode_peer_list(wire::Writer& w, const std::vector<PeerId>& peers) {
  w.varint(peers.size());
  for (const auto& p : peers) encode_peer(w, p);
}

std::vector<PeerId> decode_peer_list(wire::Reader& r) {
  const auto n = r.varint();
  if (n > 100000) throw wire::DecodeError("peer list implausibly long");
  std::vector<PeerId> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(decode_peer(r));
  return out;
}

void encode_bytes_list(wire::Writer& w, const std::vector<Bytes>& list) {
  w.varint(list.size());
  for (const auto& b : list) w.bytes(b);
}

std::vector<Bytes> decode_bytes_list(wire::Reader& r) {
  const auto n = r.varint();
  if (n > 100000) throw wire::DecodeError("bytes list implausibly long");
  std::vector<Bytes> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(r.bytes());
  return out;
}

void encode_entry(wire::Writer& w, const HistoryEntry& e) {
  w.u8(static_cast<std::uint8_t>(e.kind));
  w.u64(e.self_round);
  encode_peer(w, e.counterpart);
  w.u64(e.nonce);
  w.bytes(e.signature);
  w.u8(e.initiated ? 1 : 0);
  encode_peer_list(w, e.out);
  encode_peer_list(w, e.in);
  encode_peer_list(w, e.fill);
}

HistoryEntry decode_entry(wire::Reader& r) {
  HistoryEntry e;
  const auto kind = r.u8();
  if (kind < 1 || kind > 3) throw wire::DecodeError("bad entry kind");
  e.kind = static_cast<EntryKind>(kind);
  e.self_round = r.u64();
  e.counterpart = decode_peer(r);
  e.nonce = r.u64();
  e.signature = r.bytes();
  e.initiated = r.u8() != 0;
  e.out = decode_peer_list(r);
  e.in = decode_peer_list(r);
  e.fill = decode_peer_list(r);
  return e;
}

ChainDigest entry_digest(const HistoryEntry& e) {
  wire::Writer w;
  encode_entry(w, e);
  const Bytes encoded = std::move(w).take();
  return crypto::Sha256::hash(BytesView(encoded.data(), encoded.size()));
}

ChainDigest chain_step(const ChainDigest& prev, const ChainDigest& entry) {
  crypto::Sha256 h;
  h.update(BytesView(prev.data(), prev.size()));
  h.update(BytesView(entry.data(), entry.size()));
  return h.finish();
}

void UpdateHistory::append(HistoryEntry entry) {
  if (!entries_.empty()) {
    AN_ENSURE_MSG(entry.self_round > entries_.back().self_round,
                  "history rounds must be strictly ascending");
  }
  chain_ = chain_step(chain_, entry_digest(entry));
  entries_.push_back(std::move(entry));
  ++total_appended_;
}

const HistoryEntry& UpdateHistory::back() const {
  AN_ENSURE_MSG(!entries_.empty(), "history is empty");
  return entries_.back();
}

Peerset UpdateHistory::reconstruct(std::span<const HistoryEntry> suffix) {
  Peerset n;
  for (const auto& e : suffix) {
    for (const auto& p : e.out) n.erase(p);
    n.insert_all(e.in);
    n.insert_all(e.fill);
  }
  return n;
}

std::vector<HistoryEntry> UpdateHistory::suffix(std::size_t k) const {
  k = std::min(k, entries_.size());
  return std::vector<HistoryEntry>(entries_.end() - static_cast<std::ptrdiff_t>(k),
                                   entries_.end());
}

void UpdateHistory::trim(std::size_t max_entries) {
  if (entries_.size() > max_entries) {
    const std::size_t drop = entries_.size() - max_entries;
    for (std::size_t i = 0; i < drop; ++i) {
      base_chain_ = chain_step(base_chain_, entry_digest(entries_[i]));
    }
    entries_.erase(entries_.begin(), entries_.begin() + static_cast<std::ptrdiff_t>(drop));
    trim_count_ += drop;
  }
}

ChainDigest UpdateHistory::chain_at(std::uint64_t index) const {
  AN_ENSURE_MSG(index >= trim_count_ && index <= total_appended_,
                "chain_at index outside the retained window");
  ChainDigest c = base_chain_;
  for (std::uint64_t i = trim_count_; i < index; ++i) {
    c = chain_step(c, entry_digest(entries_[static_cast<std::size_t>(i - trim_count_)]));
  }
  return c;
}

UpdateHistory UpdateHistory::restore(const ChainDigest& base, std::uint64_t first_index,
                                     std::vector<HistoryEntry> entries) {
  UpdateHistory h;
  h.base_chain_ = base;
  h.chain_ = base;
  h.trim_count_ = first_index;
  h.total_appended_ = first_index;
  for (auto& e : entries) h.append(std::move(e));
  return h;
}

std::vector<HistoryEntry> UpdateHistory::entries_from(std::uint64_t index,
                                                      std::size_t count) const {
  if (index < trim_count_ || index >= total_appended_) return {};
  const auto offset = static_cast<std::size_t>(index - trim_count_);
  const std::size_t n = std::min(count, entries_.size() - offset);
  return std::vector<HistoryEntry>(
      entries_.begin() + static_cast<std::ptrdiff_t>(offset),
      entries_.begin() + static_cast<std::ptrdiff_t>(offset + n));
}

VerifyResult verify_history_from(const std::vector<HistoryEntry>& suffix,
                                 std::optional<Round> prev_round, const PeerId& owner,
                                 Peerset base, const Peerset& claimed,
                                 const crypto::CryptoProvider& provider) {
  const auto signed_by = [&](const HistoryEntry& e, const Bytes& payload) {
    return provider.verify(e.counterpart.key, payload, e.signature);
  };
  for (const auto& e : suffix) {
    if (prev_round && e.self_round <= *prev_round) {
      return VerifyResult::fail(VerifyError::kRoundsNotAscending);
    }
    prev_round = e.self_round;

    switch (e.kind) {
      case EntryKind::kJoin:
        if (e.self_round != 0) return VerifyResult::fail(VerifyError::kJoinAfterRoundZero);
        if (!signed_by(e, join_stamp_payload(owner.addr))) {
          return VerifyResult::fail(VerifyError::kInvalidJoinStamp);
        }
        if (!e.out.empty()) return VerifyResult::fail(VerifyError::kJoinRemovesPeers);
        break;
      case EntryKind::kShuffle:
        if (!signed_by(e, shuffle_nonce_payload(e.nonce))) {
          return VerifyResult::fail(VerifyError::kInvalidShuffleSignature);
        }
        if (e.counterpart == owner) {
          return VerifyResult::fail(VerifyError::kSelfShuffleEntry);
        }
        break;
      case EntryKind::kLeave:
        if (e.out.size() != 1 || !e.in.empty() || !e.fill.empty()) {
          return VerifyResult::fail(VerifyError::kMalformedLeaveEntry);
        }
        if (!signed_by(e, leave_payload(e.nonce, e.out.front().addr))) {
          return VerifyResult::fail(VerifyError::kInvalidLeaveSignature);
        }
        break;
    }

    // A node never holds itself in its peerset.
    if (std::find(e.in.begin(), e.in.end(), owner) != e.in.end()) {
      return VerifyResult::fail(VerifyError::kOwnerInsertedIntoOwnPeerset);
    }
    if (std::find(e.fill.begin(), e.fill.end(), owner) != e.fill.end()) {
      return VerifyResult::fail(VerifyError::kOwnerFilledIntoOwnPeerset);
    }
  }
  for (const auto& e : suffix) {
    for (const auto& p : e.out) base.erase(p);
    base.insert_all(e.in);
    base.insert_all(e.fill);
  }
  if (!(base == claimed)) {
    return VerifyResult::fail(VerifyError::kReconstructionMismatch);
  }
  return VerifyResult::pass();
}

VerifyResult verify_history_suffix(const std::vector<HistoryEntry>& suffix,
                                   const PeerId& owner, const Peerset& claimed,
                                   const crypto::CryptoProvider& provider) {
  return verify_history_from(suffix, std::nullopt, owner, Peerset{}, claimed, provider);
}

}  // namespace accountnet::core
