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
  const BytesView key = r.view(32);
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
  const auto initiated = r.u8();
  if (initiated > 1) throw wire::DecodeError("bad initiated flag");
  e.initiated = initiated == 1;
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

void UpdateHistory::append(const HistoryEntry& entry) {
  if (!empty()) {
    AN_ENSURE_MSG(entry.self_round > last_round(),
                  "history rounds must be strictly ascending");
  }
  const std::size_t start = bytes_.size();
  wire::Writer w(std::move(bytes_));
  encode_entry(w, entry);
  bytes_ = std::move(w).take();
  offsets_.push_back(start);
  chain_ = chain_step(chain_, crypto::Sha256::hash(stored(offsets_.size() - 1)));
  ++total_appended_;
}

BytesView UpdateHistory::stored(std::size_t slot) const {
  const std::size_t end = slot + 1 < offsets_.size() ? offsets_[slot + 1] : bytes_.size();
  return BytesView(bytes_).subspan(offsets_[slot], end - offsets_[slot]);
}

Round UpdateHistory::round_at(std::size_t slot) const {
  wire::Reader r(stored(slot));
  r.u8();  // kind; self_round follows it (encode_entry)
  return r.u64();
}

Round UpdateHistory::last_round() const {
  AN_ENSURE_MSG(!empty(), "history is empty");
  return round_at(offsets_.size() - 1);
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

void UpdateHistory::trim(std::size_t max_entries) {
  if (size() <= max_entries) return;
  const std::size_t drop = size() - max_entries;
  for (std::size_t i = 0; i < drop; ++i) {
    base_chain_ = chain_step(base_chain_, crypto::Sha256::hash(stored(head_ + i)));
  }
  head_ += drop;
  trim_count_ += drop;
  // Compact once as many entries are trimmed as retained: each compaction
  // moves no more entries than were trimmed since the last one, so trimming
  // one entry per append costs amortised O(1).
  if (head_ < size()) return;
  const std::size_t cut = head_ < offsets_.size() ? offsets_[head_] : bytes_.size();
  bytes_.erase(bytes_.begin(), bytes_.begin() + static_cast<std::ptrdiff_t>(cut));
  offsets_.erase(offsets_.begin(), offsets_.begin() + static_cast<std::ptrdiff_t>(head_));
  for (auto& o : offsets_) o -= cut;
  head_ = 0;
}

ChainDigest UpdateHistory::chain_at(std::uint64_t index) const {
  AN_ENSURE_MSG(index >= trim_count_ && index <= total_appended_,
                "chain_at index outside the retained window");
  ChainDigest c = base_chain_;
  const auto end = head_ + static_cast<std::size_t>(index - trim_count_);
  for (std::size_t slot = head_; slot < end; ++slot) {
    c = chain_step(c, crypto::Sha256::hash(stored(slot)));
  }
  return c;
}

UpdateHistory UpdateHistory::restore(const ChainDigest& base, std::uint64_t first_index,
                                     std::span<const HistoryEntry> entries) {
  UpdateHistory h;
  h.base_chain_ = base;
  h.chain_ = base;
  h.trim_count_ = first_index;
  h.total_appended_ = first_index;
  for (const auto& e : entries) h.append(e);
  return h;
}

std::vector<HistoryEntry> UpdateHistory::entries_from(std::uint64_t index,
                                                      std::size_t count) const {
  if (index < trim_count_ || index >= total_appended_) return {};
  const std::size_t first = head_ + static_cast<std::size_t>(index - trim_count_);
  const std::size_t n = std::min(count, offsets_.size() - first);
  std::vector<HistoryEntry> out;
  out.reserve(n);
  for (std::size_t slot = first; slot < first + n; ++slot) {
    wire::Reader r(stored(slot));
    out.push_back(decode_entry(r));
  }
  return out;
}

BytesView UpdateHistory::entry_bytes(std::uint64_t index) const {
  AN_ENSURE_MSG(index >= trim_count_ && index < total_appended_,
                "entry_bytes index outside the retained window");
  return stored(head_ + static_cast<std::size_t>(index - trim_count_));
}

std::optional<std::uint64_t> UpdateHistory::find_round(Round round) const {
  std::size_t lo = head_;
  std::size_t hi = offsets_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (round_at(mid) < round) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == offsets_.size() || round_at(lo) != round) return std::nullopt;
  return trim_count_ + (lo - head_);
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
