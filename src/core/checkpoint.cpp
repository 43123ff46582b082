#include "accountnet/core/checkpoint.hpp"

#include <algorithm>

#include "accountnet/crypto/sha256.hpp"

namespace accountnet::core {

namespace {

constexpr std::uint64_t kMaxSegmentEntriesWire = 100000;

ChainDigest decode_chain(wire::Reader& r) {
  const Bytes b = r.raw(32);
  ChainDigest d;
  std::copy(b.begin(), b.end(), d.begin());
  return d;
}

void encode_checkpoint_core(wire::Writer& w, const Checkpoint& ck) {
  encode_peer(w, ck.owner);
  w.u64(ck.epoch);
  w.u64(ck.sealed_count);
  w.u64(ck.last_round);
  w.raw(BytesView(ck.chain.data(), ck.chain.size()));
  encode_peer_list(w, ck.peerset);
}

Bytes domain_digest_payload(std::string_view domain, const Bytes& core) {
  const auto digest = crypto::Sha256::hash(core);
  wire::Writer w;
  w.str(domain);
  w.raw(BytesView(digest.data(), digest.size()));
  return std::move(w).take();
}

}  // namespace

void encode_checkpoint(wire::Writer& w, const Checkpoint& ck) {
  encode_checkpoint_core(w, ck);
  w.bytes(ck.owner_sig);
}

Checkpoint decode_checkpoint(wire::Reader& r) {
  Checkpoint ck;
  ck.owner = decode_peer(r);
  ck.epoch = r.u64();
  ck.sealed_count = r.u64();
  ck.last_round = r.u64();
  ck.chain = decode_chain(r);
  ck.peerset = decode_peer_list(r);
  ck.owner_sig = r.bytes();
  return ck;
}

Bytes Checkpoint::encode() const {
  wire::Writer w;
  encode_checkpoint(w, *this);
  return std::move(w).take();
}

Bytes Checkpoint::encode_core() const {
  wire::Writer w;
  encode_checkpoint_core(w, *this);
  return std::move(w).take();
}

Checkpoint Checkpoint::decode(BytesView data) {
  wire::Reader r(data);
  Checkpoint ck = decode_checkpoint(r);
  r.expect_done();
  return ck;
}

Bytes Checkpoint::signing_payload() const {
  return domain_digest_payload("an.ckpt", encode_core());
}

ChainDigest fold_chain(ChainDigest base, const std::vector<HistoryEntry>& entries) {
  for (const auto& e : entries) base = chain_step(base, entry_digest(e));
  return base;
}

VerifyResult verify_checkpoint(const Checkpoint& ck, const PeerId& expected_owner,
                               const crypto::CryptoProvider& provider) {
  if (!(ck.owner == expected_owner)) {
    return VerifyResult::fail(VerifyError::kCheckpointOwnerMismatch);
  }
  if (ck.epoch == 0 || ck.sealed_count == 0) {
    return VerifyResult::fail(VerifyError::kCheckpointMalformed,
                              "epoch and sealed count must be positive");
  }
  // Strictly sorted == sorted and duplicate-free; the peerset doubles as the
  // replay base, so a malformed one would corrupt every anchored replay.
  for (std::size_t i = 0; i + 1 < ck.peerset.size(); ++i) {
    if (!(ck.peerset[i] < ck.peerset[i + 1])) {
      return VerifyResult::fail(VerifyError::kCheckpointMalformed,
                                "peerset not strictly sorted");
    }
  }
  for (const auto& p : ck.peerset) {
    if (p == ck.owner) {
      return VerifyResult::fail(VerifyError::kCheckpointMalformed,
                                "owner in own peerset");
    }
  }
  if (!provider.verify(ck.owner.key, ck.signing_payload(), ck.owner_sig)) {
    return VerifyResult::fail(VerifyError::kCheckpointBadSignature);
  }
  return VerifyResult::pass();
}

VerifyResult verify_history_suffix_anchored(const Checkpoint& ck,
                                            const std::vector<HistoryEntry>& suffix,
                                            const PeerId& owner, const Peerset& claimed,
                                            const crypto::CryptoProvider& provider) {
  if (const auto r = verify_checkpoint(ck, owner, provider); !r) return r;
  return verify_history_from(suffix, ck.last_round, owner,
                             Peerset(std::vector<PeerId>(ck.peerset)), claimed, provider);
}

Bytes CheckpointAnnounce::encode() const {
  wire::Writer w;
  encode_checkpoint(w, checkpoint);
  w.u8(want_reply ? 1 : 0);
  return std::move(w).take();
}

CheckpointAnnounce CheckpointAnnounce::decode(BytesView data) {
  wire::Reader r(data);
  CheckpointAnnounce a;
  a.checkpoint = decode_checkpoint(r);
  a.want_reply = r.u8() != 0;
  r.expect_done();
  return a;
}

Bytes SegmentRequest::encode() const {
  wire::Writer w;
  w.u64(request_id);
  w.u64(start);
  w.u64(end);
  return std::move(w).take();
}

SegmentRequest SegmentRequest::decode(BytesView data) {
  wire::Reader r(data);
  SegmentRequest req;
  req.request_id = r.u64();
  req.start = r.u64();
  req.end = r.u64();
  r.expect_done();
  return req;
}

Bytes SegmentData::encode() const {
  wire::Writer w;
  w.raw(encode_core());
  w.bytes(server_sig);
  return std::move(w).take();
}

Bytes SegmentData::encode_core() const {
  wire::Writer w;
  w.u64(request_id);
  encode_peer(w, server);
  w.u64(start);
  w.raw(BytesView(base_chain.data(), base_chain.size()));
  w.varint(entries.size());
  for (const auto& e : entries) encode_entry(w, e);
  return std::move(w).take();
}

SegmentData SegmentData::decode(BytesView data) {
  wire::Reader r(data);
  SegmentData seg;
  seg.request_id = r.u64();
  seg.server = decode_peer(r);
  seg.start = r.u64();
  seg.base_chain = decode_chain(r);
  const auto n = r.varint();
  if (n > kMaxSegmentEntriesWire) throw wire::DecodeError("segment implausibly long");
  seg.entries.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) seg.entries.push_back(decode_entry(r));
  seg.server_sig = r.bytes();
  r.expect_done();
  return seg;
}

Bytes SegmentData::signing_payload() const {
  return domain_digest_payload("an.segment", encode_core());
}

bool segment_contradicts_checkpoint(const SegmentData& seg, const Checkpoint& ck) {
  if (!(seg.server == ck.owner)) return false;
  const std::uint64_t end = seg.start + seg.entries.size();
  // Tail slice reaching the sealed boundary: its total fold must hit ck.chain.
  if (seg.start < ck.sealed_count && end == ck.sealed_count) {
    return fold_chain(seg.base_chain, seg.entries) != ck.chain;
  }
  // Slice starting exactly at the boundary: its claimed base IS the sealed chain.
  if (seg.start == ck.sealed_count) return seg.base_chain != ck.chain;
  return false;
}

}  // namespace accountnet::core
