#include "accountnet/core/select.hpp"

#include <algorithm>

#include "accountnet/util/ensure.hpp"
#include "accountnet/wire/codec.hpp"

namespace accountnet::core {

std::optional<std::size_t> select_index(std::size_t list_size, BytesView vrf_output) {
  AN_ENSURE_MSG(list_size > 0, "select over empty list");
  AN_ENSURE_MSG(vrf_output.size() >= 8, "vrf output too short");
  // Q = ceil(log2 |X|): smallest Q with 2^Q >= |X|.
  std::size_t q = 0;
  while ((std::size_t{1} << q) < list_size) ++q;
  std::uint64_t h = 0;
  for (int i = 7; i >= 0; --i) h = (h << 8) | vrf_output[static_cast<std::size_t>(i)];
  const std::uint64_t mask = q >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << q) - 1);
  const std::uint64_t index = h & mask;
  if (index >= list_size) return std::nullopt;  // Null -> retry
  return static_cast<std::size_t>(index);
}

Bytes draw_alpha(std::string_view domain, BytesView nonce, std::uint64_t attempt) {
  wire::Writer w;
  w.str(domain);
  w.bytes(nonce);
  w.u64(attempt);
  return std::move(w).take();
}

Bytes round_nonce(Round r) {
  wire::Writer w;
  w.u64(r);
  return std::move(w).take();
}

Draw draw_sample(const crypto::Signer& signer, const Peerset& candidates,
                 std::size_t want, std::string_view domain, BytesView nonce) {
  Draw draw;
  const std::size_t target = std::min(want, candidates.size());
  if (target == 0) return draw;
  for (std::uint64_t attempt = 1; attempt <= kMaxDrawAttempts; ++attempt) {
    const Bytes alpha = draw_alpha(domain, nonce, attempt);
    const auto beta = signer.vrf_output(alpha);
    draw.proofs.push_back(signer.vrf_prove(alpha));
    const auto idx = select_index(candidates.size(), BytesView(beta.data(), beta.size()));
    if (!idx) continue;  // Null
    const PeerId& picked = candidates.at(*idx);
    if (std::find(draw.sample.begin(), draw.sample.end(), picked) != draw.sample.end()) {
      continue;  // duplicate
    }
    draw.sample.push_back(picked);
    if (draw.sample.size() == target) break;
  }
  return draw;
}

VerifyResult verify_sample(const crypto::CryptoProvider& provider,
                           const crypto::PublicKeyBytes& prover_key,
                           const Peerset& candidates, std::size_t want,
                           std::string_view domain, BytesView nonce,
                           const std::vector<Bytes>& proofs,
                           const std::vector<PeerId>& claimed) {
  const std::size_t target = std::min(want, candidates.size());
  if (target == 0) {
    if (!proofs.empty() || !claimed.empty()) {
      return VerifyResult::fail(VerifyError::kSampleFromEmptyCandidates);
    }
    return VerifyResult::pass();
  }
  if (proofs.size() > kMaxDrawAttempts) {
    return VerifyResult::fail(VerifyError::kTooManyDrawProofs);
  }
  std::vector<PeerId> derived;
  for (std::size_t i = 0; i < proofs.size(); ++i) {
    if (derived.size() == target) {
      return VerifyResult::fail(VerifyError::kExtraDrawProofs);
    }
    const Bytes alpha = draw_alpha(domain, nonce, static_cast<std::uint64_t>(i) + 1);
    const auto beta = provider.vrf_verify(prover_key, alpha, proofs[i]);
    if (!beta) return VerifyResult::fail(VerifyError::kInvalidVrfProof);
    const auto idx = select_index(candidates.size(), BytesView(beta->data(), beta->size()));
    if (!idx) continue;
    const PeerId& picked = candidates.at(*idx);
    if (std::find(derived.begin(), derived.end(), picked) != derived.end()) continue;
    derived.push_back(picked);
  }
  if (derived.size() != target && proofs.size() != kMaxDrawAttempts) {
    return VerifyResult::fail(VerifyError::kSampleIncomplete);
  }
  if (derived != claimed) return VerifyResult::fail(VerifyError::kSampleMismatch);
  return VerifyResult::pass();
}

std::optional<Draw> draw_one(const crypto::Signer& signer, const Peerset& candidates,
                             std::string_view domain, BytesView nonce) {
  Draw draw = draw_sample(signer, candidates, 1, domain, nonce);
  if (draw.sample.empty()) return std::nullopt;
  return draw;
}

VerifyResult verify_one(const crypto::CryptoProvider& provider,
                        const crypto::PublicKeyBytes& prover_key,
                        const Peerset& candidates, std::string_view domain,
                        BytesView nonce, const std::vector<Bytes>& proofs,
                        const PeerId& claimed) {
  return verify_sample(provider, prover_key, candidates, 1, domain, nonce, proofs,
                       {claimed});
}

}  // namespace accountnet::core
