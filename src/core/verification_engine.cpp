#include "accountnet/core/verification_engine.hpp"

namespace accountnet::core {

VerificationEngine::VerificationEngine(const crypto::CryptoProvider& inner)
    : VerificationEngine(inner, Config(), nullptr) {}

VerificationEngine::VerificationEngine(const crypto::CryptoProvider& inner,
                                       Config config, obs::MetricsRegistry* registry)
    : inner_(inner), config_(config), registry_(registry) {
  if (registry_ != nullptr) history_full_id_ = registry_->counter("verify.history.full");
}

std::unique_ptr<crypto::Signer> VerificationEngine::make_signer(BytesView seed32) const {
  return inner_.make_signer(seed32);
}

const char* VerificationEngine::name() const { return inner_.name(); }

bool VerificationEngine::verify(const crypto::PublicKeyBytes& pk, BytesView msg,
                                BytesView sig) const {
  ++stats_.sig_misses;
  return inner_.verify(pk, msg, sig);
}

std::optional<std::array<std::uint8_t, 64>> VerificationEngine::vrf_verify(
    const crypto::PublicKeyBytes& pk, BytesView alpha, BytesView proof) const {
  ++stats_.vrf_misses;
  return inner_.vrf_verify(pk, alpha, proof);
}

VerifyResult VerificationEngine::verify_history(const std::vector<HistoryEntry>& suffix,
                                                const PeerId& owner,
                                                const Peerset& claimed) const {
  ++stats_.history_full;
  if (registry_ != nullptr) registry_->add(history_full_id_);
  return verify_history_suffix(suffix, owner, claimed, *this);
}

}  // namespace accountnet::core
