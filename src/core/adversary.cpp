#include "accountnet/core/adversary.hpp"

#include <algorithm>
#include <optional>

#include "accountnet/crypto/sha256.hpp"

namespace accountnet::core {

OfferAttacks apply_offer_attacks(const AdversaryPolicy& adv, ShuffleOffer& offer,
                                 const PeerId& self, const PeerId& partner, Rng& rng) {
  OfferAttacks fired;
  if (adv.bias_sample && rng.uniform01() < adv.attack_rate) {
    // Biased (non-VRF) sample: swap a hand-picked member (a colluder if one
    // is in reach) into the sample while keeping the original proofs. The
    // responder's proof replay sees a different draw than the one claimed.
    std::optional<PeerId> sub;
    for (const auto& p : offer.claimed_peerset) {
      const bool in_sample =
          std::any_of(offer.sample.begin(), offer.sample.end(),
                      [&](const PeerId& s) { return s.addr == p.addr; });
      if (in_sample || p.addr == partner.addr || p.addr == self.addr) continue;
      if (adv.colludes_with(p.addr)) {
        sub = p;
        break;
      }
      if (!sub) sub = p;
    }
    if (sub && !offer.sample.empty()) {
      offer.sample.front() = *sub;
      fired.bias_sample = true;
    }
  }
  if (adv.forge_history && !offer.history_suffix.empty() &&
      !offer.history_suffix.back().signature.empty() &&
      rng.uniform01() < adv.attack_rate) {
    // Forged entry: the counterpart signature no longer verifies.
    offer.history_suffix.back().signature.front() ^= 0x01;
    fired.forge_history = true;
  }
  if (adv.truncate_history && !offer.history_suffix.empty() &&
      rng.uniform01() < adv.attack_rate) {
    // Truncated suffix: reconstruction no longer matches the claimed set.
    offer.history_suffix.erase(offer.history_suffix.begin());
    fired.truncate_history = true;
  }
  return fired;
}

PeerId fabricated_peer(const std::string& owner_addr) {
  PeerId p;
  p.addr = "zz-fab-" + owner_addr;
  const auto digest = crypto::Sha256::hash(bytes_of(p.addr));
  std::copy(digest.begin(), digest.end(), p.key.begin());
  return p;
}

}  // namespace accountnet::core
