#include "accountnet/core/witness.hpp"

#include <algorithm>
#include <cmath>

#include "accountnet/core/neighborhood.hpp"
#include "accountnet/util/ensure.hpp"
#include "accountnet/wire/codec.hpp"

namespace accountnet::core {

Bytes channel_nonce(const PeerId& producer, Round producer_round,
                    const PeerId& consumer, Round consumer_round) {
  wire::Writer w;
  w.str("an.channel");
  w.str(producer.addr);
  w.u64(producer_round);
  w.str(consumer.addr);
  w.u64(consumer_round);
  return std::move(w).take();
}

WitnessPlan plan_witness_group(const std::vector<PeerId>& neighborhood_producer,
                               const std::vector<PeerId>& neighborhood_consumer,
                               const PeerId& producer, const PeerId& consumer,
                               std::size_t total) {
  WitnessPlan plan;
  plan.common = sorted_intersection(neighborhood_producer, neighborhood_consumer);

  const std::vector<PeerId> endpoints = [&] {
    std::vector<PeerId> e = {producer, consumer};
    std::sort(e.begin(), e.end());
    return e;
  }();

  plan.candidates_producer =
      sorted_difference(sorted_difference(neighborhood_producer, plan.common), endpoints);
  plan.candidates_consumer =
      sorted_difference(sorted_difference(neighborhood_consumer, plan.common), endpoints);

  // α ratios use the FULL neighborhood sizes (before exclusion), per Sec. V.
  const double ni = static_cast<double>(neighborhood_producer.size());
  const double nj = static_cast<double>(neighborhood_consumer.size());
  if (ni + nj > 0) {
    plan.alpha_producer = ni / (ni + nj);
    plan.alpha_consumer = nj / (ni + nj);
  }

  std::size_t quota_p = static_cast<std::size_t>(
      std::llround(plan.alpha_producer * static_cast<double>(total)));
  quota_p = std::min(quota_p, total);
  std::size_t quota_c = total - quota_p;

  // Cap by availability; hand spare quota to the other side when possible.
  if (quota_p > plan.candidates_producer.size()) {
    quota_c += quota_p - plan.candidates_producer.size();
    quota_p = plan.candidates_producer.size();
  }
  if (quota_c > plan.candidates_consumer.size()) {
    const std::size_t spill = quota_c - plan.candidates_consumer.size();
    quota_c = plan.candidates_consumer.size();
    quota_p = std::min(quota_p + spill, plan.candidates_producer.size());
  }
  plan.quota_producer = quota_p;
  plan.quota_consumer = quota_c;
  return plan;
}

Draw draw_witnesses(const SamplerBackend& sampler, const crypto::Signer& signer,
                    const std::vector<PeerId>& candidates, std::size_t quota,
                    BytesView nonce) {
  return sampler.draw(signer, Peerset(candidates), quota, kWitnessDomain, nonce);
}

VerifyResult verify_witnesses(const SamplerBackend& sampler,
                              const crypto::CryptoProvider& provider,
                              const crypto::PublicKeyBytes& drawer_key,
                              const std::vector<PeerId>& candidates, std::size_t quota,
                              BytesView nonce, const std::vector<Bytes>& proofs,
                              const std::vector<PeerId>& claimed) {
  return sampler.verify(provider, drawer_key, Peerset(candidates), quota, kWitnessDomain,
                        nonce, proofs, claimed);
}

std::vector<PeerId> merge_witnesses(const std::vector<PeerId>& from_producer,
                                    const std::vector<PeerId>& from_consumer) {
  std::vector<PeerId> all = from_producer;
  all.insert(all.end(), from_consumer.begin(), from_consumer.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

}  // namespace accountnet::core
