// Misbehaviour policy for the event-driven node and the harness.
//
// An AdversaryPolicy turns a node Byzantine: every flag but refuse_shuffles
// enables one concrete attack against the protocol. The flags are
// deliberately orthogonal so a soak can sweep attack types one at a time
// (bench/byz_soak) and tests can assert the exact detection path each attack
// trips:
//
//   bias_sample        substitute non-VRF members into the offered sample
//                      (detected inline: kOfferSampleMismatch).
//   forge_history      tamper a suffix entry so its counterpart signature no
//                      longer verifies (detected inline:
//                      kInvalidShuffleSignature).
//   truncate_history   drop the tail of the proof suffix so reconstruction
//                      no longer matches the claim (detected inline:
//                      kReconstructionMismatch).
//   equivocate         present *internally consistent but different*
//                      histories to different counterparts (passes inline
//                      verification; detected by cross-comparing signed
//                      exchanges: kHistoryEquivocation accusations).
//   withhold_testimony as witness, never answer testimony queries (convicted
//                      via the omission challenge timeout).
//   lie_in_testimony   as witness, log a fabricated digest while forwarding
//                      the real payload (detected by the consumer's
//                      testimony audit: kTestimonyMismatch).
//   tamper_relays      as witness, forward an altered payload but still sign
//                      the forward (detected from the signature pair alone:
//                      kRelayTamper).
//   drop_relays        as witness, log the relay but never forward it
//                      (consumer's omission challenge, with
//                      withhold_testimony this is the "silent witness").
//   refuse_shuffles    never initiate or answer shuffle traffic: the
//                      paper's refuse-and-separate strategy (Sec. IV-B).
//                      It mounts no attack, so any() leaves it out; only
//                      core::Node plays it.
//
// attack_rate makes relay/shuffle attacks selective; colluders lets
// bias_sample prefer fellow adversaries, reproducing the paper's
// neighborhood-pollution attack (Fig. 14/18).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "accountnet/core/shuffle.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::core {

struct AdversaryPolicy {
  bool bias_sample = false;
  bool forge_history = false;
  bool truncate_history = false;
  bool equivocate = false;
  bool withhold_testimony = false;
  bool lie_in_testimony = false;
  bool tamper_relays = false;
  bool drop_relays = false;
  bool refuse_shuffles = false;

  /// Probability an eligible attack is actually applied (selective attacks).
  double attack_rate = 1.0;

  /// Addresses bias_sample prefers to inject (fellow adversaries).
  std::vector<std::string> colluders;

  bool any() const {
    return bias_sample || forge_history || truncate_history || equivocate ||
           withhold_testimony || lie_in_testimony || tamper_relays || drop_relays;
  }

  bool colludes_with(const std::string& addr) const {
    return std::find(colluders.begin(), colluders.end(), addr) != colluders.end();
  }
};

/// The offer attacks that fired in one apply_offer_attacks() call.
struct OfferAttacks {
  bool bias_sample = false;
  bool forge_history = false;
  bool truncate_history = false;

  bool any() const { return bias_sample || forge_history || truncate_history; }
};

/// Mounts `adv`'s offer attacks on an offer `self` is about to send to
/// `partner`, in this order: bias_sample, forge_history, truncate_history.
/// Each enabled attack whose precondition holds draws once from `rng`
/// against attack_rate, so core::Node and the harness consume their attack
/// streams identically. Equivocation is not here: core::Node and the harness
/// each doctor histories their own way.
OfferAttacks apply_offer_attacks(const AdversaryPolicy& adv, ShuffleOffer& offer,
                                 const PeerId& self, const PeerId& partner, Rng& rng);

/// A peer identity that exists only in an adversary's doctored history: the
/// address sorts last ("zz-" prefix keeps real draws mostly unaffected) and
/// the key is a hash nobody holds the secret for — it can never answer, sign,
/// or be framed.
PeerId fabricated_peer(const std::string& owner_addr);

}  // namespace accountnet::core
