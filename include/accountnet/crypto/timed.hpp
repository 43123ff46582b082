// Timing decorator for CryptoProvider.
//
// Wraps any backend so every primitive feeds a timer metric:
//
//   crypto.keygen      make_signer (seed -> key derivation)
//   crypto.sign        Signer::sign
//   crypto.vrf_prove   Signer::vrf_prove
//   crypto.vrf_output  Signer::vrf_output
//   crypto.verify      CryptoProvider::verify
//   crypto.vrf_verify  CryptoProvider::vrf_verify
//
// Every check reaches the decorator as one of these primitives: the base
// CryptoProvider::verify_batch (kept only for the performance ledger) loops
// over verify()/vrf_verify() of this wrapper, so its jobs are counted and
// timed as crypto.verify/crypto.vrf_verify calls.
//
// The timers are inert until `registry.set_timing_enabled(true)` — wall-clock
// reads are opt-in per the library-wide simulated-time rule — but observation
// *counts* still tick while timing is off, so call-mix accounting is free.
#pragma once

#include <memory>

#include "accountnet/crypto/provider.hpp"
#include "accountnet/obs/metrics.hpp"

namespace accountnet::crypto {

/// Decorates `inner` with the six crypto timers registered on `registry`.
/// The registry must outlive the returned provider and every signer it makes.
std::unique_ptr<CryptoProvider> make_timed_crypto(std::unique_ptr<CryptoProvider> inner,
                                                  obs::MetricsRegistry& registry);

}  // namespace accountnet::crypto
