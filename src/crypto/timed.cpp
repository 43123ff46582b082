#include "accountnet/crypto/timed.hpp"

#include <utility>

#include "accountnet/util/ensure.hpp"

namespace accountnet::crypto {

namespace {

/// Timer + call-count ids for the six primitives.
struct CryptoMetricIds {
  explicit CryptoMetricIds(obs::MetricsRegistry& r)
      : keygen(r.timer("crypto.keygen")),
        keygen_calls(r.counter("crypto.keygen.calls")),
        sign(r.timer("crypto.sign")),
        sign_calls(r.counter("crypto.sign.calls")),
        vrf_prove(r.timer("crypto.vrf_prove")),
        vrf_prove_calls(r.counter("crypto.vrf_prove.calls")),
        vrf_output(r.timer("crypto.vrf_output")),
        vrf_output_calls(r.counter("crypto.vrf_output.calls")),
        verify(r.timer("crypto.verify")),
        verify_calls(r.counter("crypto.verify.calls")),
        vrf_verify(r.timer("crypto.vrf_verify")),
        vrf_verify_calls(r.counter("crypto.vrf_verify.calls")) {}

  obs::MetricId keygen, keygen_calls;
  obs::MetricId sign, sign_calls;
  obs::MetricId vrf_prove, vrf_prove_calls;
  obs::MetricId vrf_output, vrf_output_calls;
  obs::MetricId verify, verify_calls;
  obs::MetricId vrf_verify, vrf_verify_calls;
};

class TimedSigner final : public Signer {
 public:
  TimedSigner(std::unique_ptr<Signer> inner, obs::MetricsRegistry& registry,
              const CryptoMetricIds& ids)
      : inner_(std::move(inner)), registry_(registry), ids_(ids) {}

  const PublicKeyBytes& public_key() const override { return inner_->public_key(); }

  Bytes sign(BytesView msg) const override {
    registry_.add(ids_.sign_calls);
    obs::ScopedTimer t(&registry_, ids_.sign);
    return inner_->sign(msg);
  }

  Bytes vrf_prove(BytesView alpha) const override {
    registry_.add(ids_.vrf_prove_calls);
    obs::ScopedTimer t(&registry_, ids_.vrf_prove);
    return inner_->vrf_prove(alpha);
  }

  std::array<std::uint8_t, 64> vrf_output(BytesView alpha) const override {
    registry_.add(ids_.vrf_output_calls);
    obs::ScopedTimer t(&registry_, ids_.vrf_output);
    return inner_->vrf_output(alpha);
  }

 private:
  std::unique_ptr<Signer> inner_;
  obs::MetricsRegistry& registry_;
  const CryptoMetricIds& ids_;  ///< owned by the TimedProvider
};

class TimedProvider final : public CryptoProvider {
 public:
  TimedProvider(std::unique_ptr<CryptoProvider> inner, obs::MetricsRegistry& registry)
      : inner_(std::move(inner)), registry_(registry), ids_(registry) {}

  std::unique_ptr<Signer> make_signer(BytesView seed32) const override {
    registry_.add(ids_.keygen_calls);
    std::unique_ptr<Signer> signer;
    {
      obs::ScopedTimer t(&registry_, ids_.keygen);
      signer = inner_->make_signer(seed32);
    }
    return std::make_unique<TimedSigner>(std::move(signer), registry_, ids_);
  }

  bool verify(const PublicKeyBytes& pk, BytesView msg, BytesView sig) const override {
    registry_.add(ids_.verify_calls);
    obs::ScopedTimer t(&registry_, ids_.verify);
    return inner_->verify(pk, msg, sig);
  }

  std::optional<std::array<std::uint8_t, 64>> vrf_verify(
      const PublicKeyBytes& pk, BytesView alpha, BytesView proof) const override {
    registry_.add(ids_.vrf_verify_calls);
    obs::ScopedTimer t(&registry_, ids_.vrf_verify);
    return inner_->vrf_verify(pk, alpha, proof);
  }

  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<CryptoProvider> inner_;
  obs::MetricsRegistry& registry_;
  CryptoMetricIds ids_;
};

}  // namespace

std::unique_ptr<CryptoProvider> make_timed_crypto(std::unique_ptr<CryptoProvider> inner,
                                                  obs::MetricsRegistry& registry) {
  AN_ENSURE(inner != nullptr);
  return std::make_unique<TimedProvider>(std::move(inner), registry);
}

}  // namespace accountnet::crypto
