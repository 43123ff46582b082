#include "common.hpp"

#include "accountnet/obs/span.hpp"

namespace accountnet::ledger {

std::size_t SpanLog::begin(const char* name, const std::string& node) {
  std::size_t id = kNone;
  const std::size_t parent = open_.empty() ? kNone : open_.back();
  // A span whose parent was dropped is dropped too, so the tree stays whole.
  if (recs_.size() < cap_ && (open_.empty() || parent != kNone)) {
    id = recs_.size();
    recs_.push_back({name, node, parent, mono_ns(), -1});
  }
  open_.push_back(id);
  return id;
}

void SpanLog::end(std::size_t id) {
  if (!open_.empty()) open_.pop_back();
  if (id != kNone) recs_[id].end_ns = mono_ns();
}

std::size_t SpanLog::write(const std::string& base, std::uint64_t seed) const {
  obs::Tracer tracer(seed);
  std::vector<std::uint64_t> ids(recs_.size(), 0);
  const auto us = [this](std::int64_t ns) { return (ns - origin_ns_) / 1000; };
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    const obs::TraceContext parent =
        r.parent == kNone ? obs::TraceContext{} : tracer.context(ids[r.parent]);
    ids[i] = tracer.begin_span(r.name, r.node, us(r.start_ns), parent);
    tracer.end_span(ids[i], us(r.end_ns >= 0 ? r.end_ns : r.start_ns));
  }
  obs::write_spans_jsonl(tracer.spans(), base + ".spans.jsonl");
  obs::PerfettoSink perfetto(base + ".perfetto.json");
  perfetto.add_all(tracer.spans());
  perfetto.flush();
  return tracer.size();
}

namespace {

const char* const kOpSpan[kCryptoOps] = {"crypto.sign",       "crypto.vrf_prove",
                                         "crypto.vrf_output", "crypto.verify",
                                         "crypto.vrf_verify", "crypto.verify_batch",
                                         "crypto.keygen"};

template <class F>
auto metered(CryptoMeter& m, CryptoOp op, F&& f) {
  if (!m.recording) return f();
  const std::size_t span = m.log != nullptr ? m.log->begin(kOpSpan[op], "crypto") : 0;
  const std::int64_t t0 = mono_ns();
  auto result = f();
  m.ns[op] += mono_ns() - t0;
  m.calls[op] += 1;
  if (m.log != nullptr) m.log->end(span);
  return result;
}

class SpanSigner final : public crypto::Signer {
 public:
  SpanSigner(std::unique_ptr<crypto::Signer> inner, CryptoMeter& meter)
      : inner_(std::move(inner)), meter_(meter) {}

  const crypto::PublicKeyBytes& public_key() const override {
    return inner_->public_key();
  }
  Bytes sign(BytesView msg) const override {
    return metered(meter_, kSign, [&] { return inner_->sign(msg); });
  }
  Bytes vrf_prove(BytesView alpha) const override {
    return metered(meter_, kVrfProve, [&] { return inner_->vrf_prove(alpha); });
  }
  std::array<std::uint8_t, 64> vrf_output(BytesView alpha) const override {
    return metered(meter_, kVrfOutput, [&] { return inner_->vrf_output(alpha); });
  }

 private:
  std::unique_ptr<crypto::Signer> inner_;
  CryptoMeter& meter_;
};

class SpanCrypto final : public crypto::CryptoProvider {
 public:
  SpanCrypto(const crypto::CryptoProvider& inner, CryptoMeter& meter)
      : inner_(inner), meter_(meter) {}

  std::unique_ptr<crypto::Signer> make_signer(BytesView seed32) const override {
    auto signer = metered(meter_, kKeygen, [&] { return inner_.make_signer(seed32); });
    return std::make_unique<SpanSigner>(std::move(signer), meter_);
  }
  bool verify(const crypto::PublicKeyBytes& pk, BytesView msg,
              BytesView sig) const override {
    return metered(meter_, kVerify, [&] { return inner_.verify(pk, msg, sig); });
  }
  std::optional<std::array<std::uint8_t, 64>> vrf_verify(
      const crypto::PublicKeyBytes& pk, BytesView alpha, BytesView proof) const override {
    return metered(meter_, kVrfVerify,
                   [&] { return inner_.vrf_verify(pk, alpha, proof); });
  }
  // Forwarded so the backend's own batch path (the real backend's thread
  // fan-out) runs exactly as it does without the decorator.
  void verify_batch(std::span<const crypto::VerifyJob> jobs,
                    std::span<crypto::VerifyVerdict> verdicts) const override {
    if (meter_.recording) meter_.batch_jobs += jobs.size();
    metered(meter_, kVerifyBatch, [&] {
      inner_.verify_batch(jobs, verdicts);
      return 0;
    });
  }
  const char* name() const override { return inner_.name(); }

 private:
  const crypto::CryptoProvider& inner_;
  CryptoMeter& meter_;
};

}  // namespace

std::unique_ptr<crypto::CryptoProvider> make_span_crypto(
    const crypto::CryptoProvider& inner, CryptoMeter& meter) {
  return std::make_unique<SpanCrypto>(inner, meter);
}

void report_crypto(const CryptoMeter& m, double shuffles, double wall_ns,
                   Report& report) {
  const auto per_op = [&](CryptoOp op) {
    return ratio(static_cast<double>(m.ns[op]), static_cast<double>(m.calls[op]));
  };
  report.set("crypto.sign.ns_per_op", per_op(kSign));
  report.set("crypto.vrf_prove.ns_per_op", per_op(kVrfProve));
  report.set("crypto.verify.ns_per_op", per_op(kVerify));
  report.set("crypto.vrf_verify.ns_per_op", per_op(kVrfVerify));
  report.set("crypto.verify_batch.jobs_per_call",
             ratio(static_cast<double>(m.batch_jobs),
                   static_cast<double>(m.calls[kVerifyBatch])));
  report.set("crypto.ops_per_shuffle",
             ratio(static_cast<double>(m.total_ops()), shuffles));
  report.set("crypto.busy_frac", ratio(static_cast<double>(m.total_ns()), wall_ns));
}

void accumulate(EngineStats& total, const EngineStats& s) {
  total.sig_hits += s.sig_hits;
  total.sig_misses += s.sig_misses;
  total.vrf_hits += s.vrf_hits;
  total.vrf_misses += s.vrf_misses;
  total.history_exact += s.history_exact;
  total.history_extended += s.history_extended;
  total.history_full += s.history_full;
  total.batch_calls += s.batch_calls;
  total.batch_jobs += s.batch_jobs;
}

void report_engine(const EngineStats& before, const EngineStats& after, Report& report) {
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double sig_hits = d(after.sig_hits, before.sig_hits);
  const double sig_misses = d(after.sig_misses, before.sig_misses);
  const double vrf_hits = d(after.vrf_hits, before.vrf_hits);
  const double vrf_misses = d(after.vrf_misses, before.vrf_misses);
  const double full = d(after.history_full, before.history_full);
  report.set("engine.cache_hit_rate",
             ratio(sig_hits + vrf_hits, sig_hits + vrf_hits + sig_misses + vrf_misses));
  report.set("engine.sig_hit_rate", ratio(sig_hits, sig_hits + sig_misses));
  report.set("engine.vrf_hit_rate", ratio(vrf_hits, vrf_hits + vrf_misses));
  report.set("engine.history_full_frac",
             ratio(full, full + d(after.history_exact, before.history_exact) +
                             d(after.history_extended, before.history_extended)));
  report.set("engine.batch_jobs_per_call",
             ratio(d(after.batch_jobs, before.batch_jobs),
                   d(after.batch_calls, before.batch_calls)));
}

void report_node_timers(const std::vector<const obs::MetricsRegistry*>& registries,
                        Report& report) {
  const auto mean_us = [&](const char* name) {
    double sum = 0, count = 0;
    for (const auto* reg : registries) {
      for (const auto& s : reg->snapshot()) {
        if (s.name == name) {
          sum += s.sum;
          count += static_cast<double>(s.count);
        }
      }
    }
    return ratio(sum, count) / 1000.0;
  };
  report.set("engine.verify_offer.us", mean_us("node.verify_offer"));
  report.set("engine.verify_response.us", mean_us("node.verify_response"));
  report.set("exchange.make_offer.us", mean_us("node.make_offer"));
  report.set("exchange.make_response_and_commit.us", mean_us("node.make_response"));
}

}  // namespace accountnet::ledger
