#include "apps/histogram.h"

#include "apps/synth.h"
#include "metrics/error_metric.h"

namespace dcrm::apps {
namespace {
enum : Pc {
  kLdData = 1,
  kLdPartialRmw = 2,
  kStPartialRmw = 3,
  kLdPartialReduce = 4,
  kStBin = 5,
};
constexpr std::uint32_t kCta = HistogramApp::kCtaSize;
}  // namespace

void HistogramApp::Setup(mem::DeviceMemory& dev) {
  auto& sp = dev.space();
  data_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("Data", std::uint64_t{n_} * 4, true)).base);
  const std::uint32_t ctas = (threads_ + kCta - 1) / kCta;
  partial_ = exec::ArrayRef<std::uint32_t>(
      sp.Object(
            sp.Allocate("Partials", std::uint64_t{ctas} * bins_ * 4, false))
          .base);
  bins_arr_ = exec::ArrayRef<std::uint32_t>(
      sp.Object(sp.Allocate("Bins", std::uint64_t{bins_} * 4, false)).base);
  FillUniform(dev, data_.base(), n_, 0.0f,
              static_cast<float>(bins_), 111);
  for (std::uint32_t i = 0; i < ctas * bins_; ++i) {
    dev.Write<std::uint32_t>(partial_.AddrOf(i), 0);
  }
  for (std::uint32_t i = 0; i < bins_; ++i) {
    dev.Write<std::uint32_t>(bins_arr_.AddrOf(i), 0);
  }
}

exec::KernelGraph HistogramApp::Graph() {
  const auto data = data_;
  const auto partial = partial_;
  const auto bins_arr = bins_arr_;
  const std::uint32_t n = n_;
  const std::uint32_t threads = threads_;
  const std::uint32_t bins = bins_;

  // Kernel 1: per-CTA partial histograms over strided slices
  // (read-modify-write per element; sequential functional execution
  // makes the CTA-shared updates deterministic, standing in for the
  // SDK's atomics).
  exec::GraphNode k1;
  k1.name = "histogramPartials";
  k1.cfg.grid = {(threads + kCta - 1) / kCta, 1, 1};
  k1.cfg.block = {kCta, 1, 1};
  k1.body = [=](exec::ThreadCtx& ctx) {
    const std::uint32_t tid =
        ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
    if (tid >= threads) return;
    for (std::uint32_t i = tid; i < n; i += threads) {
      const float v = data.Ld(ctx, kLdData, i);
      auto bin = static_cast<std::int64_t>(v);
      if (bin < 0) bin = 0;
      if (bin >= bins) bin = bins - 1;
      const std::uint64_t slot =
          std::uint64_t{ctx.blockIdx().x} * bins +
          static_cast<std::uint64_t>(bin);
      const std::uint32_t cur = partial.Ld(ctx, kLdPartialRmw, slot);
      partial.St(ctx, kStPartialRmw, slot, cur + 1);
    }
  };

  const std::uint32_t ctas = (threads + kCta - 1) / kCta;

  // Kernel 2: reduce the partials, one thread per bin.
  exec::GraphNode k2;
  k2.name = "histogramReduce";
  k2.cfg.grid = {(bins + kCta - 1) / kCta, 1, 1};
  k2.cfg.block = {kCta, 1, 1};
  k2.body = [=](exec::ThreadCtx& ctx) {
    const std::uint32_t bin =
        ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
    if (bin >= bins) return;
    std::uint32_t acc = 0;
    for (std::uint32_t c = 0; c < ctas; ++c) {
      acc += partial.Ld(ctx, kLdPartialReduce, std::uint64_t{c} * bins + bin);
    }
    bins_arr.St(ctx, kStBin, bin, acc);
  };

  return Chain({std::move(k1), std::move(k2)});
}

double HistogramApp::OutputError(std::span<const float> golden,
                                 std::span<const float> observed) const {
  // Bins are uint32, compared bit-exactly (reinterpreted as floats by
  // the framework; identical bits -> identical floats).
  return metrics::VectorDiffFraction(golden, observed, 0.0f);
}

}  // namespace dcrm::apps
