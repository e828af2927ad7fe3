#include "apps/atax.h"

#include "apps/synth.h"
#include "metrics/error_metric.h"

namespace dcrm::apps {
namespace {
enum : Pc {
  kLdA1 = 1,
  kLdX = 2,
  kStTmp = 3,
  kLdA2 = 4,
  kLdTmp = 5,
  kStY = 6,
};
constexpr std::uint32_t kCta = 256;
}  // namespace

void AtaxApp::Setup(mem::DeviceMemory& dev) {
  auto& sp = dev.space();
  const std::uint64_t mn = std::uint64_t{m_} * n_;
  a_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("A", mn * 4, true)).base);
  x_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("x", n_ * 4, true)).base);
  tmp_ =
      exec::ArrayRef<float>(sp.Object(sp.Allocate("tmp", m_ * 4, false)).base);
  y_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("y", n_ * 4, false)).base);
  FillUniform(dev, a_.base(), mn, -1.0f, 1.0f, 91);
  FillUniform(dev, x_.base(), n_, -1.0f, 1.0f, 92);
  FillConst(dev, tmp_.base(), m_, 0.0f);
  FillConst(dev, y_.base(), n_, 0.0f);
}

exec::KernelGraph AtaxApp::Graph() {
  const std::uint32_t m = m_;
  const std::uint32_t n = n_;
  const auto a = a_;
  const auto x = x_;
  const auto tmp = tmp_;
  const auto y = y_;

  exec::GraphNode k1;
  k1.name = "atax_kernel1";
  k1.cfg.grid = {(m + kCta - 1) / kCta, 1, 1};
  k1.cfg.block = {kCta, 1, 1};
  k1.body = [=](exec::ThreadCtx& ctx) {
    const std::uint32_t i =
        ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
    if (i >= m) return;
    float acc = 0.0f;
    for (std::uint32_t j = 0; j < n; ++j) {
      acc += a.Ld(ctx, kLdA1, std::uint64_t{i} * n + j) * x.Ld(ctx, kLdX, j);
    }
    tmp.St(ctx, kStTmp, i, acc);
  };

  exec::GraphNode k2;
  k2.name = "atax_kernel2";
  k2.cfg.grid = {(n + kCta - 1) / kCta, 1, 1};
  k2.cfg.block = {kCta, 1, 1};
  k2.body = [=](exec::ThreadCtx& ctx) {
    const std::uint32_t j =
        ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
    if (j >= n) return;
    float acc = 0.0f;
    for (std::uint32_t i = 0; i < m; ++i) {
      acc +=
          a.Ld(ctx, kLdA2, std::uint64_t{i} * n + j) * tmp.Ld(ctx, kLdTmp, i);
    }
    y.St(ctx, kStY, j, acc);
  };

  return Chain({std::move(k1), std::move(k2)});
}

double AtaxApp::OutputError(std::span<const float> golden,
                            std::span<const float> observed) const {
  return metrics::VectorDiffFractionRel(golden, observed, 1e-6, 1e-6);
}

}  // namespace dcrm::apps
