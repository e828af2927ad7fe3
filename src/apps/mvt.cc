#include "apps/mvt.h"

#include "apps/synth.h"
#include "metrics/error_metric.h"

namespace dcrm::apps {
namespace {
enum : Pc {
  kLdX1 = 1,
  kLdA1 = 2,
  kLdY1 = 3,
  kStX1 = 4,
  kLdX2 = 5,
  kLdA2 = 6,
  kLdY2 = 7,
  kStX2 = 8,
};
constexpr std::uint32_t kCta = 256;
}  // namespace

void MvtApp::Setup(mem::DeviceMemory& dev) {
  auto& sp = dev.space();
  const std::uint64_t n2 = std::uint64_t{n_} * n_;
  a_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("a", n2 * 4, true)).base);
  y1_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("y1", n_ * 4, true)).base);
  y2_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("y2", n_ * 4, true)).base);
  x1_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("x1", n_ * 4, false)).base);
  x2_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("x2", n_ * 4, false)).base);
  FillUniform(dev, a_.base(), n2, -1.0f, 1.0f, 31);
  FillUniform(dev, y1_.base(), n_, -1.0f, 1.0f, 32);
  FillUniform(dev, y2_.base(), n_, -1.0f, 1.0f, 33);
  FillUniform(dev, x1_.base(), n_, -1.0f, 1.0f, 34);
  FillUniform(dev, x2_.base(), n_, -1.0f, 1.0f, 35);
}

exec::KernelGraph MvtApp::Graph() {
  const std::uint32_t n = n_;
  const auto a = a_;
  const auto y1 = y1_;
  const auto y2 = y2_;
  const auto x1 = x1_;
  const auto x2 = x2_;

  exec::GraphNode k1;
  k1.name = "mvt_kernel1";
  k1.cfg.grid = {(n + kCta - 1) / kCta, 1, 1};
  k1.cfg.block = {kCta, 1, 1};
  k1.body = [=](exec::ThreadCtx& ctx) {
    const std::uint32_t i =
        ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
    if (i >= n) return;
    float acc = x1.Ld(ctx, kLdX1, i);
    for (std::uint32_t j = 0; j < n; ++j) {
      acc += a.Ld(ctx, kLdA1, std::uint64_t{i} * n + j) * y1.Ld(ctx, kLdY1, j);
    }
    x1.St(ctx, kStX1, i, acc);
  };

  exec::GraphNode k2;
  k2.name = "mvt_kernel2";
  k2.cfg.grid = {(n + kCta - 1) / kCta, 1, 1};
  k2.cfg.block = {kCta, 1, 1};
  k2.body = [=](exec::ThreadCtx& ctx) {
    const std::uint32_t i =
        ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
    if (i >= n) return;
    float acc = x2.Ld(ctx, kLdX2, i);
    for (std::uint32_t j = 0; j < n; ++j) {
      acc += a.Ld(ctx, kLdA2, std::uint64_t{j} * n + i) * y2.Ld(ctx, kLdY2, j);
    }
    x2.St(ctx, kStX2, i, acc);
  };

  return Chain({std::move(k1), std::move(k2)});
}

double MvtApp::OutputError(std::span<const float> golden,
                           std::span<const float> observed) const {
  return metrics::VectorDiffFractionRel(golden, observed, 1e-6, 1e-6);
}

}  // namespace dcrm::apps
