#include "apps/gesummv.h"

#include "apps/synth.h"
#include "metrics/error_metric.h"

namespace dcrm::apps {
namespace {
enum : Pc { kLdA = 1, kLdX1 = 2, kLdB = 3, kLdX2 = 4, kStY = 5 };
constexpr std::uint32_t kCta = 256;
constexpr float kAlpha = 0.75f;
constexpr float kBeta = 0.25f;
}  // namespace

void GesummvApp::Setup(mem::DeviceMemory& dev) {
  auto& sp = dev.space();
  const std::uint64_t n2 = std::uint64_t{n_} * n_;
  a_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("A", n2 * 4, true)).base);
  b_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("B", n2 * 4, true)).base);
  x_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("x", n_ * 4, true)).base);
  y_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("y", n_ * 4, false)).base);
  FillUniform(dev, a_.base(), n2, -1.0f, 1.0f, 21);
  FillUniform(dev, b_.base(), n2, -1.0f, 1.0f, 22);
  FillUniform(dev, x_.base(), n_, -1.0f, 1.0f, 23);
  FillConst(dev, y_.base(), n_, 0.0f);
}

exec::KernelGraph GesummvApp::Graph() {
  const std::uint32_t n = n_;
  const auto a = a_;
  const auto b = b_;
  const auto x = x_;
  const auto y = y_;

  exec::GraphNode k;
  k.name = "gesummv_kernel";
  k.cfg.grid = {(n + kCta - 1) / kCta, 1, 1};
  k.cfg.block = {kCta, 1, 1};
  k.body = [=](exec::ThreadCtx& ctx) {
    const std::uint32_t i =
        ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
    if (i >= n) return;
    float tmp = 0.0f;
    float acc = 0.0f;
    for (std::uint32_t j = 0; j < n; ++j) {
      tmp += a.Ld(ctx, kLdA, std::uint64_t{i} * n + j) * x.Ld(ctx, kLdX1, j);
      acc += b.Ld(ctx, kLdB, std::uint64_t{i} * n + j) * x.Ld(ctx, kLdX2, j);
    }
    y.St(ctx, kStY, i, kAlpha * tmp + kBeta * acc);
  };
  return Chain({std::move(k)});
}

double GesummvApp::OutputError(std::span<const float> golden,
                               std::span<const float> observed) const {
  return metrics::VectorDiffFractionRel(golden, observed, 1e-6, 1e-6);
}

}  // namespace dcrm::apps
