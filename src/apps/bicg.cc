#include "apps/bicg.h"

#include "apps/synth.h"
#include "metrics/error_metric.h"

namespace dcrm::apps {
namespace {
// Static load/store site ids ("PCs"), mirroring the PTX analysis.
enum : Pc {
  kLdA1 = 1,
  kLdR = 2,
  kStS = 3,
  kLdA2 = 4,
  kLdP = 5,
  kStQ = 6,
};
constexpr std::uint32_t kCta = 256;
}  // namespace

void BicgApp::Setup(mem::DeviceMemory& dev) {
  auto& sp = dev.space();
  a_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("A", std::uint64_t{nx_} * ny_ * 4, true)).base);
  r_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("r", nx_ * 4, true)).base);
  p_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("p", ny_ * 4, true)).base);
  s_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("s", ny_ * 4, false)).base);
  q_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("q", nx_ * 4, false)).base);
  FillUniform(dev, a_.base(), std::uint64_t{nx_} * ny_, -1.0f, 1.0f, 11);
  FillUniform(dev, r_.base(), nx_, -1.0f, 1.0f, 12);
  FillUniform(dev, p_.base(), ny_, -1.0f, 1.0f, 13);
  FillConst(dev, s_.base(), ny_, 0.0f);
  FillConst(dev, q_.base(), nx_, 0.0f);
}

exec::KernelGraph BicgApp::Graph() {
  const std::uint32_t nx = nx_;
  const std::uint32_t ny = ny_;
  const auto a = a_;
  const auto r = r_;
  const auto p = p_;
  const auto s = s_;
  const auto q = q_;

  exec::GraphNode k1;
  k1.name = "bicg_kernel1";
  k1.cfg.grid = {(ny + kCta - 1) / kCta, 1, 1};
  k1.cfg.block = {kCta, 1, 1};
  k1.body = [=](exec::ThreadCtx& ctx) {
    const std::uint32_t j =
        ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
    if (j >= ny) return;
    float acc = 0.0f;
    for (std::uint32_t i = 0; i < nx; ++i) {
      acc += a.Ld(ctx, kLdA1, std::uint64_t{i} * ny + j) * r.Ld(ctx, kLdR, i);
    }
    s.St(ctx, kStS, j, acc);
  };

  exec::GraphNode k2;
  k2.name = "bicg_kernel2";
  k2.cfg.grid = {(nx + kCta - 1) / kCta, 1, 1};
  k2.cfg.block = {kCta, 1, 1};
  k2.body = [=](exec::ThreadCtx& ctx) {
    const std::uint32_t i =
        ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
    if (i >= nx) return;
    float acc = 0.0f;
    for (std::uint32_t j = 0; j < ny; ++j) {
      acc += a.Ld(ctx, kLdA2, std::uint64_t{i} * ny + j) * p.Ld(ctx, kLdP, j);
    }
    q.St(ctx, kStQ, i, acc);
  };

  return Chain({std::move(k1), std::move(k2)});
}

double BicgApp::OutputError(std::span<const float> golden,
                            std::span<const float> observed) const {
  return metrics::VectorDiffFractionRel(golden, observed, 1e-6, 1e-6);
}

}  // namespace dcrm::apps
