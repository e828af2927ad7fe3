#include "apps/srad.h"

#include <algorithm>
#include <cmath>

#include "apps/synth.h"
#include "metrics/error_metric.h"

namespace dcrm::apps {
namespace {
enum : Pc {
  kLdIN = 1,
  kLdIS = 2,
  kLdIE = 3,
  kLdIW = 4,
  kLdJc = 5,
  kLdJn = 6,
  kLdJs = 7,
  kLdJe = 8,
  kLdJw = 9,
  kStC = 10,
  kLdC = 11,
  kLdCs = 12,
  kLdCe = 13,
  kLdJ2 = 14,
  kStJ = 15,
};
constexpr std::uint32_t kTile = 16;
constexpr float kQ0Sqr = 0.05f;   // homogeneity estimate
constexpr float kLambda = 0.5f;   // update step
}  // namespace

void SradApp::Setup(mem::DeviceMemory& dev) {
  auto& sp = dev.space();
  const std::uint64_t pixels = std::uint64_t{rows_} * cols_;
  j_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("Image", pixels * 4, true)).base);
  in_ = exec::ArrayRef<std::int32_t>(
      sp.Object(sp.Allocate("i_N", rows_ * 4, true)).base);
  is_ = exec::ArrayRef<std::int32_t>(
      sp.Object(sp.Allocate("i_S", rows_ * 4, true)).base);
  ie_ = exec::ArrayRef<std::int32_t>(
      sp.Object(sp.Allocate("i_E", cols_ * 4, true)).base);
  iw_ = exec::ArrayRef<std::int32_t>(
      sp.Object(sp.Allocate("i_W", cols_ * 4, true)).base);
  c_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("C_coef", pixels * 4, false)).base);
  jout_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("J_out", pixels * 4, false)).base);

  FillUniform(dev, j_.base(), pixels, 0.05f, 1.0f, 61);
  for (std::uint32_t i = 0; i < rows_; ++i) {
    dev.Write<std::int32_t>(in_.AddrOf(i),
                            static_cast<std::int32_t>(i == 0 ? 0 : i - 1));
    dev.Write<std::int32_t>(
        is_.AddrOf(i),
        static_cast<std::int32_t>(i + 1 >= rows_ ? rows_ - 1 : i + 1));
  }
  for (std::uint32_t j = 0; j < cols_; ++j) {
    dev.Write<std::int32_t>(
        ie_.AddrOf(j),
        static_cast<std::int32_t>(j + 1 >= cols_ ? cols_ - 1 : j + 1));
    dev.Write<std::int32_t>(iw_.AddrOf(j),
                            static_cast<std::int32_t>(j == 0 ? 0 : j - 1));
  }
  FillConst(dev, c_.base(), pixels, 0.0f);
  FillConst(dev, jout_.base(), pixels, 0.0f);
}

exec::KernelGraph SradApp::Graph() {
  const auto j = j_;
  const auto c = c_;
  const auto jout = jout_;
  const auto in = in_;
  const auto is = is_;
  const auto ie = ie_;
  const auto iw = iw_;
  const std::uint32_t rows = rows_;
  const std::uint32_t cols = cols_;

  // srad_kernel1: diffusion coefficient from local gradients.
  exec::GraphNode k1;
  k1.name = "srad_kernel1";
  k1.cfg.grid = {(cols + kTile - 1) / kTile, (rows + kTile - 1) / kTile, 1};
  k1.cfg.block = {kTile, kTile, 1};
  k1.body = [=](exec::ThreadCtx& ctx) {
    const std::uint32_t col =
        ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
    const std::uint32_t row =
        ctx.blockIdx().y * ctx.blockDim().y + ctx.threadIdx().y;
    if (row >= rows || col >= cols) return;
    const auto rn = static_cast<std::int64_t>(in.Ld(ctx, kLdIN, row));
    const auto rs = static_cast<std::int64_t>(is.Ld(ctx, kLdIS, row));
    const auto ce = static_cast<std::int64_t>(ie.Ld(ctx, kLdIE, col));
    const auto cw = static_cast<std::int64_t>(iw.Ld(ctx, kLdIW, col));
    const std::uint64_t idx = std::uint64_t{row} * cols + col;
    const float jc = j.Ld(ctx, kLdJc, idx);
    const float jn =
        j.Ld(ctx, kLdJn, static_cast<std::uint64_t>(rn * cols + col));
    const float js =
        j.Ld(ctx, kLdJs, static_cast<std::uint64_t>(rs * cols + col));
    const float je =
        j.Ld(ctx, kLdJe, static_cast<std::uint64_t>(row * cols + ce));
    const float jw =
        j.Ld(ctx, kLdJw, static_cast<std::uint64_t>(row * cols + cw));
    const float dn = jn - jc;
    const float ds = js - jc;
    const float de = je - jc;
    const float dw = jw - jc;
    const float g2 =
        (dn * dn + ds * ds + de * de + dw * dw) / (jc * jc + 1e-12f);
    const float l = (dn + ds + de + dw) / (jc + 1e-12f);
    const float num = (0.5f * g2) - ((1.0f / 16.0f) * (l * l));
    const float den = 1.0f + 0.25f * l;
    float qsqr = num / (den * den + 1e-12f);
    float coef = 1.0f / (1.0f + (qsqr - kQ0Sqr) / (kQ0Sqr * (1 + kQ0Sqr)));
    coef = std::clamp(coef, 0.0f, 1.0f);
    c.St(ctx, kStC, idx, coef);
  };

  // srad_kernel2: divergence update using south/east neighbor coefs.
  exec::GraphNode k2;
  k2.name = "srad_kernel2";
  k2.cfg.grid = {(cols + kTile - 1) / kTile, (rows + kTile - 1) / kTile, 1};
  k2.cfg.block = {kTile, kTile, 1};
  k2.body = [=](exec::ThreadCtx& ctx) {
    const std::uint32_t col =
        ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
    const std::uint32_t row =
        ctx.blockIdx().y * ctx.blockDim().y + ctx.threadIdx().y;
    if (row >= rows || col >= cols) return;
    const auto rn = static_cast<std::int64_t>(in.Ld(ctx, kLdIN, row));
    const auto rs = static_cast<std::int64_t>(is.Ld(ctx, kLdIS, row));
    const auto ce = static_cast<std::int64_t>(ie.Ld(ctx, kLdIE, col));
    const auto cw = static_cast<std::int64_t>(iw.Ld(ctx, kLdIW, col));
    const std::uint64_t idx = std::uint64_t{row} * cols + col;
    const float cc = c.Ld(ctx, kLdC, idx);
    const float cs =
        c.Ld(ctx, kLdCs, static_cast<std::uint64_t>(rs * cols + col));
    const float cei =
        c.Ld(ctx, kLdCe, static_cast<std::uint64_t>(row * cols + ce));
    const float jc = j.Ld(ctx, kLdJ2, idx);
    const float jn =
        j.Ld(ctx, kLdJn, static_cast<std::uint64_t>(rn * cols + col));
    const float js =
        j.Ld(ctx, kLdJs, static_cast<std::uint64_t>(rs * cols + col));
    const float je =
        j.Ld(ctx, kLdJe, static_cast<std::uint64_t>(row * cols + ce));
    const float jw =
        j.Ld(ctx, kLdJw, static_cast<std::uint64_t>(row * cols + cw));
    const float div = cs * (js - jc) + cc * (jn - jc) + cei * (je - jc) +
                      cc * (jw - jc);
    jout.St(ctx, kStJ, idx, jc + 0.25f * kLambda * div);
  };

  return Chain({std::move(k1), std::move(k2)});
}

double SradApp::OutputError(std::span<const float> golden,
                            std::span<const float> observed) const {
  return metrics::NrmseRendered(golden, observed);
}

}  // namespace dcrm::apps
