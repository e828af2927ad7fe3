#include "apps/blackscholes.h"

#include <cmath>

#include "apps/synth.h"
#include "metrics/error_metric.h"

namespace dcrm::apps {
namespace {
enum : Pc { kLdS = 1, kLdX = 2, kLdT = 3, kStCall = 4, kStPut = 5 };
constexpr std::uint32_t kCta = 128;
constexpr float kRiskFree = 0.02f;
constexpr float kVolatility = 0.30f;

// Cumulative normal distribution (Abramowitz-Stegun polynomial, as in
// the CUDA SDK sample).
float Cnd(float d) {
  const float a1 = 0.31938153f;
  const float a2 = -0.356563782f;
  const float a3 = 1.781477937f;
  const float a4 = -1.821255978f;
  const float a5 = 1.330274429f;
  const float rsqrt2pi = 0.39894228040143267794f;
  const float k = 1.0f / (1.0f + 0.2316419f * std::fabs(d));
  float cnd = rsqrt2pi * std::exp(-0.5f * d * d) *
              (k * (a1 + k * (a2 + k * (a3 + k * (a4 + k * a5)))));
  if (d > 0) cnd = 1.0f - cnd;
  return cnd;
}
}  // namespace

void BlackScholesApp::Setup(mem::DeviceMemory& dev) {
  auto& sp = dev.space();
  price_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("StockPrice", n_ * 4, true)).base);
  strike_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("OptionStrike", n_ * 4, true)).base);
  years_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("OptionYears", n_ * 4, true)).base);
  call_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("CallResult", n_ * 4, false)).base);
  put_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("PutResult", n_ * 4, false)).base);
  FillUniform(dev, price_.base(), n_, 5.0f, 30.0f, 71);
  FillUniform(dev, strike_.base(), n_, 1.0f, 100.0f, 72);
  FillUniform(dev, years_.base(), n_, 0.25f, 10.0f, 73);
  FillConst(dev, call_.base(), n_, 0.0f);
  FillConst(dev, put_.base(), n_, 0.0f);
}

exec::KernelGraph BlackScholesApp::Graph() {
  const auto price = price_;
  const auto strike = strike_;
  const auto years = years_;
  const auto call = call_;
  const auto put = put_;
  const std::uint32_t n = n_;

  exec::GraphNode k;
  k.name = "BlackScholesGPU";
  k.cfg.grid = {(n + kCta - 1) / kCta, 1, 1};
  k.cfg.block = {kCta, 1, 1};
  k.body = [=](exec::ThreadCtx& ctx) {
    const std::uint32_t i =
        ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
    if (i >= n) return;
    const float s = price.Ld(ctx, kLdS, i);
    const float x = strike.Ld(ctx, kLdX, i);
    const float t = years.Ld(ctx, kLdT, i);
    const float sqrt_t = std::sqrt(t);
    const float d1 = (std::log(s / x) +
                      (kRiskFree + 0.5f * kVolatility * kVolatility) * t) /
                     (kVolatility * sqrt_t);
    const float d2 = d1 - kVolatility * sqrt_t;
    const float cnd_d1 = Cnd(d1);
    const float cnd_d2 = Cnd(d2);
    const float exp_rt = std::exp(-kRiskFree * t);
    call.St(ctx, kStCall, i, s * cnd_d1 - x * exp_rt * cnd_d2);
    put.St(ctx, kStPut, i,
           x * exp_rt * (1.0f - cnd_d2) - s * (1.0f - cnd_d1));
  };
  return Chain({std::move(k)});
}

double BlackScholesApp::OutputError(std::span<const float> golden,
                                    std::span<const float> observed) const {
  return metrics::VectorDiffFractionRel(golden, observed, 1e-6, 1e-6);
}

}  // namespace dcrm::apps
