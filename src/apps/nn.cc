#include "apps/nn.h"

#include <cmath>

#include "apps/synth.h"
#include "metrics/error_metric.h"

namespace dcrm::apps {
namespace {
enum : Pc {
  kLdW1Bias = 1,
  kLdImg = 2,
  kLdW1 = 3,
  kStN2 = 4,
  kLdW2Bias = 5,
  kLdN2 = 6,
  kLdW2 = 7,
  kStN3 = 8,
  kLdW3Bias = 9,
  kLdN3 = 10,
  kLdW3 = 11,
  kStN4 = 12,
  kLdW4Bias = 13,
  kLdN4 = 14,
  kLdW4 = 15,
  kStScore = 16,
};

constexpr std::uint32_t kImgDim = 29;          // 29x29 inputs
constexpr std::uint32_t kImgSize = kImgDim * kImgDim;
constexpr std::uint32_t kMaps1 = 6;            // first-layer feature maps
constexpr std::uint32_t kL1Out = 13;           // 13x13 per map
constexpr std::uint32_t kL2Out = 5;            // 5x5 per map

float Squash(float x) { return 1.7159f * std::tanh(0.66666667f * x); }

// The classic 5x5 window offsets of the CUDA NN benchmark's
// kernelTemplate (row-major within the 29-wide input).
constexpr std::uint32_t KernelTemplate(std::uint32_t i) {
  return (i / 5) * kImgDim + (i % 5);
}
}  // namespace

void NnApp::Setup(mem::DeviceMemory& dev) {
  auto& sp = dev.space();
  const std::uint64_t w1n = kMaps1 * 26;                 // 25 + bias per map
  const std::uint64_t w2n = std::uint64_t{maps2_} * (kMaps1 * 25 + 1);
  const std::uint64_t w3n =
      std::uint64_t{fc_} * (maps2_ * kL2Out * kL2Out + 1);
  const std::uint64_t w4n = std::uint64_t{classes_} * (fc_ + 1);

  images_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("Images", std::uint64_t{ni_} * kImgSize * 4, true))
          .base);
  w1_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("Layer1_Weights", w1n * 4, true)).base);
  w2_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("Layer2_Weights", w2n * 4, true)).base);
  w3_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("Layer3_Weights", w3n * 4, true)).base);
  w4_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("Layer4_Weights", w4n * 4, true)).base);

  const std::uint64_t n2n = std::uint64_t{ni_} * kMaps1 * kL1Out * kL1Out;
  const std::uint64_t n3n = std::uint64_t{ni_} * maps2_ * kL2Out * kL2Out;
  const std::uint64_t n4n = std::uint64_t{ni_} * fc_;
  n2_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("Layer2_Neurons", n2n * 4, false)).base);
  n3_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("Layer3_Neurons", n3n * 4, false)).base);
  n4_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("Layer4_Neurons", n4n * 4, false)).base);
  scores_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("Out_Scores", std::uint64_t{ni_} * classes_ * 4,
                            false))
          .base);

  FillUniform(dev, images_.base(), std::uint64_t{ni_} * kImgSize, 0.0f, 1.0f,
              51);
  FillUniform(dev, w1_.base(), w1n, -0.5f, 0.5f, 52);
  FillUniform(dev, w2_.base(), w2n, -0.3f, 0.3f, 53);
  FillUniform(dev, w3_.base(), w3n, -0.2f, 0.2f, 54);
  FillUniform(dev, w4_.base(), w4n, -0.2f, 0.2f, 55);
  FillConst(dev, n2_.base(), n2n, 0.0f);
  FillConst(dev, n3_.base(), n3n, 0.0f);
  FillConst(dev, n4_.base(), n4n, 0.0f);
  FillConst(dev, scores_.base(), std::uint64_t{ni_} * classes_, 0.0f);
}

exec::KernelGraph NnApp::Graph() {
  const auto images = images_;
  const auto w1 = w1_;
  const auto w2 = w2_;
  const auto w3 = w3_;
  const auto w4 = w4_;
  const auto n2 = n2_;
  const auto n3 = n3_;
  const auto n4 = n4_;
  const auto scores = scores_;
  const std::uint32_t maps2 = maps2_;
  const std::uint32_t fc = fc_;
  const std::uint32_t classes = classes_;

  // First layer (Listing 2): grid (map, image), block 13x13.
  exec::GraphNode k1;
  k1.name = "FirstLayer";
  k1.cfg.grid = {kMaps1, ni_, 1};
  k1.cfg.block = {kL1Out, kL1Out, 1};
  k1.body = [=](exec::ThreadCtx& ctx) {
    const std::uint32_t map = ctx.blockIdx().x;
    const std::uint32_t img = ctx.blockIdx().y;
    const std::uint32_t px = ctx.threadIdx().x;
    const std::uint32_t py = ctx.threadIdx().y;
    std::uint32_t weight_begin = map * 26;
    const std::uint32_t wx = px * 2;
    const std::uint32_t wy = py * 2;
    float acc = w1.Ld(ctx, kLdW1Bias, weight_begin);
    ++weight_begin;
    for (std::uint32_t i = 0; i < 25; ++i) {
      acc += images.Ld(ctx, kLdImg,
                       std::uint64_t{wy} * kImgDim + wx + KernelTemplate(i) +
                           std::uint64_t{kImgSize} * img) *
             w1.Ld(ctx, kLdW1, weight_begin + i);
    }
    n2.St(ctx, kStN2,
          std::uint64_t{kL1Out} * kL1Out * map + py * kL1Out + px +
              std::uint64_t{kL1Out} * kL1Out * kMaps1 * img,
          Squash(acc));
  };

  // Second layer: grid (map2, image), block 5x5.
  exec::GraphNode k2;
  k2.name = "SecondLayer";
  k2.cfg.grid = {maps2, ni_, 1};
  k2.cfg.block = {kL2Out, kL2Out, 1};
  k2.body = [=](exec::ThreadCtx& ctx) {
    const std::uint32_t map = ctx.blockIdx().x;
    const std::uint32_t img = ctx.blockIdx().y;
    const std::uint32_t px = ctx.threadIdx().x;
    const std::uint32_t py = ctx.threadIdx().y;
    const std::uint32_t wb = map * (kMaps1 * 25 + 1);
    float acc = w2.Ld(ctx, kLdW2Bias, wb);
    for (std::uint32_t m = 0; m < kMaps1; ++m) {
      for (std::uint32_t i = 0; i < 25; ++i) {
        const std::uint32_t sx = px * 2 + i % 5;
        const std::uint32_t sy = py * 2 + i / 5;
        acc += n2.Ld(ctx, kLdN2,
                     std::uint64_t{kL1Out} * kL1Out * m + sy * kL1Out + sx +
                         std::uint64_t{kL1Out} * kL1Out * kMaps1 * img) *
               w2.Ld(ctx, kLdW2, wb + 1 + m * 25 + i);
      }
    }
    n3.St(ctx, kStN3,
          std::uint64_t{kL2Out} * kL2Out * map + py * kL2Out + px +
              std::uint64_t{kL2Out} * kL2Out * maps2 * img,
          Squash(acc));
  };

  // Third layer (fully connected): grid (image), block (fc).
  const std::uint32_t l3_in = maps2 * kL2Out * kL2Out;
  exec::GraphNode k3;
  k3.name = "ThirdLayer";
  k3.cfg.grid = {ni_, 1, 1};
  k3.cfg.block = {fc, 1, 1};
  k3.body = [=](exec::ThreadCtx& ctx) {
    const std::uint32_t img = ctx.blockIdx().x;
    const std::uint32_t n = ctx.threadIdx().x;
    const std::uint32_t wb = n * (l3_in + 1);
    float acc = w3.Ld(ctx, kLdW3Bias, wb);
    for (std::uint32_t i = 0; i < l3_in; ++i) {
      acc += n3.Ld(ctx, kLdN3, std::uint64_t{l3_in} * img + i) *
             w3.Ld(ctx, kLdW3, wb + 1 + i);
    }
    n4.St(ctx, kStN4, std::uint64_t{fc} * img + n, Squash(acc));
  };

  // Fourth layer (classifier): grid (image), block (classes).
  exec::GraphNode k4;
  k4.name = "FourthLayer";
  k4.cfg.grid = {ni_, 1, 1};
  k4.cfg.block = {classes, 1, 1};
  k4.body = [=](exec::ThreadCtx& ctx) {
    const std::uint32_t img = ctx.blockIdx().x;
    const std::uint32_t c = ctx.threadIdx().x;
    const std::uint32_t wb = c * (fc + 1);
    float acc = w4.Ld(ctx, kLdW4Bias, wb);
    for (std::uint32_t i = 0; i < fc; ++i) {
      acc += n4.Ld(ctx, kLdN4, std::uint64_t{fc} * img + i) *
             w4.Ld(ctx, kLdW4, wb + 1 + i);
    }
    scores.St(ctx, kStScore, std::uint64_t{classes} * img + c, acc);
  };

  return Chain(
      {std::move(k1), std::move(k2), std::move(k3), std::move(k4)});
}

double NnApp::OutputError(std::span<const float> golden,
                          std::span<const float> observed) const {
  return metrics::MisclassificationRate(golden, observed, classes_);
}

}  // namespace dcrm::apps
