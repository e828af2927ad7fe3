#include "apps/convolution.h"

#include <cmath>

#include "apps/synth.h"
#include "metrics/error_metric.h"

namespace dcrm::apps {
namespace {
enum : Pc { kLdInput = 1, kLdKernel = 2, kStOut = 3 };
constexpr std::uint32_t kTile = 16;
}  // namespace

void ConvolutionRowsApp::Setup(mem::DeviceMemory& dev) {
  auto& sp = dev.space();
  const std::uint64_t pixels = std::uint64_t{width_} * height_;
  const std::uint32_t taps = 2 * radius_ + 1;
  input_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("Input", pixels * 4, true)).base);
  kernel_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("Kernel", taps * 4, true)).base);
  output_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("Output", pixels * 4, false)).base);
  FillUniform(dev, input_.base(), pixels, 0.0f, 255.0f, 101);
  // Normalized Gaussian taps, like the SDK sample's host setup.
  float sum = 0.0f;
  std::vector<float> taps_v(taps);
  for (std::uint32_t i = 0; i < taps; ++i) {
    const float d = (static_cast<float>(i) - static_cast<float>(radius_)) /
                    static_cast<float>(radius_);
    taps_v[i] = std::exp(-d * d);
    sum += taps_v[i];
  }
  for (std::uint32_t i = 0; i < taps; ++i) {
    dev.Write<float>(kernel_.AddrOf(i), taps_v[i] / sum);
  }
  FillConst(dev, output_.base(), pixels, 0.0f);
}

exec::KernelGraph ConvolutionRowsApp::Graph() {
  const auto input = input_;
  const auto kernel = kernel_;
  const auto output = output_;
  const std::uint32_t width = width_;
  const std::uint32_t height = height_;
  const std::int64_t radius = radius_;

  exec::GraphNode k;
  k.name = "convolutionRowsKernel";
  k.cfg.grid = {(width + kTile - 1) / kTile, (height + kTile - 1) / kTile, 1};
  k.cfg.block = {kTile, kTile, 1};
  k.body = [=](exec::ThreadCtx& ctx) {
    const std::uint32_t x =
        ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
    const std::uint32_t y =
        ctx.blockIdx().y * ctx.blockDim().y + ctx.threadIdx().y;
    if (x >= width || y >= height) return;
    float acc = 0.0f;
    for (std::int64_t k_off = -radius; k_off <= radius; ++k_off) {
      std::int64_t sx = static_cast<std::int64_t>(x) + k_off;
      sx = std::min<std::int64_t>(std::max<std::int64_t>(sx, 0), width - 1);
      acc += input.Ld(ctx, kLdInput,
                      std::uint64_t{y} * width +
                          static_cast<std::uint64_t>(sx)) *
             kernel.Ld(ctx, kLdKernel,
                       static_cast<std::uint64_t>(k_off + radius));
    }
    output.St(ctx, kStOut, std::uint64_t{y} * width + x, acc);
  };
  return Chain({std::move(k)});
}

double ConvolutionRowsApp::OutputError(std::span<const float> golden,
                                       std::span<const float> observed) const {
  return metrics::NrmseRendered(golden, observed);
}

}  // namespace dcrm::apps
