#include "apps/image_filters.h"

#include <algorithm>
#include <cmath>

#include "apps/synth.h"
#include "metrics/error_metric.h"

namespace dcrm::apps {
namespace {
enum : Pc {
  kLdWidth = 1,
  kLdHeight = 2,
  kLdImage = 3,
  kLdFilter = 4,
  kStOut = 5,
};
constexpr std::uint32_t kTile = 16;

// Clamp that stays well-defined when a faulted width/height makes the
// upper bound non-positive (std::clamp would be UB with lo > hi).
std::int64_t ClampIdx(std::int64_t v, std::int64_t hi_exclusive) {
  const std::int64_t hi = hi_exclusive > 1 ? hi_exclusive - 1 : 0;
  return std::min(std::max<std::int64_t>(v, 0), hi);
}
}  // namespace

void ImageFilterApp::Setup(mem::DeviceMemory& dev) {
  auto& sp = dev.space();
  const std::uint64_t pixels = std::uint64_t{width_} * height_;
  image_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("Image", pixels * 4, true)).base);
  if (FilterSize() > 0) {
    filter_ = exec::ArrayRef<float>(
        sp.Object(sp.Allocate("Filter", FilterSize() * 4, true)).base);
    InitFilter(dev, filter_.base());
  } else {
    filter_ = exec::ArrayRef<float>(0);
  }
  width_addr_ = sp.Object(sp.Allocate("Filter_Width", 4, true)).base;
  height_addr_ = sp.Object(sp.Allocate("Filter_Height", 4, true)).base;
  out_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("OutImage", pixels * 4, false)).base);
  FillUniform(dev, image_.base(), pixels, 0.0f, 255.0f, 41);
  dev.Write<std::int32_t>(width_addr_, static_cast<std::int32_t>(width_));
  dev.Write<std::int32_t>(height_addr_, static_cast<std::int32_t>(height_));
  FillConst(dev, out_.base(), pixels, 0.0f);
}

exec::KernelGraph ImageFilterApp::Graph() {
  const auto image = image_;
  const auto filter = filter_;
  const auto out = out_;
  const Addr wa = width_addr_;
  const Addr ha = height_addr_;
  const std::uint32_t width = width_;
  const std::uint32_t height = height_;

  exec::GraphNode k;
  k.name = "filter_kernel";
  k.cfg.grid = {(width + kTile - 1) / kTile, (height + kTile - 1) / kTile, 1};
  k.cfg.block = {kTile, kTile, 1};
  k.body = [=, this](exec::ThreadCtx& ctx) {
    const std::uint32_t x =
        ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
    const std::uint32_t y =
        ctx.blockIdx().y * ctx.blockDim().y + ctx.threadIdx().y;
    if (x >= width || y >= height) return;
    // The loaded dimensions drive the index arithmetic, as in the
    // PTX of the real kernels (Listing 3 reads width/height twice:
    // once for the bounds test, once for indexing).
    const auto w = static_cast<std::int64_t>(ctx.Ld<std::int32_t>(kLdWidth, wa));
    const auto h =
        static_cast<std::int64_t>(ctx.Ld<std::int32_t>(kLdHeight, ha));
    const float v = Compute(ctx, image, filter, x, y, w, h);
    out.St(ctx, kStOut, std::uint64_t{y} * width + x,
           std::clamp(v, 0.0f, 255.0f));
  };
  return Chain({std::move(k)});
}

double ImageFilterApp::OutputError(std::span<const float> golden,
                                   std::span<const float> observed) const {
  return metrics::NrmseRendered(golden, observed);
}

// ---------------------------------------------------------------- //

void LaplacianApp::InitFilter(mem::DeviceMemory& dev, Addr base) const {
  static constexpr float kLaplacian[9] = {-1, -1, -1, -1, 8, -1, -1, -1, -1};
  for (int i = 0; i < 9; ++i) {
    dev.Write<float>(base + static_cast<Addr>(i) * 4, kLaplacian[i]);
  }
}

float LaplacianApp::Compute(exec::ThreadCtx& ctx,
                            const exec::ArrayRef<float>& image,
                            const exec::ArrayRef<float>& filter,
                            std::int64_t x, std::int64_t y, std::int64_t w,
                            std::int64_t h) const {
  float acc = 0.0f;
  for (std::int64_t ky = -1; ky <= 1; ++ky) {
    for (std::int64_t kx = -1; kx <= 1; ++kx) {
      const std::int64_t sx = ClampIdx(x + kx, w);
      const std::int64_t sy = ClampIdx(y + ky, h);
      const float pixel =
          image.Ld(ctx, kLdImage, static_cast<std::uint64_t>(sy * w + sx));
      const float coeff = filter.Ld(
          ctx, kLdFilter, static_cast<std::uint64_t>((ky + 1) * 3 + (kx + 1)));
      acc += pixel * coeff;
    }
  }
  return acc;
}

float MeanfilterApp::Compute(exec::ThreadCtx& ctx,
                             const exec::ArrayRef<float>& image,
                             const exec::ArrayRef<float>&, std::int64_t x,
                             std::int64_t y, std::int64_t w,
                             std::int64_t h) const {
  float acc = 0.0f;
  for (std::int64_t ky = -1; ky <= 1; ++ky) {
    for (std::int64_t kx = -1; kx <= 1; ++kx) {
      const std::int64_t sx = ClampIdx(x + kx, w);
      const std::int64_t sy = ClampIdx(y + ky, h);
      acc += image.Ld(ctx, kLdImage, static_cast<std::uint64_t>(sy * w + sx));
    }
  }
  return acc / 9.0f;
}

void SobelApp::InitFilter(mem::DeviceMemory& dev, Addr base) const {
  static constexpr float kSobel[18] = {
      // Gx
      -1, 0, 1, -2, 0, 2, -1, 0, 1,
      // Gy
      -1, -2, -1, 0, 0, 0, 1, 2, 1};
  for (int i = 0; i < 18; ++i) {
    dev.Write<float>(base + static_cast<Addr>(i) * 4, kSobel[i]);
  }
}

float SobelApp::Compute(exec::ThreadCtx& ctx,
                        const exec::ArrayRef<float>& image,
                        const exec::ArrayRef<float>& filter, std::int64_t x,
                        std::int64_t y, std::int64_t w, std::int64_t h) const {
  float gx = 0.0f;
  float gy = 0.0f;
  for (std::int64_t ky = -1; ky <= 1; ++ky) {
    for (std::int64_t kx = -1; kx <= 1; ++kx) {
      const std::int64_t sx = ClampIdx(x + kx, w);
      const std::int64_t sy = ClampIdx(y + ky, h);
      const float pixel =
          image.Ld(ctx, kLdImage, static_cast<std::uint64_t>(sy * w + sx));
      const auto fi = static_cast<std::uint64_t>((ky + 1) * 3 + (kx + 1));
      gx += pixel * filter.Ld(ctx, kLdFilter, fi);
      gy += pixel * filter.Ld(ctx, kLdFilter, fi + 9);
    }
  }
  return std::sqrt(gx * gx + gy * gy);
}

}  // namespace dcrm::apps
