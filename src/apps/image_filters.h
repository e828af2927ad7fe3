// AxBench-style image filters (Listing 3 of the paper):
// A-Laplacian, A-Meanfilter, A-Sobel. Each thread filters one pixel.
// Hot data objects: the filter coefficients and the Filter_Width /
// Filter_Height scalars — tiny, read by every thread of every warp.
// The image itself is large with low per-block reuse.
//
// The loaded width/height values are used for the actual index
// arithmetic (as in the real kernels), so faults in them produce
// wrong-pixel reads or out-of-range accesses (crashes), not just
// wrong arithmetic.
#pragma once

#include "apps/app.h"
#include "exec/kernel.h"

namespace dcrm::apps {

class ImageFilterApp : public App {
 public:
  ImageFilterApp(std::uint32_t width, std::uint32_t height)
      : width_(width), height_(height) {}

  void Setup(mem::DeviceMemory& dev) override;
  exec::KernelGraph Graph() override;
  std::vector<std::string> OutputObjects() const override {
    return {"OutImage"};
  }
  double OutputError(std::span<const float> golden,
                     std::span<const float> observed) const override;
  double SdcThreshold() const override {
    // AxBench-style 10% quality threshold: a faulty image block only
    // perturbs its 3x3 neighborhoods (NRMSE ~0.03 at small scales),
    // while a corrupted filter/dimension scalar wrecks every pixel.
    return 0.10;
  }
  std::string MetricName() const override {
    return "NRMSE vs. fault-free image";
  }
  std::uint32_t AluCyclesPerMem() const override { return 10; }

 protected:
  // Number of filter coefficient floats (0 = no Filter object).
  virtual std::uint32_t FilterSize() const = 0;
  virtual void InitFilter(mem::DeviceMemory& dev, Addr base) const = 0;
  // Per-pixel compute given the 3x3 neighborhood loader and filter
  // loader; returns the output pixel value.
  virtual float Compute(exec::ThreadCtx& ctx,
                        const exec::ArrayRef<float>& image,
                        const exec::ArrayRef<float>& filter, std::int64_t x,
                        std::int64_t y, std::int64_t w,
                        std::int64_t h) const = 0;

  std::uint32_t width_;
  std::uint32_t height_;
  exec::ArrayRef<float> image_, filter_, out_;
  Addr width_addr_ = 0;
  Addr height_addr_ = 0;
};

class LaplacianApp final : public ImageFilterApp {
 public:
  explicit LaplacianApp(std::uint32_t w = 128, std::uint32_t h = 128)
      : ImageFilterApp(w, h) {}
  std::string Name() const override { return "A-Laplacian"; }

 protected:
  std::uint32_t FilterSize() const override { return 9; }
  void InitFilter(mem::DeviceMemory& dev, Addr base) const override;
  float Compute(exec::ThreadCtx& ctx, const exec::ArrayRef<float>& image,
                const exec::ArrayRef<float>& filter, std::int64_t x,
                std::int64_t y, std::int64_t w, std::int64_t h) const override;
};

class MeanfilterApp final : public ImageFilterApp {
 public:
  explicit MeanfilterApp(std::uint32_t w = 128, std::uint32_t h = 128)
      : ImageFilterApp(w, h) {}
  std::string Name() const override { return "A-Meanfilter"; }

 protected:
  std::uint32_t FilterSize() const override { return 0; }
  void InitFilter(mem::DeviceMemory&, Addr) const override {}
  float Compute(exec::ThreadCtx& ctx, const exec::ArrayRef<float>& image,
                const exec::ArrayRef<float>& filter, std::int64_t x,
                std::int64_t y, std::int64_t w, std::int64_t h) const override;
};

class SobelApp final : public ImageFilterApp {
 public:
  explicit SobelApp(std::uint32_t w = 128, std::uint32_t h = 128)
      : ImageFilterApp(w, h) {}
  std::string Name() const override { return "A-Sobel"; }

 protected:
  std::uint32_t FilterSize() const override { return 18; }  // Gx ++ Gy
  void InitFilter(mem::DeviceMemory& dev, Addr base) const override;
  float Compute(exec::ThreadCtx& ctx, const exec::ArrayRef<float>& image,
                const exec::ArrayRef<float>& filter, std::int64_t x,
                std::int64_t y, std::int64_t w, std::int64_t h) const override;
};

}  // namespace dcrm::apps
