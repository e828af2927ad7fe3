// C-ConvolutionRows (CUDA SDK separable-convolution, rows pass): each
// thread filters one pixel with a 1D kernel of KERNEL_RADIUS taps per
// side. Hot data object: the Kernel coefficient array — a single
// block broadcast-read 2R+1 times by every thread.
#pragma once

#include "apps/app.h"
#include "exec/kernel.h"

namespace dcrm::apps {

class ConvolutionRowsApp final : public App {
 public:
  explicit ConvolutionRowsApp(std::uint32_t width = 128,
                              std::uint32_t height = 128,
                              std::uint32_t radius = 8)
      : width_(width), height_(height), radius_(radius) {}

  std::string Name() const override { return "C-ConvRows"; }
  void Setup(mem::DeviceMemory& dev) override;
  exec::KernelGraph Graph() override;
  std::vector<std::string> OutputObjects() const override {
    return {"Output"};
  }
  double OutputError(std::span<const float> golden,
                     std::span<const float> observed) const override;
  double SdcThreshold() const override { return 0.10; }
  std::string MetricName() const override {
    return "NRMSE vs. fault-free image";
  }
  std::uint32_t AluCyclesPerMem() const override { return 8; }

 private:
  std::uint32_t width_, height_, radius_;
  exec::ArrayRef<float> input_, kernel_, output_;
};

}  // namespace dcrm::apps
