// P-GESUMMV (Polybench): y = alpha*A*x + beta*B*x.
// Hot data object: x — broadcast-read by every thread of every warp.
#pragma once

#include "apps/app.h"
#include "exec/kernel.h"

namespace dcrm::apps {

class GesummvApp final : public App {
 public:
  explicit GesummvApp(std::uint32_t n = 256) : n_(n) {}

  std::string Name() const override { return "P-GESUMMV"; }
  void Setup(mem::DeviceMemory& dev) override;
  exec::KernelGraph Graph() override;
  std::vector<std::string> OutputObjects() const override { return {"y"}; }
  double OutputError(std::span<const float> golden,
                     std::span<const float> observed) const override;
  double SdcThreshold() const override {
    // 5% of output elements: a handful of locally-corrupted elements
    // (faults in streamed matrix blocks touch O(#faulty blocks)
    // outputs) stays below this at any scale, while a corrupted hot
    // vector element poisons every output element.
    return 0.05;
  }
  std::string MetricName() const override {
    return "fraction of differing output vector elements";
  }
  std::uint32_t AluCyclesPerMem() const override { return 6; }

 private:
  std::uint32_t n_;
  exec::ArrayRef<float> a_, b_, x_, y_;
};

}  // namespace dcrm::apps
