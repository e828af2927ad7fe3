// P-MVT (Polybench): x1 += A*y1 ; x2 += A^T*y2 (two kernels).
// Hot data objects: y1 and y2 — broadcast-read across all warps.
#pragma once

#include "apps/app.h"
#include "exec/kernel.h"

namespace dcrm::apps {

class MvtApp final : public App {
 public:
  explicit MvtApp(std::uint32_t n = 256) : n_(n) {}

  std::string Name() const override { return "P-MVT"; }
  void Setup(mem::DeviceMemory& dev) override;
  exec::KernelGraph Graph() override;
  std::vector<std::string> OutputObjects() const override {
    return {"x1", "x2"};
  }
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
  exec::ArrayRef<float> a_, y1_, y2_, x1_, x2_;
};

}  // namespace dcrm::apps
