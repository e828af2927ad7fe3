// P-ATAX (Polybench): y = A^T (A x).
// Hot data object: x — broadcast-read by every thread of kernel 1.
// (tmp is also broadcast-read in kernel 2, but it is written by
// kernel 1, so the paper's read-only schemes cannot cover it — a
// built-in example of the coverage gap the writable-object extension
// addresses.)
#pragma once

#include "apps/app.h"
#include "exec/kernel.h"

namespace dcrm::apps {

class AtaxApp final : public App {
 public:
  explicit AtaxApp(std::uint32_t m = 256, std::uint32_t n = 256)
      : m_(m), n_(n) {}

  std::string Name() const override { return "P-ATAX"; }
  void Setup(mem::DeviceMemory& dev) override;
  exec::KernelGraph Graph() override;
  std::vector<std::string> OutputObjects() const override { return {"y"}; }
  double OutputError(std::span<const float> golden,
                     std::span<const float> observed) const override;
  double SdcThreshold() const override {
    // Same rationale as the other Polybench apps (see bicg.h).
    return 0.05;
  }
  std::string MetricName() const override {
    return "fraction of differing output vector elements";
  }
  std::uint32_t AluCyclesPerMem() const override { return 6; }

 private:
  std::uint32_t m_, n_;
  exec::ArrayRef<float> a_, x_, tmp_, y_;
};

}  // namespace dcrm::apps
