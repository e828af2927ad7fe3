// P-BICG (Polybench): s = A^T r ; q = A p. Listing 1 of the paper.
// Hot data objects: r (kernel 1) and p (kernel 2) — broadcast reads
// shared by every warp; A is streamed with low per-block reuse.
#pragma once

#include "apps/app.h"
#include "exec/kernel.h"

namespace dcrm::apps {

class BicgApp final : public App {
 public:
  explicit BicgApp(std::uint32_t nx = 256, std::uint32_t ny = 256)
      : nx_(nx), ny_(ny) {}

  std::string Name() const override { return "P-BICG"; }
  void Setup(mem::DeviceMemory& dev) override;
  exec::KernelGraph Graph() override;
  std::vector<std::string> OutputObjects() const override {
    return {"s", "q"};
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
  std::uint32_t nx_;
  std::uint32_t ny_;
  exec::ArrayRef<float> a_, r_, p_, s_, q_;
};

}  // namespace dcrm::apps
