// P-GRAMSCHM (Polybench): modified Gram-Schmidt QR over K columns.
// Column k of Q is re-read by every later column's update kernel, so
// per-block access counts grow in small steps from the last column to
// the first — the Fig. 3(h) staircase, with no disproportionally hot
// blocks. The paper's second counterexample.
#pragma once

#include "apps/app.h"
#include "exec/kernel.h"

namespace dcrm::apps {

class GramSchmidtApp final : public App {
 public:
  explicit GramSchmidtApp(std::uint32_t n = 128, std::uint32_t k = 32)
      : n_(n), k_(k) {}

  std::string Name() const override { return "P-GRAMSCHM"; }
  void Setup(mem::DeviceMemory& dev) override;
  exec::KernelGraph Graph() override;
  std::vector<std::string> OutputObjects() const override {
    return {"Q", "R"};
  }
  double OutputError(std::span<const float> golden,
                     std::span<const float> observed) const override;
  double SdcThreshold() const override { return 0.01; }
  std::string MetricName() const override {
    return "fraction of differing Q/R elements";
  }
  std::uint32_t AluCyclesPerMem() const override { return 6; }

 private:
  std::uint32_t n_, k_;
  exec::ArrayRef<float> a_, q_, r_;
};

}  // namespace dcrm::apps
