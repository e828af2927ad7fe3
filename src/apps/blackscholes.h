// C-BlackScholes (CUDA SDK): embarrassingly parallel option pricing.
// Every input element is read exactly once by exactly one thread —
// the flat access profile of Fig. 3(g); the app has no hot memory
// blocks and is the paper's counterexample.
#pragma once

#include "apps/app.h"
#include "exec/kernel.h"

namespace dcrm::apps {

class BlackScholesApp final : public App {
 public:
  explicit BlackScholesApp(std::uint32_t n = 16384) : n_(n) {}

  std::string Name() const override { return "C-BlackScholes"; }
  void Setup(mem::DeviceMemory& dev) override;
  exec::KernelGraph Graph() override;
  std::vector<std::string> OutputObjects() const override {
    return {"CallResult", "PutResult"};
  }
  double OutputError(std::span<const float> golden,
                     std::span<const float> observed) const override;
  double SdcThreshold() const override { return 0.01; }
  std::string MetricName() const override {
    return "fraction of differing option prices";
  }
  std::uint32_t AluCyclesPerMem() const override { return 24; }

 private:
  std::uint32_t n_;
  exec::ArrayRef<float> price_, strike_, years_, call_, put_;
};

}  // namespace dcrm::apps
