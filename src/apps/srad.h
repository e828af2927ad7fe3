// A-SRAD (speckle-reducing anisotropic diffusion, Rodinia-style, one
// iteration). Hot data objects: the neighbor index arrays i_N, i_S
// (rows) and i_E, i_W (cols) — tiny, broadcast-read by many warps.
// The Image (J) is the large read-only input; the diffusion
// coefficient field C is an intermediate and J_out the output.
//
// The loaded neighbor indices drive the actual address arithmetic, so
// faults in them redirect reads to wrong rows/columns (SDC) or out of
// the address space (crash), as on real hardware.
#pragma once

#include "apps/app.h"
#include "exec/kernel.h"

namespace dcrm::apps {

class SradApp final : public App {
 public:
  explicit SradApp(std::uint32_t rows = 128, std::uint32_t cols = 128)
      : rows_(rows), cols_(cols) {}

  std::string Name() const override { return "A-SRAD"; }
  void Setup(mem::DeviceMemory& dev) override;
  exec::KernelGraph Graph() override;
  std::vector<std::string> OutputObjects() const override {
    return {"J_out"};
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

 private:
  std::uint32_t rows_, cols_;
  exec::ArrayRef<float> j_, c_, jout_;
  exec::ArrayRef<std::int32_t> in_, is_, ie_, iw_;
};

}  // namespace dcrm::apps
