// C-Histogram (CUDA SDK histogram64-style): each thread accumulates a
// strided slice of the input into its private partial histogram; a
// second kernel reduces the partials into the final bins.
//
// A deliberately awkward case for the paper's schemes: the partial
// histograms are by far the hottest data (read-modify-written per
// input element), but they are *writable*, so the read-only schemes
// can cover nothing — the app has a knee-shaped profile with an empty
// coverage set, protectable only by the store-propagation extension.
#pragma once

#include "apps/app.h"
#include "exec/kernel.h"

namespace dcrm::apps {

class HistogramApp final : public App {
 public:
  static constexpr std::uint32_t kCtaSize = 64;

  explicit HistogramApp(std::uint32_t n = 65536, std::uint32_t threads = 256,
                        std::uint32_t bins = 64)
      : n_(n), threads_(threads), bins_(bins) {}

  std::string Name() const override { return "C-Histogram"; }
  void Setup(mem::DeviceMemory& dev) override;
  exec::KernelGraph Graph() override;
  std::vector<std::string> OutputObjects() const override { return {"Bins"}; }
  double OutputError(std::span<const float> golden,
                     std::span<const float> observed) const override;
  double SdcThreshold() const override {
    return 0.02;  // >2% of bins off by any amount
  }
  std::string MetricName() const override {
    return "fraction of differing bins";
  }
  std::uint32_t AluCyclesPerMem() const override { return 4; }

 private:
  std::uint32_t n_, threads_, bins_;
  exec::ArrayRef<float> data_;
  exec::ArrayRef<std::uint32_t> partial_, bins_arr_;
};

}  // namespace dcrm::apps
