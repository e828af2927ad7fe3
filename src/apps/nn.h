// C-NN (CUDA SDK-style convolutional network, Simard topology):
// 29x29 input -> conv 5x5/stride2 -> 6@13x13 -> conv 5x5/stride2 ->
// M@5x5 -> FC(F) -> FC(10 classes). Listing 2 of the paper is the
// first layer.
//
// Hot data objects: Layer1_Weights and Layer2_Weights — every thread
// of a CTA broadcasts the same weight element, and the same weights
// are reused across all images. The FC weight rows are read by a
// single thread each (low sharing), and the Images object is large
// with moderate per-block reuse, matching Table III's ordering.
//
// Weights are deterministic pseudorandom: the paper's metric (and
// ours) is the fraction of argmax classifications that *change*
// relative to the fault-free run of the same network, so trained
// weights are unnecessary (see DESIGN.md).
#pragma once

#include "apps/app.h"
#include "exec/kernel.h"

namespace dcrm::apps {

class NnApp final : public App {
 public:
  explicit NnApp(std::uint32_t num_images = 8, std::uint32_t maps2 = 12,
                 std::uint32_t fc = 32, std::uint32_t classes = 10)
      : ni_(num_images), maps2_(maps2), fc_(fc), classes_(classes) {}

  std::string Name() const override { return "C-NN"; }
  void Setup(mem::DeviceMemory& dev) override;
  exec::KernelGraph Graph() override;
  std::vector<std::string> OutputObjects() const override {
    return {"Out_Scores"};
  }
  double OutputError(std::span<const float> golden,
                     std::span<const float> observed) const override;
  double SdcThreshold() const override {
    // More than 10% of classifications changed: a fault in one input
    // image can flip at most that image (1/ni), while corrupted
    // weights misclassify across the whole batch.
    return 0.10;
  }
  std::string MetricName() const override {
    return "fraction of changed classifications";
  }
  std::uint32_t AluCyclesPerMem() const override { return 12; }

  std::uint32_t num_images() const { return ni_; }
  std::uint32_t classes() const { return classes_; }

 private:
  std::uint32_t ni_, maps2_, fc_, classes_;
  exec::ArrayRef<float> images_, w1_, w2_, w3_, w4_;
  exec::ArrayRef<float> n2_, n3_, n4_, scores_;
};

}  // namespace dcrm::apps
