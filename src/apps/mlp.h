// L-MLP2: a two-layer perceptron (fc1 + ReLU, then fc2) declared as a
// kernel graph with two independent batch-half chains:
//
//   X ─┬─> fc1 (rows 0..N/2,  W1) ─> h0 ─> fc2 (W2) ─┬─> Y
//      └─> fc1 (rows N/2..N, W1) ─> h1 ─> fc2 (W2) ─┘
//
// The weight matrices W1/W2 are each read by both chunk launches, and
// Y has two partial writers — the every-prior-writer edge semantics
// and the "repeated launch name" stats keying both get exercised by a
// topology that is *not* a single chain.
#pragma once

#include "apps/app.h"
#include "exec/kernel.h"

namespace dcrm::apps {

class Mlp2App final : public App {
 public:
  explicit Mlp2App(std::uint32_t batch = 32, std::uint32_t in_dim = 32,
                   std::uint32_t hidden = 32, std::uint32_t out_dim = 16)
      : batch_(batch), in_(in_dim), hidden_(hidden), out_(out_dim) {}

  std::string Name() const override { return "L-MLP2"; }
  void Setup(mem::DeviceMemory& dev) override;
  exec::KernelGraph Graph() override;
  std::vector<std::string> OutputObjects() const override { return {"Y"}; }
  double OutputError(std::span<const float> golden,
                     std::span<const float> observed) const override;
  double SdcThreshold() const override {
    // A corrupted weight block poisons a full output column across the
    // batch; faults in streamed activations touch only a few elements.
    return 0.05;
  }
  std::string MetricName() const override {
    return "fraction of differing output elements";
  }

 private:
  std::uint32_t batch_;
  std::uint32_t in_;
  std::uint32_t hidden_;
  std::uint32_t out_;
  exec::ArrayRef<float> x_, w1_, w2_, h0_, h1_, y_;
};

}  // namespace dcrm::apps
