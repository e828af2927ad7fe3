// L-Transformer: one transformer encoder block declared as a kernel
// graph — the PR's flagship multi-kernel DAG workload. Chunked QKV
// projection GEMMs (two row-halves per projection, six launches
// sharing the name "qkv_gemm") feed attention scores, softmax, the
// context GEMM, the output projection and a residual layernorm:
//
//   X ──┬─> qkv_gemm(Wq) x2 ─> Q ─┐
//       ├─> qkv_gemm(Wk) x2 ─> K ─┼─> attn_score ─> softmax ─┐
//       ├─> qkv_gemm(Wv) x2 ─> V ─┼──────────────────────────┴─> attn_ctx
//       └────────────────────────────> layernorm <─ out_proj <─┘
//
// The activations X are read by seven kernels and each D x D weight by
// two — cross-kernel reuse no single-launch profile can see, which is
// exactly what the graph-aware hotness view (kernels_reading /
// max_kernel_reads) and the weight-tensor protection experiment
// measure.
#pragma once

#include "apps/app.h"
#include "exec/kernel.h"

namespace dcrm::apps {

class TransformerApp final : public App {
 public:
  explicit TransformerApp(std::uint32_t seq = 32, std::uint32_t dim = 32)
      : seq_(seq), dim_(dim) {}

  std::string Name() const override { return "L-Transformer"; }
  void Setup(mem::DeviceMemory& dev) override;
  exec::KernelGraph Graph() override;
  std::vector<std::string> OutputObjects() const override { return {"Y"}; }
  double OutputError(std::span<const float> golden,
                     std::span<const float> observed) const override;
  double SdcThreshold() const override {
    // Softmax and layernorm spread any surviving corruption across the
    // whole row; 5% of differing output elements separates locally
    // masked noise from a poisoned activation or weight block.
    return 0.05;
  }
  std::string MetricName() const override {
    return "fraction of differing output elements";
  }

 private:
  std::uint32_t seq_;
  std::uint32_t dim_;
  exec::ArrayRef<float> x_, wq_, wk_, wv_, wo_, gamma_, beta_;
  exec::ArrayRef<float> q_, k_, v_, scores_, probs_, ctx_, attn_out_, y_;
};

}  // namespace dcrm::apps
