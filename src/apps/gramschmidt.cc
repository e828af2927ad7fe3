#include "apps/gramschmidt.h"

#include <cmath>

#include "apps/synth.h"
#include "metrics/error_metric.h"

namespace dcrm::apps {
namespace {
enum : Pc {
  kLdA1 = 1,
  kStR1 = 2,
  kLdA2 = 3,
  kLdR2 = 4,
  kStQ = 5,
  kLdQ3 = 6,
  kLdA3 = 7,
  kStR3 = 8,
  kLdQ4 = 9,
  kLdR4 = 10,
  kLdA4 = 11,
  kStA = 12,
};
constexpr std::uint32_t kCta = 128;
}  // namespace

void GramSchmidtApp::Setup(mem::DeviceMemory& dev) {
  auto& sp = dev.space();
  // Column-major storage: column c occupies [c*n, (c+1)*n).
  const std::uint64_t an = std::uint64_t{n_} * k_;
  a_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("A", an * 4, false)).base);
  q_ = exec::ArrayRef<float>(sp.Object(sp.Allocate("Q", an * 4, false)).base);
  r_ = exec::ArrayRef<float>(
      sp.Object(sp.Allocate("R", std::uint64_t{k_} * k_ * 4, false)).base);
  FillUniform(dev, a_.base(), an, -1.0f, 1.0f, 81);
  FillConst(dev, q_.base(), an, 0.0f);
  FillConst(dev, r_.base(), std::uint64_t{k_} * k_, 0.0f);
}

exec::KernelGraph GramSchmidtApp::Graph() {
  std::vector<exec::GraphNode> out;
  const auto a = a_;
  const auto q = q_;
  const auto r = r_;
  const std::uint32_t n = n_;
  const std::uint32_t k = k_;

  for (std::uint32_t c = 0; c < k; ++c) {
    // Kernel 1: column norm (single thread, as in the Polybench GPU
    // port).
    exec::GraphNode k1;
    k1.name = "gramschmidt_kernel1";
    k1.cfg.grid = {1, 1, 1};
    k1.cfg.block = {1, 1, 1};
    k1.body = [=](exec::ThreadCtx& ctx) {
      float nrm = 0.0f;
      for (std::uint32_t row = 0; row < n; ++row) {
        const float v = a.Ld(ctx, kLdA1, std::uint64_t{c} * n + row);
        nrm += v * v;
      }
      r.St(ctx, kStR1, std::uint64_t{c} * k + c, std::sqrt(nrm));
    };
    out.push_back(std::move(k1));

    // Kernel 2: normalize column c into Q.
    exec::GraphNode k2;
    k2.name = "gramschmidt_kernel2";
    k2.cfg.grid = {(n + kCta - 1) / kCta, 1, 1};
    k2.cfg.block = {kCta, 1, 1};
    k2.body = [=](exec::ThreadCtx& ctx) {
      const std::uint32_t row =
          ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
      if (row >= n) return;
      const float nrm = r.Ld(ctx, kLdR2, std::uint64_t{c} * k + c);
      q.St(ctx, kStQ, std::uint64_t{c} * n + row,
           a.Ld(ctx, kLdA2, std::uint64_t{c} * n + row) / nrm);
    };
    out.push_back(std::move(k2));

    // Kernel 3: project the remaining columns (one thread per column).
    if (c + 1 < k) {
      exec::GraphNode k3;
      k3.name = "gramschmidt_kernel3";
      const std::uint32_t rem = k - c - 1;
      k3.cfg.grid = {(rem + kCta - 1) / kCta, 1, 1};
      k3.cfg.block = {kCta, 1, 1};
      k3.body = [=](exec::ThreadCtx& ctx) {
        const std::uint32_t t =
            ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
        if (t >= rem) return;
        const std::uint32_t col = c + 1 + t;
        float dot = 0.0f;
        for (std::uint32_t row = 0; row < n; ++row) {
          dot += q.Ld(ctx, kLdQ3, std::uint64_t{c} * n + row) *
                 a.Ld(ctx, kLdA3, std::uint64_t{col} * n + row);
        }
        r.St(ctx, kStR3, std::uint64_t{c} * k + col, dot);
        for (std::uint32_t row = 0; row < n; ++row) {
          const float upd =
              a.Ld(ctx, kLdA4, std::uint64_t{col} * n + row) -
              q.Ld(ctx, kLdQ4, std::uint64_t{c} * n + row) * dot;
          a.St(ctx, kStA, std::uint64_t{col} * n + row, upd);
        }
      };
      out.push_back(std::move(k3));
    }
  }
  return Chain(std::move(out));
}

double GramSchmidtApp::OutputError(std::span<const float> golden,
                                   std::span<const float> observed) const {
  return metrics::VectorDiffFractionRel(golden, observed, 1e-5, 1e-5);
}

}  // namespace dcrm::apps
