// Protecting *your own* kernel: shows the full public API surface a
// downstream user touches — writing an App (a stencil smoother whose
// coefficient table is hot), profiling it, checking what the
// classifier finds, and running a small fault campaign on it.
//
// Build & run:  ./build/examples/protect_custom_app
#include <cstdio>

#include "apps/driver.h"
#include "apps/synth.h"
#include "fault/campaign.h"
#include "metrics/error_metric.h"

namespace {

using namespace dcrm;

// A 5-point weighted-stencil smoother: out[i,j] = sum_k w[k]*in[nbr_k].
// The 5-entry weight table is read by every thread -> hot; the grid is
// streamed -> cold.
class StencilApp final : public apps::App {
 public:
  explicit StencilApp(std::uint32_t n) : n_(n) {}

  std::string Name() const override { return "custom-stencil"; }

  void Setup(mem::DeviceMemory& dev) override {
    auto& sp = dev.space();
    const std::uint64_t cells = std::uint64_t{n_} * n_;
    grid_ = exec::ArrayRef<float>(
        sp.Object(sp.Allocate("grid", cells * 4, true)).base);
    weights_ = exec::ArrayRef<float>(
        sp.Object(sp.Allocate("weights", 5 * 4, true)).base);
    out_ = exec::ArrayRef<float>(
        sp.Object(sp.Allocate("out", cells * 4, false)).base);
    apps::FillUniform(dev, grid_.base(), cells, -1.0f, 1.0f, 7);
    static constexpr float w[5] = {0.5f, 0.125f, 0.125f, 0.125f, 0.125f};
    for (int i = 0; i < 5; ++i) {
      dev.Write<float>(weights_.AddrOf(i), w[i]);
    }
    apps::FillConst(dev, out_.base(), cells, 0.0f);
  }

  exec::KernelGraph Graph() override {
    const auto grid = grid_;
    const auto weights = weights_;
    const auto out = out_;
    const std::uint32_t n = n_;
    exec::GraphNode k;
    k.name = "stencil";
    k.cfg.grid = {(n + 15) / 16, (n + 15) / 16, 1};
    k.cfg.block = {16, 16, 1};
    k.body = [=](exec::ThreadCtx& ctx) {
      const std::uint32_t x =
          ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
      const std::uint32_t y =
          ctx.blockIdx().y * ctx.blockDim().y + ctx.threadIdx().y;
      if (x >= n || y >= n) return;
      auto at = [&](std::uint32_t yy, std::uint32_t xx) {
        return std::uint64_t{yy} * n + xx;
      };
      const std::uint32_t xm = x == 0 ? 0 : x - 1;
      const std::uint32_t xp = x + 1 >= n ? n - 1 : x + 1;
      const std::uint32_t ym = y == 0 ? 0 : y - 1;
      const std::uint32_t yp = y + 1 >= n ? n - 1 : y + 1;
      float acc = weights.Ld(ctx, 1, 0) * grid.Ld(ctx, 2, at(y, x));
      acc += weights.Ld(ctx, 1, 1) * grid.Ld(ctx, 2, at(y, xm));
      acc += weights.Ld(ctx, 1, 2) * grid.Ld(ctx, 2, at(y, xp));
      acc += weights.Ld(ctx, 1, 3) * grid.Ld(ctx, 2, at(ym, x));
      acc += weights.Ld(ctx, 1, 4) * grid.Ld(ctx, 2, at(yp, x));
      out.St(ctx, 3, at(y, x), acc);
    };
    return apps::Chain({std::move(k)});
  }

  std::vector<std::string> OutputObjects() const override { return {"out"}; }
  double OutputError(std::span<const float> golden,
                     std::span<const float> observed) const override {
    return metrics::Nrmse(golden, observed);
  }
  double SdcThreshold() const override { return 0.01; }
  std::string MetricName() const override { return "NRMSE"; }

 private:
  std::uint32_t n_;
  exec::ArrayRef<float> grid_, weights_, out_;
};

}  // namespace

int main() {
  StencilApp app(192);
  const sim::GpuConfig cfg;
  const auto profile = apps::ProfileApp(app, cfg);

  std::printf("profiled %s: %llu blocks touched, knee ratio %.0fx\n",
              app.Name().c_str(),
              static_cast<unsigned long long>(profile.profiler.blocks().size()),
              profile.hot.max_median_ratio);
  for (const auto& obj : profile.hot.coverage_order) {
    const bool hot = std::any_of(
        profile.hot.hot_objects.begin(), profile.hot.hot_objects.end(),
        [&](const auto& h) { return h.id == obj.id; });
    std::printf("  %-8s %10.0f reads/block  warp-share %5.1f%%  %s\n",
                obj.name.c_str(), obj.reads_per_block,
                100 * obj.mean_warp_share, hot ? "<- HOT" : "");
  }

  // Campaign: 4-bit faults in hot blocks, with and without protection.
  fault::CampaignConfig cc;
  cc.target = fault::Target::kHotBlocks;
  cc.faulty_blocks = 1;
  cc.bits_per_block = 4;
  cc.runs = 100;
  cc.seed = 11;

  fault::FaultCampaign bare(app, profile, sim::Scheme::kNone, 0);
  const auto b = bare.Run(cc);
  const auto hot_n = static_cast<unsigned>(profile.hot.hot_objects.size());
  fault::FaultCampaign prot(app, profile, sim::Scheme::kDetectCorrect, hot_n);
  const auto p = prot.Run(cc);

  std::printf("hot-block faults, %u runs: unprotected SDC=%u, "
              "protected SDC=%u (corrections performed: %llu)\n",
              cc.runs, b.sdc, p.sdc,
              static_cast<unsigned long long>(p.corrections));
  return 0;
}
