#include "core/baselines.h"

#include <stdexcept>

namespace dcrm::core {

std::shared_ptr<const trace::TraceStore> MakeRmtTrace(
    const trace::TraceStore& in) {
  const trace::TraceStore::Columns& c = in.columns();
  trace::TraceStore::Columns out;
  out.edges = c.edges;
  // Appends input warp `w` as warp `id`; a shadow keeps only loads
  // (the trailing copy verifies, it never commits).
  const auto copy_warp = [&](std::uint32_t w, WarpId id, bool shadow) {
    out.warp_id.push_back(id);
    out.warp_cta.push_back(c.warp_cta[w]);
    for (std::uint32_t i = c.warp_inst_begin[w];
         i < c.warp_inst_begin[w + 1]; ++i) {
      if (shadow && c.inst_is_store[i] != 0) continue;
      out.inst_pc.push_back(c.inst_pc[i]);
      out.inst_is_store.push_back(c.inst_is_store[i]);
      out.inst_lanes.push_back(c.inst_lanes[i]);
      out.blocks.insert(out.blocks.end(),
                        c.blocks.begin() + c.inst_block_begin[i],
                        c.blocks.begin() + c.inst_block_begin[i + 1]);
      out.inst_block_begin.push_back(
          static_cast<std::uint32_t>(out.blocks.size()));
    }
    out.warp_inst_begin.push_back(
        static_cast<std::uint32_t>(out.inst_pc.size()));
  };
  for (const trace::TraceStore::KernelMeta& in_meta : c.kernels) {
    // A CTA holds twice its warps, the copy of a partial last warp
    // included. Doubling its thread count instead leaves one slot too
    // few when the last warp is at most half full, and the shadows
    // then take the next CTA's ids.
    trace::TraceStore::KernelMeta meta = in_meta;
    const std::uint32_t wpc_in = in_meta.cfg.WarpsPerCta();
    const std::uint32_t wpc_out = 2 * wpc_in;
    meta.cfg.block = {wpc_out * kWarpSize, 1, 1};
    meta.warp_begin = static_cast<std::uint32_t>(out.warp_id.size());
    // Ascending input ids keep each CTA's warps contiguous: copy the
    // CTA's leads, then its shadows.
    for (std::uint32_t w0 = in_meta.warp_begin; w0 < in_meta.warp_end;) {
      const std::uint32_t cta = c.warp_cta[w0];
      std::uint32_t w1 = w0;
      while (w1 < in_meta.warp_end && c.warp_cta[w1] == cta) ++w1;
      for (const bool shadow : {false, true}) {
        for (std::uint32_t w = w0; w < w1; ++w) {
          const std::uint32_t within = c.warp_id[w] - cta * wpc_in;
          copy_warp(w, cta * wpc_out + (shadow ? wpc_in : 0) + within,
                    shadow);
        }
      }
      w0 = w1;
    }
    meta.warp_end = static_cast<std::uint32_t>(out.warp_id.size());
    out.kernels.push_back(std::move(meta));
  }
  return trace::TraceStore::FromColumns(std::move(out));
}

double RecoveryModel::DetectRerun(double p_fault, double overhead) {
  if (p_fault < 0 || p_fault >= 1) {
    throw std::invalid_argument("p_fault must be in [0, 1)");
  }
  return (1.0 + overhead) / (1.0 - p_fault);
}

double RecoveryModel::Correct(double overhead) { return 1.0 + overhead; }

double RecoveryModel::CheckpointRestart(double p_fault, double interval,
                                        double ckpt_cost,
                                        double restore_cost) {
  if (interval <= 0 || interval > 1) {
    throw std::invalid_argument("interval must be in (0, 1]");
  }
  return 1.0 + ckpt_cost / interval +
         p_fault * (interval / 2.0 + restore_cost);
}

double RecoveryModel::CheckpointCost(std::uint64_t bytes,
                                     double bytes_per_cycle,
                                     std::uint64_t run_cycles) {
  if (bytes_per_cycle <= 0 || run_cycles == 0) {
    throw std::invalid_argument("bad checkpoint parameters");
  }
  return static_cast<double>(bytes) / bytes_per_cycle /
         static_cast<double>(run_cycles);
}

}  // namespace dcrm::core
