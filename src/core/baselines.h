// Baseline reliability mechanisms the paper positions itself against
// (Section VI): redundant multithreading (Wadden et al. [69], Gupta
// et al. [20], Yang et al. [70]) and checkpoint-restart (CRUM [19],
// NVCR [48]; Lee et al. [29] call its overhead prohibitive).
//
// RMT here is the memory-level view: every warp is duplicated, the
// shadow warp re-issues all loads (verification consumes the data)
// and suppresses stores (the trailing copy only checks). Two
// properties fall out, both of which the bench demonstrates:
//   1. the overhead is large (2x issue and load traffic, halved
//      occupancy), and
//   2. it cannot catch the faults this paper targets at all — both
//      copies read the *same* faulty DRAM, so their computations
//      agree on corrupted data. Replication of the data itself is
//      what detects memory faults.
#pragma once

#include <cstdint>
#include <memory>

#include "trace/trace_store.h"

namespace dcrm::core {

// Duplicates every warp of every kernel inside its CTA: the shadow
// warp replays the loads and drops the stores. CTA warp counts double
// (the output CTA is 2 * wpc_in full warps, one-dimensional), so
// per-SM occupancy halves — the real cost of warp-level RMT. Within
// each CTA the lead warps come first (cta*wpc_out + w) and the shadows
// follow them (cta*wpc_out + wpc_in + w), so warp ids still ascend.
// Kernel names, graph node ids and data edges carry over unchanged.
std::shared_ptr<const trace::TraceStore> MakeRmtTrace(
    const trace::TraceStore& in);

// Expected-completion-time models for recovery strategies, all in
// units of one fault-free execution (T = 1).
//
// p_fault: probability that a run encounters a detectable fault.
// overhead: the protection scheme's fractional run-time overhead.
struct RecoveryModel {
  // Detection-only + terminate/rerun (this paper's scheme): each
  // attempt costs (1+overhead); on fault (probability p) the run is
  // discarded and retried. E[T] = (1+o) / (1-p), the geometric-retry
  // mean, assuming permanent-fault retries land on different blocks
  // (the paper's user-rerun model).
  static double DetectRerun(double p_fault, double overhead);

  // Detection-and-correction (triplication): corrected in place, no
  // rerun. E[T] = 1 + o.
  static double Correct(double overhead);

  // Checkpoint-restart: checkpoints every `interval` fraction of the
  // run (0 < interval <= 1) cost `ckpt_cost` each (fraction of T);
  // a fault loses on average half an interval plus the restore.
  // E[T] = 1 + ckpt_cost/interval + p*(interval/2 + restore_cost).
  static double CheckpointRestart(double p_fault, double interval,
                                  double ckpt_cost, double restore_cost);

  // Full-run time fraction needed to copy `bytes` at
  // `bytes_per_cycle` given the run length in cycles — the paper's
  // point that GPGPU footprints make checkpoints expensive.
  static double CheckpointCost(std::uint64_t bytes, double bytes_per_cycle,
                               std::uint64_t run_cycles);
};

}  // namespace dcrm::core
