// Functional semantics of the two resilience schemes (Section IV-B).
//
// Detection-only: every protected load also reads the duplicate; a
// bitwise mismatch raises the terminate signal (DetectionTerminated).
// In hardware the compare happens lazily after an L1 miss; because the
// modeled faults are permanent, terminating on the first mismatching
// access yields the same run outcome, and the timing cost of laziness
// is modeled in the cycle-level simulator.
//
// Detection-and-correction: protected loads read both replicas and
// return the bitwise majority of the three copies, mirroring the
// triplication vote at the LD/ST unit.
//
// Replica-read elision: faults are permanent and every copy starts a
// run equal to its primary, so a load from a block that holds no
// fault, whose copies hold no fault, that is not retired and that no
// unpropagated store, scrub or retirement has touched reads the same
// bytes from every copy. BeginRun() arms the plane by publishing its
// "may differ" bitmap as the plane's LoadView; ThreadCtx::Ld then
// reads loads from clean blocks straight from the store, skipping the
// replica reads, the compare and the vote, and the outcome and every
// counter stay exactly as on the full path (DESIGN.md §6). The view
// stays published while a RecoveryManager is attached: the manager
// marks what it scrubs and retires through NoteChanged. Load itself
// always takes the full path.
#pragma once

#include <stdexcept>
#include <vector>

#include "exec/data_plane.h"
#include "sim/replication.h"

namespace dcrm::core {

class RecoveryManager;

class DetectionTerminated : public std::runtime_error {
 public:
  DetectionTerminated(Pc pc, Addr addr)
      : std::runtime_error("protected data mismatch: terminate"),
        pc_(pc),
        addr_(addr) {}
  Pc pc() const { return pc_; }
  Addr addr() const { return addr_; }

 private:
  Pc pc_;
  Addr addr_;
};

class ProtectedDataPlane final : public exec::DataPlane {
 public:
  ProtectedDataPlane(mem::DeviceMemory& dev, sim::ProtectionPlan plan)
      : dev_(&dev), plan_(std::move(plan)) {}

  void Load(Pc pc, Addr addr, void* out, std::uint32_t size) override;
  void Store(Pc pc, Addr addr, const void* in, std::uint32_t size) override;

  // Arms replica-read elision for one run. Call once the run's faults
  // are set and the store has been restored from an image in which
  // every copy equals its primary (a recovery attempt calls it after
  // RecoveryManager::RefreshRetiredFromSnapshot). Marks each block
  // whose copies may differ: a faulty or retired block, a block whose
  // replica bytes overlap a faulty or retired block, the tail block of
  // a range whose padding differs from a copy's, and the head and tail
  // block of a range that is not block-aligned. Publishes no view when
  // the scheme is none; a plane that never calls it never elides.
  void BeginRun();

  const sim::ProtectionPlan& plan() const { return plan_; }
  // Mutable access for the recovery subsystem's Tier-2 escalation
  // (upgrading a repeat-offender range to a second replica). Withdraws
  // the view until the next BeginRun: the bitmap describes the old
  // plan.
  sim::ProtectionPlan& mutable_plan() {
    view_ = {};
    return plan_;
  }
  std::uint64_t detections() const { return detections_; }
  std::uint64_t corrections() const { return corrections_; }

  // Wires the detect-to-recover pipeline in: mismatches are offered to
  // the manager for arbitration before terminating, and majority-vote
  // corrections are reported for Tier-0 scrubbing. Withdraws the view
  // until the next BeginRun, which publishes it again.
  void AttachRecovery(RecoveryManager* rm) {
    recovery_ = rm;
    view_ = {};
  }

  // Sends every block overlapping [lo, hi), and every primary block
  // whose copies overlap it, to the full path for the rest of the run.
  // The recovery subsystem calls it after it writes or remaps store
  // bytes behind the plane (a scrub, a retirement). No-op while no view
  // is published.
  void NoteChanged(Addr lo, Addr hi);

 private:
  // Marks every block overlapping [lo, hi).
  void MarkBlocks(Addr lo, Addr hi);
  // Marks every primary block whose replica bytes, padding included,
  // overlap [lo, hi).
  void MarkCopiesOf(Addr lo, Addr hi);
  // True when `a` lies in a range or in its padding up to the next
  // block boundary.
  bool InPaddedExtent(Addr a) const;
  // Marks what a store to [addr, addr+size) may have left unequal;
  // `propagated` is the range it was propagated through, if any.
  void NoteStore(Addr addr, std::uint32_t size,
                 const sim::ProtectedRange* propagated);

  mem::DeviceMemory* dev_;
  sim::ProtectionPlan plan_;
  RecoveryManager* recovery_ = nullptr;
  // Elision state for the current run (see BeginRun): one "may differ"
  // bit per 128B block of the store (published as the view while
  // armed), and the span of replica space, padding included.
  std::vector<std::uint64_t> may_differ_;
  Addr replica_lo_ = 0;
  Addr replica_hi_ = 0;
  std::uint64_t detections_ = 0;
  std::uint64_t corrections_ = 0;
};

}  // namespace dcrm::core
