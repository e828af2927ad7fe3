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
// fault, whose copies hold no fault and that no unpropagated store has
// touched reads the same bytes from every copy. After BeginRun() the
// plane skips the replica reads, the compare and the vote for such
// loads; the outcome and every counter stay exactly as on the full
// path (DESIGN.md §6).
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
  // every copy equals its primary. Marks each block whose copies may
  // differ: a faulty block, a block whose replica bytes overlap a
  // faulty block, and the head and tail block of a range that is not
  // block-aligned. Stays unarmed (every load takes the full path) when
  // a RecoveryManager is attached, blocks are retired, or the scheme
  // is none; a plane that never calls it never elides.
  void BeginRun();

  const sim::ProtectionPlan& plan() const { return plan_; }
  // Mutable access for the recovery subsystem's Tier-2 escalation
  // (upgrading a repeat-offender range to a second replica).
  sim::ProtectionPlan& mutable_plan() { return plan_; }
  std::uint64_t detections() const { return detections_; }
  std::uint64_t corrections() const { return corrections_; }

  // Wires the detect-to-recover pipeline in: mismatches are offered to
  // the manager for arbitration before terminating, and majority-vote
  // corrections are reported for Tier-0 scrubbing.
  void AttachRecovery(RecoveryManager* rm) { recovery_ = rm; }

 private:
  // The full path of Load: the compare or the vote over every copy of
  // a tracked load. Out of line, so an elided load pays for none of it.
  [[gnu::noinline]] void CheckCopies(Pc pc, Addr addr, std::uint8_t* bytes,
                                     std::uint32_t size);
  // Blocks past the bitmap (the store grew after BeginRun) may differ.
  bool MayDiffer(std::uint64_t block) const {
    const std::uint64_t word = block / 64;
    return word >= may_differ_.size() ||
           ((may_differ_[word] >> (block % 64)) & 1) != 0;
  }
  // Marks every block overlapping [lo, hi).
  void MarkBlocks(Addr lo, Addr hi);
  // Marks every primary block whose replica bytes overlap [lo, hi).
  void MarkCopiesOf(Addr lo, Addr hi);
  // Marks what a store to [addr, addr+size) may have left unequal;
  // `propagated` is the range it was propagated through, if any.
  void NoteStore(Addr addr, std::uint32_t size,
                 const sim::ProtectedRange* propagated);

  mem::DeviceMemory* dev_;
  sim::ProtectionPlan plan_;
  RecoveryManager* recovery_ = nullptr;
  // Elision state for the current run (see BeginRun): one "may differ"
  // bit per 128B block of the store, and the span of replica space.
  bool armed_ = false;
  std::vector<std::uint64_t> may_differ_;
  Addr replica_lo_ = 0;
  Addr replica_hi_ = 0;
  std::uint64_t detections_ = 0;
  std::uint64_t corrections_ = 0;
};

}  // namespace dcrm::core
