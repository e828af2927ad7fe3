#include "core/recovery.h"

#include <algorithm>
#include <cstring>

namespace dcrm::core {

namespace {

// Arbitration ranking: a copy that decodes clean beats one SECDED
// flags as corrected (which, for the paper's >=3-bit faults, is
// usually a *miscorrection*), which beats a DUE. Equal ranks are
// unarbitrable and fall through to Tier 1.
int ProbeRank(mem::EccStatus s) {
  switch (s) {
    case mem::EccStatus::kOk:
      return 0;
    case mem::EccStatus::kCorrectedSingle:
      return 1;
    case mem::EccStatus::kDetectedDouble:
    case mem::EccStatus::kDetectedInvalid:
      return 2;
  }
  return 2;
}

}  // namespace

RecoveryCost ChargeRecovery(const RecoveryStats& s, unsigned runs,
                            std::uint64_t run_cycles,
                            const sim::GpuConfig& cfg) {
  RecoveryCost c;
  // One DRAM access against a closed row: activate + CAS + burst.
  const double dram_access =
      static_cast<double>(cfg.t_rcd + cfg.t_cl + cfg.burst_cycles);
  // Scrub: the corrected value is written back and read again to
  // verify it stuck.
  c.scrub_cycles = static_cast<double>(s.scrubs) * 2.0 * dram_access;
  // Retire: stream the 128B block out of the bad row and into the
  // spare, then precharge the bad row for good.
  c.retire_cycles = static_cast<double>(s.retired_blocks) *
                    (2.0 * dram_access + cfg.t_rp);
  c.reexec_cycles =
      static_cast<double>(s.retries) * static_cast<double>(run_cycles);
  c.backoff_cycles = static_cast<double>(s.backoff_units) *
                     static_cast<double>(cfg.recovery_backoff_cycles);
  c.total_cycles =
      c.scrub_cycles + c.retire_cycles + c.reexec_cycles + c.backoff_cycles;
  const double denom =
      static_cast<double>(runs) * static_cast<double>(run_cycles);
  c.per_run_overhead = denom > 0 ? c.total_cycles / denom : 0.0;
  return c;
}

RecoveryManager::RecoveryManager(mem::DeviceMemory& dev,
                                 const RecoveryConfig& cfg)
    : dev_(&dev), cfg_(cfg) {
  if (cfg_.retire && cfg_.spare_blocks > 0) {
    spare_base_ = dev_->space().AllocateRaw(
        std::uint64_t{cfg_.spare_blocks} * kBlockSize);
  }
}

void RecoveryManager::SetSnapshot(std::span<const std::byte> snapshot) {
  snapshot_ = snapshot;
}

void RecoveryManager::BeginRun() {
  attempt_ = 0;
  run_used_recovery_ = false;
  // Each campaign run is an independent fault scenario: carrying
  // retirements over would silently nullify the next run's injected
  // faults. Trial offense events reset too; the campaign engine has
  // already merged them into its ledger.
  dev_->retired().Clear();
  spare_used_ = 0;
  trial_offenses_.clear();
  for (const auto& e : escalated_) SeedEscalated(e);
}

void RecoveryManager::RefreshRetiredFromSnapshot() {
  if (snapshot_.empty()) return;
  for (const auto& [from, to] : dev_->retired().Entries()) {
    const Addr src = from * kBlockSize;
    if (src + kBlockSize > snapshot_.size()) continue;
    std::memcpy(dev_->space().Data() + to * kBlockSize,
                snapshot_.data() + src, kBlockSize);
  }
}

bool RecoveryManager::OnRunFailure(Addr addr) {
  RecordOffense(addr);
  bool terminal = attempt_ >= cfg_.max_retries;
  if (!terminal && cfg_.retire) {
    const std::uint64_t block = addr / kBlockSize;
    if (!dev_->retired().Contains(block)) {
      if (!RetireBlock(block)) terminal = true;  // spare pool exhausted
    } else if (plane_ != nullptr) {
      // The primary block is already quarantined, yet the same address
      // failed again: the bad cells must sit under a replica copy.
      if (const auto* range = plane_->plan().Lookup(addr)) {
        for (unsigned c = 0; c < plane_->plan().CopiesFor(*range); ++c) {
          const std::uint64_t rb = range->ReplicaAddr(c, addr) / kBlockSize;
          if (!dev_->retired().Contains(rb) && !RetireBlock(rb)) {
            terminal = true;
          }
        }
      }
    }
  }
  if (terminal) {
    ++stats_.exhausted_runs;
    return false;
  }
  ++attempt_;
  ++stats_.retries;
  stats_.backoff_units += std::uint64_t{1}
                          << std::min(attempt_ - 1, 63u);
  run_used_recovery_ = true;
  return true;
}

bool RecoveryManager::ArbitrateMismatch(Addr addr,
                                        const sim::ProtectedRange& range,
                                        std::uint8_t* primary,
                                        const std::uint8_t* copy0,
                                        std::uint32_t size) {
  if (!cfg_.arbitrate) return false;
  const Addr replica = range.ReplicaAddr(0, addr);
  const int p = ProbeRank(dev_->SecdedProbe(addr, size));
  const int r = ProbeRank(dev_->SecdedProbe(replica, size));
  if (p == r) return false;  // both look clean or both look dirty
  ++stats_.arbitrations;
  run_used_recovery_ = true;
  RecordOffense(addr);
  if (p < r) {
    // Primary wins: repair the dirty replica copy in place.
    Scrub(replica, primary, size);
  } else {
    std::memcpy(primary, copy0, size);
    Scrub(addr, primary, size);
  }
  return true;
}

void RecoveryManager::OnVoteCorrected(Addr addr, const std::uint8_t* voted,
                                      std::uint32_t size,
                                      bool escalated_range) {
  // A correction on a Tier-2-escalated range is a fault that would
  // have terminated the run under plain detect-only.
  if (escalated_range) run_used_recovery_ = true;
  Scrub(addr, voted, size);
}

bool RecoveryManager::Scrub(Addr addr, const std::uint8_t* good,
                            std::uint32_t size) {
  if (!cfg_.scrub) return false;
  ++stats_.scrubs;
  dev_->WriteBytes(addr, good, size);
  if (plane_ != nullptr) plane_->NoteChanged(addr, addr + size);
  // Verify each block the bytes touch on its own: only a block whose
  // write-back did not stick is quarantined.
  bool clean = true;
  bool landed = true;
  for (Addr lo = addr; lo < addr + size;) {
    const Addr hi = std::min<Addr>(addr + size, BlockBase(lo) + kBlockSize);
    const std::uint8_t* part = good + (lo - addr);
    bool sticks = false;
    try {
      std::uint8_t check[16];
      dev_->ReadBytes(lo, check, hi - lo);
      sticks = std::memcmp(check, part, hi - lo) == 0;
    } catch (const mem::DueError&) {
      sticks = false;  // the verify read itself tripped ECC: stuck cells
    }
    if (!sticks) {
      // The cells are permanently bad. The retirement copy carries the
      // block's true stored contents, and the scrub lands in the spare.
      clean = false;
      if (cfg_.retire && RetireBlock(lo / kBlockSize)) {
        dev_->WriteBytes(lo, part, hi - lo);
      } else {
        landed = false;
      }
    }
    lo = hi;
  }
  if (clean) ++stats_.scrub_sticks;
  return landed;
}

bool RecoveryManager::RetireBlock(std::uint64_t block) {
  if (dev_->retired().Contains(block)) return true;
  if (!cfg_.retire || spare_used_ >= cfg_.spare_blocks) return false;
  const std::uint64_t spare = spare_base_ / kBlockSize + spare_used_;
  ++spare_used_;
  // The backing store always holds the true written data (stuck-at
  // faults corrupt the read path only), so copying the stored bytes
  // moves the block's exact logical contents to healthy cells.
  std::memcpy(dev_->space().Data() + spare * kBlockSize,
              dev_->space().Data() + block * kBlockSize, kBlockSize);
  dev_->retired().Map(block, spare);
  if (plane_ != nullptr) {
    plane_->NoteChanged(block * kBlockSize, (block + 1) * kBlockSize);
  }
  ++stats_.retired_blocks;
  return true;
}

void RecoveryManager::RecordOffense(Addr addr) {
  auto owner = dev_->space().OwnerOf(addr);
  if (!owner && plane_ != nullptr) {
    // The address may sit in replica space: attribute it to the
    // replicated object.
    for (const auto& range : plane_->plan().ranges) {
      for (unsigned c = 0; c < plane_->plan().CopiesFor(range); ++c) {
        const Addr rb = range.replica_base[c];
        if (addr >= rb && addr < rb + range.size) {
          owner = dev_->space().OwnerOf(range.base);
          break;
        }
      }
      if (owner) break;
    }
  }
  if (owner) trial_offenses_.push_back(*owner);
}

unsigned RecoveryManager::ApplyEscalations(const EscalationLedger& ledger) {
  if (!cfg_.escalate || plane_ == nullptr) return 0;
  auto& plan = plane_->mutable_plan();
  if (plan.scheme != sim::Scheme::kDetectOnly) return 0;
  unsigned applied = 0;
  for (auto& range : plan.ranges) {
    if (plan.CopiesFor(range) != 1) continue;
    const auto owner = dev_->space().OwnerOf(range.base);
    if (!owner) continue;
    if (ledger.OffenseCount(*owner) < cfg_.escalate_threshold) continue;
    const Addr rb = dev_->space().AllocateRaw(range.size);
    escalated_.push_back({rb, range.base, range.size});
    range.replica_base[1] = rb;
    range.copies = 2;
    ++stats_.escalations;
    ++applied;
    SeedEscalated(escalated_.back());
  }
  return applied;
}

void RecoveryManager::SeedEscalated(const EscalatedReplica& e) {
  // Seed from the pristine snapshot when it covers the object (the
  // campaign path); otherwise from the current stored bytes.
  const std::byte* src = (e.primary_base + e.size <= snapshot_.size())
                             ? snapshot_.data() + e.primary_base
                             : dev_->space().Data() + e.primary_base;
  std::memcpy(dev_->space().Data() + e.replica_base, src, e.size);
}

}  // namespace dcrm::core
