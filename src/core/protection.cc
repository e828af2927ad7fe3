#include "core/protection.h"

#include <algorithm>
#include <cstring>

#include "core/recovery.h"

namespace dcrm::core {

namespace {

// Widest load the LD/ST unit compares or votes (a 128-bit vector load).
constexpr std::uint32_t kMaxProtectedLoad = 16;

}  // namespace

void ProtectedDataPlane::Load(Pc pc, Addr addr, void* out,
                              std::uint32_t size) {
  auto* bytes = static_cast<std::uint8_t*>(out);
  dev_->ReadBytes(addr, bytes, size);
  // Elided: every copy of a block no fault and no unpropagated store
  // has reached holds these same bytes, so the compare would match and
  // the vote would return them unchanged.
  const std::uint64_t block = BlockOf(addr);
  if (armed_ && size <= kMaxProtectedLoad &&
      block == BlockOf(addr + size - 1) && !MayDiffer(block)) {
    return;
  }
  CheckCopies(pc, addr, bytes, size);
}

void ProtectedDataPlane::CheckCopies(Pc pc, Addr addr, std::uint8_t* bytes,
                                     std::uint32_t size) {
  const sim::ProtectedRange* range =
      plan_.PcTracked(pc) ? plan_.Lookup(addr) : nullptr;
  if (range == nullptr) return;

  const unsigned copies = plan_.CopiesFor(*range);
  if (copies == 0) return;

  std::uint8_t copy0[kMaxProtectedLoad];
  std::uint8_t copy1[kMaxProtectedLoad];
  if (size > kMaxProtectedLoad) {
    throw std::invalid_argument("protected load wider than 16 bytes");
  }
  dev_->ReadBytes(range->ReplicaAddr(0, addr), copy0, size);
  if (copies == 1) {
    if (std::memcmp(bytes, copy0, size) != 0) {
      // Tier 0: before terminating, let the recovery manager try to
      // arbitrate the mismatch (per-copy SECDED probe). On success the
      // winning value is already in `bytes` and scrubbed back.
      if (recovery_ != nullptr &&
          recovery_->ArbitrateMismatch(addr, *range, bytes, copy0, size)) {
        return;
      }
      ++detections_;
      throw DetectionTerminated(pc, addr);
    }
    return;
  }
  // Majority vote over the primary and two replicas — the scheme's
  // triplication, or a detect-only range escalated by Tier 2.
  dev_->ReadBytes(range->ReplicaAddr(1, addr), copy1, size);
  bool corrected = false;
  for (std::uint32_t i = 0; i < size; ++i) {
    const std::uint8_t voted =
        static_cast<std::uint8_t>((bytes[i] & copy0[i]) |
                                  (bytes[i] & copy1[i]) |
                                  (copy0[i] & copy1[i]));
    if (voted != bytes[i]) corrected = true;
    bytes[i] = voted;
  }
  if (corrected) {
    ++corrections_;
    if (recovery_ != nullptr) {
      recovery_->OnVoteCorrected(addr, bytes, size,
                                 /*escalated_range=*/range->copies != 0 &&
                                     plan_.scheme ==
                                         sim::Scheme::kDetectOnly);
    }
  }
}

void ProtectedDataPlane::Store(Pc pc, Addr addr, const void* in,
                               std::uint32_t size) {
  if (!dev_->space().ValidRange(addr, size)) {
    throw std::out_of_range("store out of range");
  }
  dev_->WriteBytes(addr, in, size);
  const sim::ProtectedRange* range =
      plan_.propagate_stores && plan_.PcTracked(pc) ? plan_.Lookup(addr)
                                                    : nullptr;
  if (range != nullptr) {
    // Writable-object extension: keep every copy coherent so later
    // votes/compares see the new value, not a stale one.
    for (unsigned c = 0; c < plan_.CopiesFor(*range); ++c) {
      dev_->WriteBytes(range->ReplicaAddr(c, addr), in, size);
    }
  }
  if (armed_) NoteStore(addr, size, range);
}

void ProtectedDataPlane::BeginRun() {
  // Recovery scrubs, retires and escalates copies mid-run, which this
  // bitmap does not track; retirement also moves faults off the
  // logical blocks they are keyed by.
  armed_ = recovery_ == nullptr && plan_.scheme != sim::Scheme::kNone &&
           dev_->retired().Empty();
  if (!armed_) return;
  const std::uint64_t blocks =
      (dev_->space().StoreSize() + kBlockSize - 1) / kBlockSize;
  may_differ_.assign((blocks + 63) / 64, 0);
  replica_lo_ = ~Addr{0};
  replica_hi_ = 0;
  for (const sim::ProtectedRange& r : plan_.ranges) {
    for (unsigned c = 0; c < plan_.CopiesFor(r); ++c) {
      replica_lo_ = std::min(replica_lo_, r.replica_base[c]);
      replica_hi_ = std::max(replica_hi_, r.replica_base[c] + r.size);
    }
    // A block the range only partly covers stays on the full path: a
    // store that starts outside the range can reach into it without
    // crossing a block boundary.
    if (r.base % kBlockSize != 0) MarkBlocks(r.base, r.base + 1);
    const Addr end = r.base + r.size;
    if (end % kBlockSize != 0) MarkBlocks(end - 1, end);
  }
  for (const std::uint64_t block : dev_->faults().FaultyBlocks()) {
    const Addr lo = block * kBlockSize;
    MarkBlocks(lo, lo + kBlockSize);
    MarkCopiesOf(lo, lo + kBlockSize);
  }
}

void ProtectedDataPlane::MarkBlocks(Addr lo, Addr hi) {
  if (hi <= lo || may_differ_.empty()) return;
  const std::uint64_t last =
      std::min<std::uint64_t>(BlockOf(hi - 1), may_differ_.size() * 64 - 1);
  for (std::uint64_t b = BlockOf(lo); b <= last; ++b) {
    may_differ_[b / 64] |= std::uint64_t{1} << (b % 64);
  }
}

void ProtectedDataPlane::MarkCopiesOf(Addr lo, Addr hi) {
  if (hi <= replica_lo_ || lo >= replica_hi_) return;
  for (const sim::ProtectedRange& r : plan_.ranges) {
    for (unsigned c = 0; c < plan_.CopiesFor(r); ++c) {
      const Addr base = r.replica_base[c];
      const Addr from = std::max(lo, base);
      const Addr to = std::min(hi, base + r.size);
      if (from < to) MarkBlocks(r.base + (from - base), r.base + (to - base));
    }
  }
}

void ProtectedDataPlane::NoteStore(Addr addr, std::uint32_t size,
                                   const sim::ProtectedRange* propagated) {
  const Addr end = addr + size;
  // A store into replica space (a corrupted index) changes a copy
  // behind its primary's back.
  MarkCopiesOf(addr, end);
  if (propagated == nullptr) {
    // The copies kept their old bytes. A store across a block boundary
    // may reach a range its first byte is not in.
    if (BlockOf(addr) != BlockOf(end - 1) || plan_.Lookup(addr) != nullptr) {
      MarkBlocks(addr, end);
    }
    return;
  }
  if (end > propagated->base + propagated->size) {
    // Propagated past the range's end: the bytes beyond it reached only
    // the primary or land beside the replicas.
    MarkBlocks(addr, end);
    for (unsigned c = 0; c < plan_.CopiesFor(*propagated); ++c) {
      const Addr r = propagated->ReplicaAddr(c, addr);
      MarkCopiesOf(r, r + size);
    }
  }
}

}  // namespace dcrm::core
