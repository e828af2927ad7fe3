#include "core/protection.h"

#include <algorithm>
#include <cstring>

#include "core/recovery.h"

namespace dcrm::core {

namespace {

// The end of a range's padded extent: allocations are padded to a
// block boundary, so the bytes up to it belong to no other object.
Addr PaddedEnd(const sim::ProtectedRange& r) {
  return (r.base + r.size + kBlockSize - 1) / kBlockSize * kBlockSize;
}

}  // namespace

void ProtectedDataPlane::Load(Pc pc, Addr addr, void* out,
                              std::uint32_t size) {
  auto* bytes = static_cast<std::uint8_t*>(out);
  dev_->ReadBytes(addr, bytes, size);
  const sim::ProtectedRange* range =
      plan_.PcTracked(pc) ? plan_.Lookup(addr) : nullptr;
  if (range == nullptr) return;

  const unsigned copies = plan_.CopiesFor(*range);
  if (copies == 0) return;

  std::uint8_t copy0[exec::kMaxFastLoad];
  std::uint8_t copy1[exec::kMaxFastLoad];
  if (size > exec::kMaxFastLoad) {
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
  if (view_.blocks != 0) NoteStore(addr, size, range);
}

void ProtectedDataPlane::BeginRun() {
  view_ = {};
  if (plan_.scheme == sim::Scheme::kNone) return;
  const std::uint64_t blocks =
      (dev_->space().StoreSize() + kBlockSize - 1) / kBlockSize;
  may_differ_.assign((blocks + 63) / 64, 0);
  replica_lo_ = ~Addr{0};
  replica_hi_ = 0;
  const std::byte* store = dev_->space().Data();
  const Addr store_end = dev_->space().StoreSize();
  for (const sim::ProtectedRange& r : plan_.ranges) {
    const Addr end = r.base + r.size;
    const std::uint64_t padded = PaddedEnd(r) - r.base;
    for (unsigned c = 0; c < plan_.CopiesFor(r); ++c) {
      const Addr rb = r.replica_base[c];
      replica_lo_ = std::min(replica_lo_, rb);
      replica_hi_ = std::max(replica_hi_, rb + padded);
      // A load that crosses the range's end compares the padding too,
      // so a copy whose padding differs from the primary's (a range
      // that ends inside its object, or padding no restore resets)
      // keeps the tail block on the full path.
      if (padded != r.size &&
          (r.base + padded > store_end || rb + padded > store_end ||
           std::memcmp(store + end, store + rb + r.size, padded - r.size) !=
               0)) {
        MarkBlocks(end - 1, end);
      }
    }
    // A block the range only partly covers stays on the full path: a
    // store that starts outside the range can reach into it without
    // crossing a block boundary. Only a range whose base is not
    // block-aligned shares a block with bytes outside its padded
    // extent (allocations are block-aligned and padded to a block).
    if (r.base % kBlockSize != 0) {
      MarkBlocks(r.base, r.base + 1);
      MarkBlocks(end - 1, end);
    }
  }
  const auto mark_block = [this](std::uint64_t block) {
    MarkBlocks(block * kBlockSize, (block + 1) * kBlockSize);
    MarkCopiesOf(block * kBlockSize, (block + 1) * kBlockSize);
  };
  for (const std::uint64_t block : dev_->faults().FaultyBlocks()) {
    mark_block(block);
  }
  // A retired block reads from its spare, whose faults are keyed by the
  // spare's address.
  for (const auto& [block, spare] : dev_->retired().Entries()) {
    mark_block(block);
  }
  // Stores, scrubs and retirements mark the bitmap in place, so the
  // view stays current all run.
  view_ = {&dev_->space(), &may_differ_,
           dev_->space().StoreSize() / kBlockSize};
}

void ProtectedDataPlane::NoteChanged(Addr lo, Addr hi) {
  if (view_.blocks == 0) return;
  MarkBlocks(lo, hi);
  MarkCopiesOf(lo, hi);
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
      const Addr to = std::min(hi, base + (PaddedEnd(r) - r.base));
      if (from < to) MarkBlocks(r.base + (from - base), r.base + (to - base));
    }
  }
}

bool ProtectedDataPlane::InPaddedExtent(Addr a) const {
  for (const sim::ProtectedRange& r : plan_.ranges) {
    if (a >= r.base && a < PaddedEnd(r)) return true;
  }
  return false;
}

void ProtectedDataPlane::NoteStore(Addr addr, std::uint32_t size,
                                   const sim::ProtectedRange* propagated) {
  const Addr end = addr + size;
  // A store into replica space (a corrupted index) changes a copy
  // behind its primary's back.
  MarkCopiesOf(addr, end);
  if (propagated == nullptr) {
    // The copies kept their old bytes. A store across a block boundary
    // may reach a range its first byte is not in; one into a range's
    // padding changes bytes a load crossing the range's end compares.
    if (BlockOf(addr) != BlockOf(end - 1) || InPaddedExtent(addr)) {
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
