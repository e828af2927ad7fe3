// Permanent stuck-at fault model, following the paper's emulation of
// Luo et al. [39]: faults are attached to bit positions of byte
// addresses in the application address space, irrespective of cache /
// DRAM mapping. A stuck bit reads as its stuck value on every access;
// writes do not heal it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace dcrm::mem {

struct StuckAtFault {
  Addr byte_addr = 0;
  std::uint8_t bit = 0;  // 0..7 within the byte
  bool stuck_value = false;

  friend bool operator==(const StuckAtFault&, const StuckAtFault&) = default;
};

// Aggregated per-byte stuck masks for fast application on the read path.
struct ByteFault {
  std::uint8_t stuck1_mask = 0;  // bits forced to 1
  std::uint8_t stuck0_mask = 0;  // bits forced to 0
};

class FaultMap {
 public:
  void Add(const StuckAtFault& f);
  void Clear();
  bool Empty() const { return faulty_blocks_.empty(); }
  std::size_t NumFaults() const { return faults_.size(); }
  const std::vector<StuckAtFault>& Faults() const { return faults_; }

  // Applies every stuck-at fault overlapping [a, a+n) to `bytes`. The
  // block test is inline: an access to fault-free blocks (nearly every
  // access of a campaign run) pays one bitmap probe per block and no
  // call.
  void Apply(Addr a, std::uint8_t* bytes, std::uint64_t n) const {
    if (n == 0 || faulty_blocks_.empty()) return;
    const std::uint64_t last = BlockOf(a + n - 1);
    for (std::uint64_t b = BlockOf(a); b <= last; ++b) {
      if (BlockHasFaults(b)) {
        ApplyFaulty(a, bytes, n);
        return;
      }
    }
  }

  std::uint8_t ApplyByte(Addr a, std::uint8_t v) const {
    Apply(a, &v, 1);
    return v;
  }

  bool BlockHasFaults(std::uint64_t block) const {
    const std::uint64_t word = block / 64;
    return word < block_bits_.size() &&
           ((block_bits_[word] >> (block % 64)) & 1) != 0;
  }
  // The blocks holding at least one fault, in the order they were
  // first hit.
  const std::vector<std::uint64_t>& FaultyBlocks() const {
    return faulty_blocks_;
  }
  // The faulty-block bitmap (one bit per 128B block), first grown to
  // cover at least `blocks` blocks, so a reader may test any of them
  // without a bounds check. It never shrinks.
  const std::vector<std::uint64_t>& BlockBits(std::uint64_t blocks);

 private:
  using BlockMasks = std::array<ByteFault, kBlockSize>;

  void ApplyFaulty(Addr a, std::uint8_t* bytes, std::uint64_t n) const;
  // The position of faulty `block` in faulty_blocks_ and masks_.
  std::size_t SlotOf(std::uint64_t block) const;

  std::vector<StuckAtFault> faults_;
  // Dense faulty-block bitmap, grown to the highest faulty block seen
  // and kept across Clear() (which resets only the bits it set), so a
  // campaign's per-trial refill allocates nothing and every read-path
  // probe is one word test.
  std::vector<std::uint64_t> block_bits_;
  std::vector<std::uint64_t> faulty_blocks_;  // the set bits
  std::vector<BlockMasks> masks_;  // masks_[i]: faulty_blocks_[i]'s bytes
};

// The paper's injection recipe for one memory block: pick a random
// 4-byte word within the 128B block, then `num_bits` distinct random
// bit positions within that word, each stuck at 0 or 1 with equal
// probability.
std::vector<StuckAtFault> MakeWordFaults(Addr block_base, unsigned num_bits,
                                         Rng& rng);

// As above, but the word is drawn from [lo, hi) — the bytes of the
// block that actually belong to the application address space. Small
// data objects (a 36B filter, a 4B width) occupy only the head of
// their 128B block; the allocator padding past `hi` is not
// application data and is never a fault target.
std::vector<StuckAtFault> MakeWordFaultsInRange(Addr lo, Addr hi,
                                                unsigned num_bits, Rng& rng);

}  // namespace dcrm::mem
