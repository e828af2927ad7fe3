#include "mem/fault_model.h"

#include <algorithm>
#include <stdexcept>

namespace dcrm::mem {

void FaultMap::Add(const StuckAtFault& f) {
  if (f.bit > 7) throw std::invalid_argument("bit index out of range");
  faults_.push_back(f);
  const std::uint64_t block = BlockOf(f.byte_addr);
  if (!BlockHasFaults(block)) {
    const std::uint64_t word = block / 64;
    if (word >= block_bits_.size()) block_bits_.resize(word + 1, 0);
    block_bits_[word] |= std::uint64_t{1} << (block % 64);
    faulty_blocks_.push_back(block);
    masks_.emplace_back();
  }
  ByteFault& bf = masks_[SlotOf(block)][f.byte_addr % kBlockSize];
  const std::uint8_t m = static_cast<std::uint8_t>(1u << f.bit);
  if (f.stuck_value) {
    bf.stuck1_mask |= m;
    bf.stuck0_mask &= static_cast<std::uint8_t>(~m);
  } else {
    bf.stuck0_mask |= m;
    bf.stuck1_mask &= static_cast<std::uint8_t>(~m);
  }
}

void FaultMap::Clear() {
  faults_.clear();
  for (std::uint64_t block : faulty_blocks_) {
    block_bits_[block / 64] &= ~(std::uint64_t{1} << (block % 64));
  }
  faulty_blocks_.clear();
  masks_.clear();
}

const std::vector<std::uint64_t>& FaultMap::BlockBits(std::uint64_t blocks) {
  const std::uint64_t words = (blocks + 63) / 64;
  if (block_bits_.size() < words) block_bits_.resize(words, 0);
  return block_bits_;
}

std::size_t FaultMap::SlotOf(std::uint64_t block) const {
  return static_cast<std::size_t>(
      std::find(faulty_blocks_.begin(), faulty_blocks_.end(), block) -
      faulty_blocks_.begin());
}

void FaultMap::ApplyFaulty(Addr a, std::uint8_t* bytes,
                           std::uint64_t n) const {
  // One block at a time: a faulty block's masks are found once.
  std::uint64_t i = 0;
  while (i < n) {
    const Addr cur = a + i;
    const std::uint64_t take =
        std::min<std::uint64_t>(n - i, kBlockSize - cur % kBlockSize);
    if (BlockHasFaults(BlockOf(cur))) {
      const BlockMasks& masks = masks_[SlotOf(BlockOf(cur))];
      for (std::uint64_t k = 0; k < take; ++k) {
        const ByteFault& bf = masks[(cur + k) % kBlockSize];
        bytes[i + k] = static_cast<std::uint8_t>(
            (bytes[i + k] | bf.stuck1_mask) & ~bf.stuck0_mask);
      }
    }
    i += take;
  }
}

std::vector<StuckAtFault> MakeWordFaults(Addr block_base, unsigned num_bits,
                                         Rng& rng) {
  return MakeWordFaultsInRange(block_base, block_base + kBlockSize, num_bits,
                               rng);
}

std::vector<StuckAtFault> MakeWordFaultsInRange(Addr lo, Addr hi,
                                                unsigned num_bits, Rng& rng) {
  if (num_bits == 0 || num_bits > 32) {
    throw std::invalid_argument("num_bits must be in [1, 32]");
  }
  if (hi <= lo) throw std::invalid_argument("empty fault range");
  // Random aligned 4-byte word overlapping [lo, hi).
  const Addr first_word = lo / 4;
  const Addr last_word = (hi - 1) / 4;  // inclusive
  const Addr word_base =
      (first_word + rng.Below(last_word - first_word + 1)) * 4;
  // Distinct random bit positions within the 32-bit word.
  std::vector<unsigned> positions;
  positions.reserve(num_bits);
  while (positions.size() < num_bits) {
    const auto p = static_cast<unsigned>(rng.Below(32));
    if (std::find(positions.begin(), positions.end(), p) == positions.end()) {
      positions.push_back(p);
    }
  }
  std::vector<StuckAtFault> out;
  out.reserve(num_bits);
  for (unsigned p : positions) {
    StuckAtFault f;
    f.byte_addr = word_base + p / 8;
    f.bit = static_cast<std::uint8_t>(p % 8);
    f.stuck_value = rng.Bernoulli(0.5);
    out.push_back(f);
  }
  return out;
}

}  // namespace dcrm::mem
