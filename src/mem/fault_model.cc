#include "mem/fault_model.h"

#include <algorithm>
#include <stdexcept>

namespace dcrm::mem {

void FaultMap::Add(const StuckAtFault& f) {
  if (f.bit > 7) throw std::invalid_argument("bit index out of range");
  faults_.push_back(f);
  auto& bf = by_byte_[f.byte_addr];
  const std::uint8_t m = static_cast<std::uint8_t>(1u << f.bit);
  if (f.stuck_value) {
    bf.stuck1_mask |= m;
    bf.stuck0_mask &= static_cast<std::uint8_t>(~m);
  } else {
    bf.stuck0_mask |= m;
    bf.stuck1_mask &= static_cast<std::uint8_t>(~m);
  }
  const std::uint64_t block = BlockOf(f.byte_addr);
  if (BlockHasFaults(block)) return;
  const std::uint64_t word = block / 64;
  if (word >= block_bits_.size()) block_bits_.resize(word + 1, 0);
  block_bits_[word] |= std::uint64_t{1} << (block % 64);
  faulty_blocks_.push_back(block);
}

void FaultMap::Clear() {
  faults_.clear();
  by_byte_.clear();
  for (std::uint64_t block : faulty_blocks_) {
    block_bits_[block / 64] &= ~(std::uint64_t{1} << (block % 64));
  }
  faulty_blocks_.clear();
}

std::uint8_t FaultMap::ApplyByte(Addr a, std::uint8_t v) const {
  const auto it = by_byte_.find(a);
  if (it == by_byte_.end()) return v;
  const ByteFault& bf = it->second;
  return static_cast<std::uint8_t>((v | bf.stuck1_mask) &
                                   ~bf.stuck0_mask);
}

void FaultMap::Apply(Addr a, std::uint8_t* bytes, std::uint64_t n) const {
  if (by_byte_.empty()) return;
  // Fast path: skip scans for accesses entirely within fault-free
  // blocks (the overwhelmingly common case in a campaign run).
  const std::uint64_t first_block = BlockOf(a);
  const std::uint64_t last_block = BlockOf(a + n - 1);
  bool any = false;
  for (std::uint64_t b = first_block; b <= last_block; ++b) {
    if (BlockHasFaults(b)) {
      any = true;
      break;
    }
  }
  if (!any) return;
  for (std::uint64_t i = 0; i < n; ++i) {
    bytes[i] = ApplyByte(a + i, bytes[i]);
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
