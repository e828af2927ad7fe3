#include "core/access_profile.h"

#include <algorithm>
#include <stdexcept>

#include "sim/tag_array.h"
#include "trace/trace_builder.h"

namespace dcrm::core {

void AccessProfiler::BeginKernel(const exec::LaunchConfig& cfg) {
  if (in_kernel_) throw std::logic_error("BeginKernel while in kernel");
  in_kernel_ = true;
  epoch_warps_.clear();
  epoch_total_warps_ = cfg.TotalWarps();
}

void AccessProfiler::EndKernel() {
  if (!in_kernel_) throw std::logic_error("EndKernel outside kernel");
  in_kernel_ = false;
  for (const auto& [block, warps] : epoch_warps_) {
    const double share =
        epoch_total_warps_ == 0
            ? 0.0
            : static_cast<double>(warps.size()) /
                  static_cast<double>(epoch_total_warps_);
    auto& bp = blocks_[block];
    bp.warp_share = std::max(bp.warp_share, share);
  }
  epoch_warps_.clear();
  ++kernel_epoch_;
}

void AccessProfiler::OnAccess(const exec::ThreadCoord& who,
                              const exec::AccessRecord& what) {
  if (recorder_ != nullptr) recorder_->OnAccess(who, what);
  const std::uint64_t block = BlockOf(what.addr);
  auto& bp = blocks_[block];
  if (what.type == AccessType::kLoad) {
    ++bp.reads;
    ++total_reads_;
  } else {
    ++bp.writes;
    ++total_writes_;
  }
  if (in_kernel_) epoch_warps_[block].insert(who.warp_global);

  if (space_ != nullptr) {
    auto& ps = pcs_[what.pc];
    ++ps.accesses;
    // Fast path: a static load site nearly always touches one object.
    mem::ObjectId id = mem::kInvalidObject;
    if (const auto it = pc_last_owner_.find(what.pc);
        it != pc_last_owner_.end() &&
        it->second != mem::kInvalidObject &&
        space_->Object(it->second).Contains(what.addr)) {
      id = it->second;
    } else {
      id = space_->OwnerOf(what.addr).value_or(mem::kInvalidObject);
      pc_last_owner_[what.pc] = id;
    }
    ++ps.per_object[id];
    if (what.type == AccessType::kLoad && in_kernel_ &&
        id != mem::kInvalidObject) {
      auto& per_kernel = obj_kernel_reads_[id];
      if (per_kernel.size() <= kernel_epoch_) {
        per_kernel.resize(kernel_epoch_ + 1, 0);
      }
      ++per_kernel[kernel_epoch_];
    }
  }
}

std::unordered_set<Pc> AccessProfiler::PcsTouching(
    std::span<const mem::ObjectId> objects) const {
  const std::unordered_set<mem::ObjectId> wanted(objects.begin(),
                                                 objects.end());
  std::unordered_set<Pc> out;
  for (const auto& [pc, stats] : pcs_) {
    for (const auto& [obj, count] : stats.per_object) {
      if (wanted.contains(obj)) {
        out.insert(pc);
        break;
      }
    }
  }
  return out;
}

std::vector<std::pair<std::uint64_t, BlockProfile>>
AccessProfiler::SortedByReads() const {
  std::vector<std::pair<std::uint64_t, BlockProfile>> out(blocks_.begin(),
                                                          blocks_.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second.reads != b.second.reads) {
      return a.second.reads < b.second.reads;
    }
    return a.first < b.first;
  });
  return out;
}

void AccessProfiler::AttachMissProfile(
    const std::unordered_map<std::uint64_t, std::uint64_t>& misses) {
  for (const auto& [block, count] : misses) {
    blocks_[block].l1_misses += count;
  }
}

void AccessProfiler::AttachTxnProfile(
    const std::unordered_map<std::uint64_t, std::uint64_t>& txns) {
  for (const auto& [block, count] : txns) {
    blocks_[block].txns += count;
  }
}

std::unordered_map<std::uint64_t, std::uint64_t> CountLoadTransactions(
    const trace::TraceStore& store) {
  std::unordered_map<std::uint64_t, std::uint64_t> txns;
  for (std::uint32_t k = 0; k < store.NumKernels(); ++k) {
    const trace::KernelView kv = store.Kernel(k);
    for (std::uint32_t w = 0; w < kv.NumWarps(); ++w) {
      const trace::WarpSlice ws = kv.Warp(w);
      for (std::uint32_t i = 0; i < ws.NumInsts(); ++i) {
        const trace::InstView inst = ws.Inst(i);
        if (inst.type != AccessType::kLoad) continue;
        for (Addr b : inst.blocks) ++txns[BlockOf(b)];
      }
    }
  }
  return txns;
}

std::vector<ObjectProfile> AggregateByObject(const AccessProfiler& prof,
                                             const mem::AddressSpace& space) {
  std::vector<ObjectProfile> out;
  out.reserve(space.Objects().size());
  for (const auto& obj : space.Objects()) {
    ObjectProfile op;
    op.id = obj.id;
    op.name = obj.name;
    op.read_only = obj.read_only;
    op.size_bytes = obj.size_bytes;
    op.num_blocks = obj.NumBlocks();
    double share_sum = 0.0;
    std::uint64_t touched = 0;
    const std::uint64_t first = obj.base / kBlockSize;
    const std::uint64_t last = (obj.end() - 1) / kBlockSize;
    for (std::uint64_t b = first; b <= last; ++b) {
      const auto it = prof.blocks().find(b);
      if (it == prof.blocks().end()) continue;
      op.reads += it->second.reads;
      op.txns += it->second.txns;
      op.l1_misses += it->second.l1_misses;
      share_sum += it->second.warp_share;
      ++touched;
    }
    op.reads_per_block =
        op.num_blocks == 0
            ? 0.0
            : static_cast<double>(op.reads) /
                  static_cast<double>(op.num_blocks);
    op.mean_warp_share =
        touched == 0 ? 0.0 : share_sum / static_cast<double>(touched);
    if (const auto kit = prof.object_kernel_reads().find(obj.id);
        kit != prof.object_kernel_reads().end()) {
      for (const std::uint64_t n : kit->second) {
        if (n == 0) continue;
        ++op.kernels_reading;
        op.max_kernel_reads = std::max(op.max_kernel_reads, n);
      }
    }
    out.push_back(std::move(op));
  }
  // Table III order: per-block read intensity, highest first. (Total
  // read counts would rank large streamed matrices above the small
  // reused vectors — e.g. `a` above `y1,y2` in P-MVT — which
  // contradicts the paper's listed order; intensity matches all rows.)
  std::sort(out.begin(), out.end(),
            [](const ObjectProfile& a, const ObjectProfile& b) {
              if (a.reads_per_block != b.reads_per_block) {
                return a.reads_per_block > b.reads_per_block;
              }
              if (a.reads != b.reads) return a.reads > b.reads;
              return a.name < b.name;
            });
  return out;
}

std::unordered_map<std::uint64_t, std::uint64_t> ReplayL1Misses(
    const trace::TraceStore& store, std::uint32_t num_sms,
    std::uint32_t l1_sets, std::uint32_t l1_ways) {
  std::unordered_map<std::uint64_t, std::uint64_t> misses;
  std::vector<sim::TagArray> l1s;
  l1s.reserve(num_sms);
  for (std::uint32_t s = 0; s < num_sms; ++s) l1s.emplace_back(l1_sets, l1_ways);

  for (std::uint32_t k = 0; k < store.NumKernels(); ++k) {
    const trace::KernelView kernel = store.Kernel(k);
    // Group warp slices per SM (CTA round-robin), then interleave the
    // warps of each SM round-robin, one instruction at a time — an
    // order-of-magnitude approximation of the loose round-robin
    // scheduler that is enough for a miss *profile*.
    std::vector<std::vector<trace::WarpSlice>> per_sm(num_sms);
    for (std::uint32_t w = 0; w < kernel.NumWarps(); ++w) {
      const trace::WarpSlice ws = kernel.Warp(w);
      per_sm[ws.cta() % num_sms].push_back(ws);
    }
    for (std::uint32_t s = 0; s < num_sms; ++s) {
      auto& warps = per_sm[s];
      std::vector<std::uint32_t> cursor(warps.size(), 0);
      bool any = true;
      while (any) {
        any = false;
        for (std::size_t wi = 0; wi < warps.size(); ++wi) {
          if (cursor[wi] >= warps[wi].NumInsts()) continue;
          any = true;
          const trace::InstView inst = warps[wi].Inst(cursor[wi]++);
          for (Addr block : inst.blocks) {
            const bool is_store = inst.type == AccessType::kStore;
            // Write-through no-allocate L1: stores don't allocate and
            // don't contribute miss counts.
            if (is_store) {
              l1s[s].Access(block, /*allocate=*/false);
              continue;
            }
            if (!l1s[s].Access(block, /*allocate=*/true)) {
              ++misses[BlockOf(block)];
            }
          }
        }
      }
    }
  }
  return misses;
}

}  // namespace dcrm::core
