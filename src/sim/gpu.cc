#include "sim/gpu.h"

#include <algorithm>
#include <stdexcept>

#include "sim/event_queue.h"

namespace dcrm::sim {

Gpu::Gpu(const GpuConfig& cfg, ProtectionPlan plan)
    : cfg_(cfg),
      plan_(std::move(plan)),
      map_{cfg.num_partitions, cfg.dram_banks, cfg.BlocksPerRow()},
      icnt_(cfg) {
  plan_.Validate(cfg_);
  for (std::uint32_t s = 0; s < cfg_.num_sms; ++s) {
    sms_.push_back(std::make_unique<SmCore>(cfg_, s, map_, plan_));
  }
  for (std::uint32_t p = 0; p < cfg_.num_partitions; ++p) {
    partitions_.push_back(std::make_unique<MemPartition>(cfg_, map_, p));
  }
}

GpuStats Gpu::Run(const trace::TraceStore& store, std::uint64_t max_cycles) {
  sm_stats_.assign(sms_.size(), GpuStats{});
  part_stats_.assign(partitions_.size(), GpuStats{});
  ticks_ = 0;
  for (std::uint32_t k = 0; k < store.NumKernels(); ++k) {
    RunKernel(store.Kernel(k), max_cycles);
  }
  // Totals are sums of the per-component counters; integer addition is
  // order-independent, so the roll-up equals the old single-accumulator
  // totals bit for bit.
  GpuStats stats;
  for (const auto& s : part_stats_) stats += s;
  for (const auto& s : sm_stats_) stats += s;
  stats.cycles = cycle_;
  stats.sim_ticks = ticks_;
  return stats;
}

bool Gpu::AnyBusy() const {
  if (!icnt_.Idle()) return true;
  for (const auto& sm : sms_) {
    if (sm->Busy()) return true;
  }
  for (const auto& p : partitions_) {
    if (!p->Idle()) return true;
  }
  return false;
}

void Gpu::RunKernel(const trace::KernelView& kernel,
                    std::uint64_t max_cycles) {
  // Build the complete CTA list. Warps that never touched memory are
  // absent from the trace but still occupy warp slots; FindWarp hands
  // back an empty slice for them, so occupancy is faithful.
  const std::uint32_t warps_per_cta = kernel.cfg().WarpsPerCta();
  const std::uint64_t num_ctas = kernel.cfg().NumCtas();
  CtaList ctas(num_ctas);
  for (std::uint64_t c = 0; c < num_ctas; ++c) {
    auto& list = ctas[c];
    list.reserve(warps_per_cta);
    for (std::uint32_t w = 0; w < warps_per_cta; ++w) {
      const WarpId id = static_cast<WarpId>(c * warps_per_cta + w);
      list.push_back(kernel.FindWarp(id));
    }
  }
  if (cfg_.engine == SimEngine::kCycleStepped) {
    RunKernelCycleStepped(ctas, warps_per_cta, max_cycles);
  } else {
    RunKernelEventDriven(ctas, warps_per_cta, max_cycles);
  }
  for (auto& sm : sms_) sm->Reset();
}

// The reference model: dispatch, then tick every partition and every
// SM, every cycle.
void Gpu::RunKernelCycleStepped(const CtaList& ctas,
                                std::uint32_t warps_per_cta,
                                std::uint64_t max_cycles) {
  const std::uint64_t num_ctas = ctas.size();
  std::uint64_t next_cta = 0;
  const std::uint64_t start_cycle = cycle_;
  for (;;) {
    // Dispatch: fill free CTA slots round-robin across SMs.
    bool progress = true;
    while (progress && next_cta < num_ctas) {
      progress = false;
      for (auto& sm : sms_) {
        if (next_cta >= num_ctas) break;
        if (sm->CanAcceptCta(warps_per_cta)) {
          sm->AddCta(ctas[next_cta]);
          ++next_cta;
          progress = true;
        }
      }
    }

    for (std::size_t p = 0; p < partitions_.size(); ++p) {
      partitions_[p]->Tick(cycle_, icnt_, part_stats_[p]);
      ++part_stats_[p].sim_ticks;
    }
    for (std::size_t s = 0; s < sms_.size(); ++s) {
      sms_[s]->Tick(cycle_, icnt_, sm_stats_[s]);
      ++sm_stats_[s].sim_ticks;
    }
    ++cycle_;
    ++ticks_;

    if (next_cta >= num_ctas && !AnyBusy()) break;
    if (cycle_ - start_cycle > max_cycles) {
      throw std::runtime_error("timing simulation exceeded max_cycles");
    }
  }
}

// The event-driven engine. Identity argument: ticking a component
// before its wakeup is a pure no-op (every state/stat transition a
// Tick can make is listed in that component's NextWakeup contract), so
// skipping exactly the cycles where *no* component is due leaves the
// state evolution — and therefore every counter and the final cycle
// count — bit-identical to the reference loop above. Within a round
// the reference tick order (partitions in index order, then SMs) is
// preserved; cross-component handoffs all carry future ready times
// (icnt latency, port occupancy, DRAM timing), so nothing pushed in a
// round is consumable in the same round and the skipped components'
// absence is unobservable.
//
// Per-round cost is O(due log n), not O(components): due ids are
// popped straight off the heap (the (time, id) tie-break yields them
// already in SM-then-partition index order), wakeups are re-derived
// only for components that ticked or whose interconnect pipe saw
// pushes (the icnt dirty lists), the dispatcher re-arms from a cached
// acceptance bitmap, and termination is the queue going quiet — a
// busy component always has a wakeup scheduled, so an all-parked
// queue IS the reference's !AnyBusy() condition (verified once, not
// per round).
void Gpu::RunKernelEventDriven(const CtaList& ctas,
                               std::uint32_t warps_per_cta,
                               std::uint64_t max_cycles) {
  const std::uint64_t num_ctas = ctas.size();
  const auto num_sms = static_cast<std::uint32_t>(sms_.size());
  const auto num_parts = static_cast<std::uint32_t>(partitions_.size());
  // Slot ids: [0, num_sms) SMs, [num_sms, num_sms+num_parts)
  // partitions, last the CTA dispatcher.
  const std::uint32_t dispatcher = num_sms + num_parts;
  std::uint64_t next_cta = 0;
  const std::uint64_t start_cycle = cycle_;

  // Kernels start quiescent (the previous kernel ran to !AnyBusy()),
  // so only the dispatcher is due — matching the reference loop, which
  // always dispatches and ticks at least one cycle per kernel.
  EventQueue queue(dispatcher + 1, start_cycle);
  queue.Update(dispatcher, start_cycle);
  icnt_.ClearTouched();

  // CTA-acceptance cache for dispatcher re-arming. Acceptance changes
  // only inside AddCta and Tick (warp retirement), so refreshing the
  // entries of SMs that were due keeps the bitmap exact.
  std::vector<char> can_accept(num_sms, 0);
  std::uint32_t acceptors = 0;
  for (std::uint32_t s = 0; s < num_sms; ++s) {
    can_accept[s] = sms_[s]->CanAcceptCta(warps_per_cta) ? 1 : 0;
    acceptors += can_accept[s];
  }

  std::vector<std::uint32_t> due;  // SM ids ascending, then partitions
  std::vector<std::uint64_t> whens;  // re-key targets, parallel to due
  due.reserve(dispatcher);
  whens.reserve(dispatcher);
  // Round stamp per component: dedups the wakeup recomputation between
  // the due list and the icnt dirty lists without per-round clearing.
  std::vector<std::uint64_t> stamped(dispatcher, 0);
  std::uint64_t round = 0;

  for (;;) {
    const std::uint64_t t = queue.MinTime();
    if (t == kNeverCycle) {
      // Queue quiet: nothing will ever happen again. With the wakeup
      // contracts intact this is exactly the reference's termination
      // condition; AnyBusy() double-checks them once per kernel.
      if (next_cta >= num_ctas && !AnyBusy()) break;
      // A busy component with no wakeup is a deadlock; the reference
      // loop would idle up to the guard and throw there.
      throw std::runtime_error("timing simulation exceeded max_cycles");
    }
    if (t > start_cycle + max_cycles) {
      // The reference loop would have thrown at the guard cycle, long
      // before this event fires. (A kernel that completes on the guard
      // cycle itself parks the queue instead of landing here — break
      // outranks throw, as in the reference.)
      throw std::runtime_error("timing simulation exceeded max_cycles");
    }
    queue.AdvanceTo(t);
    ++ticks_;
    ++round;

    // Dispatch, as the reference does at the top of each cycle. An SM
    // receiving a CTA is forced due this round: the reference ticks it
    // the same cycle (retiring empty warp slices, issuing first
    // instructions).
    if (next_cta < num_ctas && queue.TimeOf(dispatcher) == t) {
      bool progress = true;
      while (progress && next_cta < num_ctas) {
        progress = false;
        for (std::uint32_t s = 0; s < num_sms; ++s) {
          if (next_cta >= num_ctas) break;
          if (sms_[s]->CanAcceptCta(warps_per_cta)) {
            sms_[s]->AddCta(ctas[next_cta]);
            ++next_cta;
            progress = true;
            queue.Update(s, t);
          }
        }
      }
    }

    // Harvest this round's due set without disturbing the heap; each
    // entry is re-keyed once below (a short sift, since its new wakeup
    // is usually close) instead of the pop-to-never + reinsert round
    // trip of two full-height sifts. Sorting ascending makes the list
    // an SM prefix followed by a partition suffix, each in index order
    // — ticking the suffix first then the prefix reproduces the
    // reference order (partitions, then SMs).
    due.clear();
    queue.CollectDue(t, due);
    if (due.size() == dispatcher + 1u) {
      // Saturated round: everyone is due, the sorted list is just the
      // id sequence.
      due.resize(dispatcher);
      for (std::uint32_t id = 0; id < dispatcher; ++id) due[id] = id;
    } else {
      std::sort(due.begin(), due.end());
      if (!due.empty() && due.back() == dispatcher) due.pop_back();
    }
    std::size_t part_begin = due.size();
    while (part_begin > 0 && due[part_begin - 1] >= num_sms) --part_begin;
    for (std::size_t i = part_begin; i < due.size(); ++i) {
      const std::uint32_t p = due[i] - num_sms;
      partitions_[p]->Tick(t, icnt_, part_stats_[p]);
      ++part_stats_[p].sim_ticks;
    }
    for (std::size_t i = 0; i < part_begin; ++i) {
      const std::uint32_t s = due[i];
      sms_[s]->Tick(t, icnt_, sm_stats_[s]);
      ++sm_stats_[s].sim_ticks;
    }
    cycle_ = t + 1;

    // Re-derive wakeups: every component that ticked, plus any whose
    // interconnect input pipe saw pushes this round. A just-ticked
    // component's wakeup must land strictly after t (every contract
    // clamps to now+1) — at t it would re-fire in the same cycle
    // forever, so fail loudly instead.
    whens.clear();
    for (const std::uint32_t id : due) {
      stamped[id] = round;
      const std::uint64_t when =
          id >= num_sms ? partitions_[id - num_sms]->NextWakeup(t, icnt_)
                        : sms_[id]->NextWakeup(t, icnt_);
      if (when <= t) {
        throw std::logic_error("event engine: wakeup not in the future");
      }
      whens.push_back(when);
      if (id < num_sms && next_cta < num_ctas) {
        const char ca = sms_[id]->CanAcceptCta(warps_per_cta) ? 1 : 0;
        acceptors += ca - can_accept[id];
        can_accept[id] = ca;
      }
    }
    // Sparse rounds re-key one by one; crowded rounds heapify once.
    if (due.size() * 8 >= queue.size()) {
      queue.BulkUpdate(due, whens);
    } else {
      for (std::size_t i = 0; i < due.size(); ++i) {
        queue.Update(due[i], whens[i]);
      }
    }
    for (const std::uint32_t p : icnt_.TouchedPartitions()) {
      if (stamped[num_sms + p] == round) continue;
      stamped[num_sms + p] = round;
      queue.Update(num_sms + p, partitions_[p]->NextWakeup(t, icnt_));
    }
    for (const std::uint32_t s : icnt_.TouchedSms()) {
      if (stamped[s] == round) continue;
      stamped[s] = round;
      queue.Update(s, sms_[s]->NextWakeup(t, icnt_));
    }
    icnt_.ClearTouched();

    // The dispatcher is due next cycle while CTAs remain and a slot is
    // free; freed slots re-arm it through the acceptance cache.
    queue.Update(dispatcher, next_cta < num_ctas && acceptors > 0
                                 ? t + 1
                                 : kNeverCycle);
  }
}

}  // namespace dcrm::sim
