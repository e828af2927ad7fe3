// CUDA-like kernel execution model: grids of CTAs, CTAs of threads,
// threads grouped into warps of 32. Kernel bodies are plain C++
// callables taking a ThreadCtx; every global-memory access goes
// through the ctx so it can be routed to the data plane, recorded for
// trace generation, and intercepted by the protection runtime.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>

#include "common/types.h"
#include "exec/data_plane.h"

namespace dcrm::exec {

// Identifies one thread within a launch.
struct ThreadCoord {
  Dim3 block_idx;
  Dim3 thread_idx;
  std::uint32_t cta_linear = 0;     // linearized CTA index in the grid
  std::uint32_t thread_linear = 0;  // linearized thread index in the CTA
  WarpId warp_global = 0;           // warp id unique across the grid
  std::uint8_t lane = 0;            // 0..31
};

struct AccessRecord {
  Pc pc = 0;
  Addr addr = 0;
  std::uint8_t size = 4;
  AccessType type = AccessType::kLoad;
};

// Receives every global-memory access of every thread, in thread
// execution order. Implemented by the profiler and the trace builder.
class AccessSink {
 public:
  virtual ~AccessSink() = default;
  virtual void OnAccess(const ThreadCoord& who, const AccessRecord& what) = 0;
};

struct LaunchConfig {
  Dim3 grid;
  Dim3 block;

  std::uint32_t ThreadsPerCta() const {
    return static_cast<std::uint32_t>(block.Count());
  }
  std::uint32_t WarpsPerCta() const {
    return (ThreadsPerCta() + kWarpSize - 1) / kWarpSize;
  }
  std::uint64_t NumCtas() const { return grid.Count(); }
  std::uint64_t TotalWarps() const { return NumCtas() * WarpsPerCta(); }
};

// Per-thread view handed to the kernel body. Typed ld/st helpers tag
// each access with a static instruction id (Pc) so the framework can
// attribute accesses to load sites, as the paper's PTX analysis does.
class ThreadCtx {
 public:
  ThreadCtx(const ThreadCoord& coord, const LaunchConfig& cfg,
            DataPlane& plane, AccessSink* sink)
      : coord_(coord), cfg_(cfg), plane_(&plane), sink_(sink) {}

  const Dim3& blockIdx() const { return coord_.block_idx; }
  const Dim3& threadIdx() const { return coord_.thread_idx; }
  const Dim3& blockDim() const { return cfg_.block; }
  const Dim3& gridDim() const { return cfg_.grid; }
  const ThreadCoord& coord() const { return coord_; }

  template <typename T>
  T Ld(Pc pc, Addr addr) {
    T v;
    if (!FastLoad(addr, &v)) plane_->Load(pc, addr, &v, sizeof(T));
    Record(pc, addr, sizeof(T), AccessType::kLoad);
    return v;
  }

  template <typename T>
  void St(Pc pc, Addr addr, const T& v) {
    plane_->Store(pc, addr, &v, sizeof(T));
    Record(pc, addr, sizeof(T), AccessType::kStore);
  }

 private:
  // Reads a load that lies in one clean block of the plane's published
  // view straight from the backing store; false sends it to Load.
  template <typename T>
  bool FastLoad(Addr addr, T* out) const {
    if constexpr (sizeof(T) > kMaxFastLoad) {
      return false;
    } else {
      const LoadView& view = plane_->view();
      const std::uint64_t block = BlockOf(addr);
      if (block >= view.blocks || block != BlockOf(addr + sizeof(T) - 1) ||
          (((*view.slow)[block / 64] >> (block % 64)) & 1) != 0) {
        return false;
      }
      std::memcpy(out, view.space->Data() + addr, sizeof(T));
      return true;
    }
  }

  void Record(Pc pc, Addr addr, std::uint8_t size, AccessType type) {
    if (sink_ != nullptr) sink_->OnAccess(coord_, {pc, addr, size, type});
  }

  ThreadCoord coord_;
  const LaunchConfig& cfg_;
  DataPlane* plane_;
  AccessSink* sink_;
};

using KernelFn = std::function<void(ThreadCtx&)>;

// Typed view of a device array: address arithmetic helper so kernels
// read like their CUDA sources.
template <typename T>
class ArrayRef {
 public:
  ArrayRef() = default;
  explicit ArrayRef(Addr base) : base_(base) {}

  Addr base() const { return base_; }
  Addr AddrOf(std::uint64_t index) const { return base_ + index * sizeof(T); }

  T Ld(ThreadCtx& ctx, Pc pc, std::uint64_t index) const {
    return ctx.Ld<T>(pc, AddrOf(index));
  }
  void St(ThreadCtx& ctx, Pc pc, std::uint64_t index, const T& v) const {
    ctx.St<T>(pc, AddrOf(index), v);
  }

 private:
  Addr base_ = 0;
};

}  // namespace dcrm::exec
