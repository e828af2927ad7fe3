// The data plane a simulated kernel thread talks to. The plain
// implementation forwards to DeviceMemory; the protection runtime
// (src/core) wraps it to add replica reads, comparison, and majority
// voting for protected objects.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "mem/device_memory.h"

namespace dcrm::exec {

// Widest load ThreadCtx::Ld serves from a LoadView (and the widest
// load the protection runtime compares or votes).
inline constexpr std::uint32_t kMaxFastLoad = 16;

// What ThreadCtx::Ld needs to read a clean block straight from the
// backing store instead of calling the virtual Load (DESIGN.md §6). A
// plane publishes a view only while a load of at most kMaxFastLoad
// bytes that lies in one block below `blocks`, whose bit in `slow` is
// clear, returns exactly the stored bytes through Load too. The view
// names the owners of the store and of the bitmap rather than their
// buffers, so an allocation or a fault added after publication never
// leaves it dangling; neither ever shrinks, so `blocks` stays in range.
struct LoadView {
  const mem::AddressSpace* space = nullptr;
  const std::vector<std::uint64_t>* slow = nullptr;
  std::uint64_t blocks = 0;  // 0: no view, every load takes Load
};

class DataPlane {
 public:
  virtual ~DataPlane() = default;

  virtual void Load(Pc pc, Addr addr, void* out, std::uint32_t size) = 0;
  virtual void Store(Pc pc, Addr addr, const void* in, std::uint32_t size) = 0;

  // Empty unless the subclass publishes one: a plane that does not
  // keeps every load on Load.
  const LoadView& view() const { return view_; }

 protected:
  LoadView view_;
};

// Unprotected pass-through: loads see injected faults (and ECC if the
// device enables it); stores go straight to the backing store.
//
// Built over a device with no retired block, it publishes the fault
// map's faulty-block bitmap as its view: a fault-free block reads its
// stored bytes, under SECDED too. Retirement remaps blocks the view
// does not know of, so a caller that retires blocks builds a new plane
// for the next run.
class DirectDataPlane final : public DataPlane {
 public:
  explicit DirectDataPlane(mem::DeviceMemory& dev);

  void Load(Pc, Addr addr, void* out, std::uint32_t size) override {
    dev_->ReadBytes(addr, static_cast<std::uint8_t*>(out), size);
  }
  void Store(Pc, Addr addr, const void* in, std::uint32_t size) override;

 private:
  mem::DeviceMemory* dev_;
};

}  // namespace dcrm::exec
