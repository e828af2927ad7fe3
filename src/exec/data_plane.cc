#include "exec/data_plane.h"

#include <cstring>

namespace dcrm::exec {

DirectDataPlane::DirectDataPlane(mem::DeviceMemory& dev) : dev_(&dev) {
  if (!dev.retired().Empty()) return;
  const std::uint64_t blocks = dev.space().StoreSize() / kBlockSize;
  view_ = {&dev.space(), &dev.faults().BlockBits(blocks), blocks};
}

void DirectDataPlane::Store(Pc, Addr addr, const void* in,
                            std::uint32_t size) {
  if (!dev_->space().ValidRange(addr, size)) {
    throw std::out_of_range("store out of range");
  }
  // Through WriteBytes so stores to retired blocks land in the spare.
  dev_->WriteBytes(addr, in, size);
}

}  // namespace dcrm::exec
