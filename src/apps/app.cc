#include "apps/app.h"

#include <stdexcept>

namespace dcrm::apps {

exec::KernelGraph Chain(std::vector<exec::GraphNode> nodes) {
  exec::KernelGraph g;
  for (auto& node : nodes) {
    const std::uint32_t id = g.AddNode(std::move(node));
    if (id > 0) g.AddEdge(id - 1, id);
  }
  return g;
}

void RunKernels(App& app, exec::DataPlane& plane, exec::AccessSink* sink) {
  exec::KernelGraph graph = app.Graph();
  exec::RunGraph(graph, plane, sink);
}

std::vector<float> ReadOutputs(const App& app, const mem::DeviceMemory& dev) {
  std::vector<float> out;
  for (const std::string& name : app.OutputObjects()) {
    const auto id = dev.space().FindByName(name);
    if (!id) throw std::logic_error("unknown output object: " + name);
    const auto& obj = dev.space().Object(*id);
    const std::size_t n = obj.size_bytes / sizeof(float);
    const std::size_t start = out.size();
    out.resize(start + n);
    dev.ReadBytes(obj.base, reinterpret_cast<std::uint8_t*>(out.data() + start),
                  n * sizeof(float));
  }
  return out;
}

}  // namespace dcrm::apps
