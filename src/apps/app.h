// Application model: each studied GPGPU application (Table II) is a
// set of kernel launches over named device data objects, plus the
// app-specific output error metric used to classify a run as SDC.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/kernel.h"
#include "exec/kernel_graph.h"
#include "exec/launcher.h"
#include "mem/device_memory.h"

namespace dcrm::apps {

class App {
 public:
  virtual ~App() = default;

  virtual std::string Name() const = 0;

  // Allocates and deterministically initializes every data object in
  // `dev`, remembering the handles for Graph(). Called once per
  // device; campaign re-runs restore the store snapshot instead.
  virtual void Setup(mem::DeviceMemory& dev) = 0;

  // The app's kernels as a graph: nodes with object read/write sets,
  // edges as dependencies. Valid after Setup(). Apps whose kernels run
  // one after another return Chain(...); multi-kernel DAG apps declare
  // data edges.
  virtual exec::KernelGraph Graph() = 0;

  // Names of the output data objects, in comparison order.
  virtual std::vector<std::string> OutputObjects() const = 0;

  // Table II error metric between golden and observed outputs
  // (concatenated output objects, as floats).
  virtual double OutputError(std::span<const float> golden,
                             std::span<const float> observed) const = 0;

  // Error above this threshold classifies the run as an SDC.
  virtual double SdcThreshold() const = 0;
  virtual std::string MetricName() const = 0;

  // Modeled arithmetic intensity for the timing simulator (cycles of
  // dependent ALU work per memory instruction).
  virtual std::uint32_t AluCyclesPerMem() const { return 8; }
};

// Runs all kernels functionally, in the graph's deterministic
// topological order. Exceptions (DetectionTerminated, DueError)
// propagate to the caller.
void RunKernels(App& app, exec::DataPlane& plane, exec::AccessSink* sink);

// Adds `nodes` in order and links each to the next by an
// ordering-only edge (empty object). TopoOrder() is then the given
// order, and since no edge carries an object the trace layer persists
// no graph metadata: a chain app's serialized traces are version 1.
exec::KernelGraph Chain(std::vector<exec::GraphNode> nodes);

// Reads the app's output objects (through the faulty read path) into
// one float vector.
std::vector<float> ReadOutputs(const App& app, const mem::DeviceMemory& dev);

}  // namespace dcrm::apps
