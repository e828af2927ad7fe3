// Kernel-graph runtime: applications declare their kernel launches as
// a DAG over named data objects. Nodes are kernel launches annotated
// with the objects they read and write; edges are dependencies —
// either *data* edges carrying the object name that flows producer →
// consumer, or plain *ordering* edges (empty object name), which link
// the kernels of a chain app (apps::Chain) in program order.
//
// Execution is deterministic by construction: TopoOrder() runs Kahn's
// algorithm with a smallest-ready-node-id tie-break, so the schedule
// is a pure function of the graph (no hash-order or pointer-order
// dependence), and a chain inserted in program order executes in
// exactly that order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/kernel.h"
#include "exec/launcher.h"

namespace dcrm::exec {

// One kernel launch plus its declared object footprint. The read/write
// sets name data objects (mem::AddressSpace names); they drive
// ConnectByObjects() and are checked by Validate() for data edges.
struct GraphNode {
  std::string name;  // launch name; repeated names are fine (chunked GEMMs)
  LaunchConfig cfg;
  KernelFn body;
  std::vector<std::string> reads;
  std::vector<std::string> writes;
};

struct GraphEdge {
  std::uint32_t producer = 0;
  std::uint32_t consumer = 0;
  // Data object flowing along the edge; empty for a pure ordering edge
  // (a chain's kernel#i -> kernel#i+1 links).
  std::string object;

  friend bool operator==(const GraphEdge&, const GraphEdge&) = default;
};

class KernelGraph {
 public:
  // Returns the new node's id (dense, in insertion order).
  std::uint32_t AddNode(GraphNode node);

  // Adds a dependency edge. Throws std::invalid_argument immediately
  // on out-of-range ids or a self-edge; object membership in the
  // producer's write set / consumer's read set is checked by
  // Validate(). Duplicate edges are dropped.
  void AddEdge(std::uint32_t producer, std::uint32_t consumer,
               std::string object = {});

  // Derives the data edges from the declared read/write sets: a node
  // depends on *every* earlier (insertion-order) writer of each object
  // it reads — partial writers of one tensor (e.g. per-chunk GEMM
  // launches) all feed the consumer. Write-after-write and
  // write-after-read hazards on the same object become ordering edges,
  // so non-SSA graphs stay sequentially consistent with their
  // insertion order.
  void ConnectByObjects();

  // Structural validation. Throws std::invalid_argument on:
  //   * an edge endpoint out of range or a self-edge,
  //   * a data edge whose object the producer does not write
  //     ("missing producer"),
  //   * a data edge whose object the consumer does not read
  //     ("dangling consumer"),
  //   * a dependency cycle.
  void Validate() const;

  // Deterministic topological order: Kahn's algorithm, always taking
  // the smallest ready node id. Calls Validate() first. For a chain
  // inserted in program order this is exactly the insertion order.
  std::vector<std::uint32_t> TopoOrder() const;

  std::uint32_t NumNodes() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  const GraphNode& Node(std::uint32_t id) const { return nodes_[id]; }
  GraphNode& Node(std::uint32_t id) { return nodes_[id]; }
  const std::vector<GraphNode>& Nodes() const { return nodes_; }
  const std::vector<GraphEdge>& Edges() const { return edges_; }

  // The data edges only (non-empty object), in deterministic
  // (producer, consumer, object) order — what the trace layer persists.
  std::vector<GraphEdge> DataEdges() const;

 private:
  std::vector<GraphNode> nodes_;
  std::vector<GraphEdge> edges_;
};

// Executes every node in TopoOrder() through LaunchKernel and returns
// the order used. Exceptions from kernel bodies (DueError,
// DetectionTerminated) propagate, aborting the remaining nodes — same
// contract as the old flat-list loop.
std::vector<std::uint32_t> RunGraph(KernelGraph& graph, DataPlane& plane,
                                    AccessSink* sink);

}  // namespace dcrm::exec
