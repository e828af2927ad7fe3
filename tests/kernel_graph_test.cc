// Kernel-graph runtime tests: structural validation (cycles, missing
// producers, dangling consumers), deterministic topological order,
// pinned serialized traces for every chain and DAG app,
// version-2 trace serialization with graph metadata, node-keyed kernel
// stats, cross-kernel ACE liveness over data edges, and the
// cross-kernel hotness view of the DAG workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/vulnerability.h"
#include "apps/app.h"
#include "apps/driver.h"
#include "apps/registry.h"
#include "core/access_profile.h"
#include "exec/kernel_graph.h"
#include "exec/launcher.h"
#include "hand_trace.h"
#include "mem/device_memory.h"
#include "trace/graph_stats.h"
#include "trace/trace_io.h"
#include "trace/trace_store.h"

namespace dcrm {
namespace {

exec::GraphNode Node(std::string name, std::vector<std::string> reads = {},
                     std::vector<std::string> writes = {}) {
  exec::GraphNode n;
  n.name = std::move(name);
  n.cfg.grid = {1, 1, 1};
  n.cfg.block = {1, 1, 1};
  n.body = [](exec::ThreadCtx&) {};
  n.reads = std::move(reads);
  n.writes = std::move(writes);
  return n;
}

// ---------------------------------------------------------------------
// Structural validation.

TEST(KernelGraph, SelfEdgeThrowsImmediately) {
  exec::KernelGraph g;
  g.AddNode(Node("a"));
  EXPECT_THROW(g.AddEdge(0, 0), std::invalid_argument);
}

TEST(KernelGraph, OutOfRangeEdgeThrowsImmediately) {
  exec::KernelGraph g;
  g.AddNode(Node("a"));
  EXPECT_THROW(g.AddEdge(0, 5), std::invalid_argument);
  EXPECT_THROW(g.AddEdge(5, 0), std::invalid_argument);
}

TEST(KernelGraph, CycleThrows) {
  exec::KernelGraph g;
  g.AddNode(Node("a"));
  g.AddNode(Node("b"));
  g.AddNode(Node("c"));
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  EXPECT_THROW(g.Validate(), std::invalid_argument);
  EXPECT_THROW(g.TopoOrder(), std::invalid_argument);
}

TEST(KernelGraph, MissingProducerThrows) {
  exec::KernelGraph g;
  g.AddNode(Node("w", {}, {"x"}));
  g.AddNode(Node("r", {"x", "y"}, {}));
  // Data edge claims object "y" flows from a node that never writes it.
  g.AddEdge(0, 1, "y");
  EXPECT_THROW(g.Validate(), std::invalid_argument);
}

TEST(KernelGraph, DanglingConsumerThrows) {
  exec::KernelGraph g;
  g.AddNode(Node("w", {}, {"x"}));
  g.AddNode(Node("r", {}, {}));
  // Data edge claims "x" flows into a node that never reads it.
  g.AddEdge(0, 1, "x");
  EXPECT_THROW(g.Validate(), std::invalid_argument);
}

TEST(KernelGraph, ValidDataEdgePasses) {
  exec::KernelGraph g;
  g.AddNode(Node("w", {}, {"x"}));
  g.AddNode(Node("r", {"x"}, {}));
  g.AddEdge(0, 1, "x");
  EXPECT_NO_THROW(g.Validate());
}

// ---------------------------------------------------------------------
// Deterministic topological order.

TEST(KernelGraph, DiamondTopoOrderIsMinNodeId) {
  exec::KernelGraph g;
  for (int i = 0; i < 4; ++i) g.AddNode(Node("n"));
  // Insert edges out of order; the schedule must not depend on it.
  g.AddEdge(2, 3);
  g.AddEdge(1, 3);
  g.AddEdge(0, 2);
  g.AddEdge(0, 1);
  EXPECT_EQ(g.TopoOrder(), (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(KernelGraph, ReadyTieBreakPicksSmallestId) {
  exec::KernelGraph g;
  for (int i = 0; i < 3; ++i) g.AddNode(Node("n"));
  g.AddEdge(0, 2);
  // After node 0, both 1 and 2 are ready; 1 wins by id.
  EXPECT_EQ(g.TopoOrder(), (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(KernelGraph, ConnectByObjectsLinksEveryPriorWriter) {
  exec::KernelGraph g;
  g.AddNode(Node("w1", {}, {"o"}));
  g.AddNode(Node("w2", {}, {"o"}));
  g.AddNode(Node("r", {"o"}, {}));
  g.ConnectByObjects();
  EXPECT_NO_THROW(g.Validate());
  const auto data = g.DataEdges();
  // Both partial writers feed the reader; the writer-writer hazard is
  // an ordering edge, not a data edge.
  ASSERT_EQ(data.size(), 2u);
  EXPECT_EQ(data[0], (exec::GraphEdge{0, 2, "o"}));
  EXPECT_EQ(data[1], (exec::GraphEdge{1, 2, "o"}));
  EXPECT_TRUE(std::any_of(
      g.Edges().begin(), g.Edges().end(),
      [](const exec::GraphEdge& e) {
        return e.producer == 0 && e.consumer == 1 && e.object.empty();
      }));
  EXPECT_EQ(g.TopoOrder(), (std::vector<std::uint32_t>{0, 1, 2}));
}

// ---------------------------------------------------------------------
// Chain apps: every app but the DAG apps declares a chain that runs in
// program order and serializes to the version-1 bytes pinned below.

// The store the profiling driver records for `app`.
std::shared_ptr<const trace::TraceStore> Recorded(apps::App& app) {
  return apps::ProfileApp(app, sim::GpuConfig{}).trace_store;
}

std::vector<std::string> ChainAppNames() {
  std::vector<std::string> names = apps::AllAppNames();
  for (const std::string& g : apps::GraphAppNames()) {
    names.erase(std::remove(names.begin(), names.end(), g), names.end());
  }
  return names;
}

// Serialized size and stored FNV-1a tail of each app's profiled
// trace. A change to an app's kernels, its graph, the recorder or the
// trace format moves them. Chains must stay version 1 (no graph
// metadata); the two DAG apps version 2.
struct TracePin {
  const char* app;
  apps::AppScale scale;
  std::size_t bytes;
  std::uint64_t checksum;
};

constexpr TracePin kChainPins[] = {
    {"C-NN", apps::AppScale::kTiny, 314194, 0xdabae52cfe66a0b6ull},
    {"P-BICG", apps::AppScale::kTiny, 24669, 0x05ac315ed6e45f25ull},
    {"P-GESUMMV", apps::AppScale::kTiny, 42603, 0xf690901035c2df76ull},
    {"P-MVT", apps::AppScale::kTiny, 24706, 0x50d93391f79cb008ull},
    {"A-Laplacian", apps::AppScale::kTiny, 18439, 0x756b1a676c7798a8ull},
    {"A-Meanfilter", apps::AppScale::kTiny, 11503, 0x9219e7f2ea9b299dull},
    {"A-Sobel", apps::AppScale::kTiny, 23047, 0x8fe433f8c3d73e4eull},
    {"A-SRAD", apps::AppScale::kTiny, 20589, 0x8b91a4bc5512cab7ull},
    {"P-ATAX", apps::AppScale::kTiny, 24675, 0x3ed33d4c1ee51145ull},
    {"C-ConvRows", apps::AppScale::kTiny, 31799, 0xdd3dd974c079c8faull},
    {"C-Histogram", apps::AppScale::kTiny, 10750, 0x84ff1ce24d34d876ull},
    {"C-BlackScholes", apps::AppScale::kTiny, 4274, 0x2a3651e02a9ee517ull},
    {"P-GRAMSCHM", apps::AppScale::kTiny, 218915, 0xbc4f5b4d525f3559ull},
    {"C-NN", apps::AppScale::kSmall, 750909, 0x6bfdeef0c42f8fb9ull},
    {"P-BICG", apps::AppScale::kSmall, 175970, 0x363728ae3133b027ull},
    {"P-GESUMMV", apps::AppScale::kSmall, 302968, 0x7a38cd08365b7227ull},
    {"P-MVT", apps::AppScale::kSmall, 176067, 0xafacd4c0439424daull},
    {"A-Laplacian", apps::AppScale::kSmall, 79430, 0x3166828bb1acd2b5ull},
    {"A-Meanfilter", apps::AppScale::kSmall, 48547, 0x21786bc9eb298229ull},
    {"A-Sobel", apps::AppScale::kSmall, 97862, 0x6c91cb7b1438db0full},
    {"A-SRAD", apps::AppScale::kSmall, 84822, 0x83a4b0910a49dffbull},
    {"P-ATAX", apps::AppScale::kSmall, 175986, 0xe7d5f3a617d432f8ull},
    {"C-ConvRows", apps::AppScale::kSmall, 138041, 0x7cb4915ac545b72dull},
    {"C-Histogram", apps::AppScale::kSmall, 43048, 0x44482f0cd1713d35ull},
    {"C-BlackScholes", apps::AppScale::kSmall, 17331, 0x3ef4ccf82fef83f4ull},
    {"P-GRAMSCHM", apps::AppScale::kSmall, 492427, 0xf67f64d0de4b9953ull},
};

constexpr TracePin kGraphPins[] = {
    {"L-Transformer", apps::AppScale::kTiny, 13720, 0xc5e7e8ba65c1e8fcull},
    {"L-MLP2", apps::AppScale::kTiny, 5772, 0x98e467fc2596fc26ull},
    {"L-Transformer", apps::AppScale::kSmall, 157211, 0xfa917bc81c573d6full},
    {"L-MLP2", apps::AppScale::kSmall, 16883, 0xd9adc752638a43e0ull},
};

void ExpectPinnedTrace(const TracePin& pin, std::uint32_t version) {
  const std::string context =
      std::string(pin.app) + " at " + NameOf(apps::kScaleNames, pin.scale);
  auto app = apps::MakeApp(pin.app, pin.scale);
  const std::string bytes = trace::SaveTraceToString(*Recorded(*app));
  const trace::TraceTailProbe probe = trace::ProbeTraceTailBytes(bytes);
  EXPECT_EQ(bytes.size(), pin.bytes) << context;
  EXPECT_EQ(probe.checksum, pin.checksum) << context;
  EXPECT_EQ(probe.version, version) << context;
}

TEST(GraphShim, LegacyAppsSerializeBitIdenticallyToVersion1) {
  const std::vector<std::string> names = ChainAppNames();
  ASSERT_EQ(std::size(kChainPins), 2 * names.size());
  for (const TracePin& pin : kChainPins) {
    EXPECT_NE(std::find(names.begin(), names.end(), pin.app), names.end())
        << pin.app;
    ExpectPinnedTrace(pin, 1);
  }
}

TEST(GraphTraceIo, GraphAppsSerializeToPinnedVersion2) {
  ASSERT_EQ(std::size(kGraphPins), 2 * apps::GraphAppNames().size());
  for (const TracePin& pin : kGraphPins) ExpectPinnedTrace(pin, 2);
}

TEST(GraphShim, ShimGraphIsChainOfOrderingEdges) {
  for (const std::string& name : ChainAppNames()) {
    auto app = apps::MakeApp(name, apps::AppScale::kTiny);
    mem::DeviceMemory dev;
    app->Setup(dev);
    exec::KernelGraph g = app->Graph();
    EXPECT_TRUE(g.DataEdges().empty()) << name;
    ASSERT_GE(g.NumNodes(), 1u) << name;
    EXPECT_EQ(g.Edges().size(), g.NumNodes() - 1u) << name;
    const auto order = g.TopoOrder();
    for (std::uint32_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], i) << name;
    }
  }
}

// ---------------------------------------------------------------------
// Version-2 serialization: graph metadata round-trips, legacy loaders
// of both versions agree through ProbeTraceTail.

TEST(GraphTraceIo, GraphStoreRoundTripsAsVersion2) {
  auto app = apps::MakeApp("L-Transformer", apps::AppScale::kTiny);
  const auto store = Recorded(*app);
  ASSERT_FALSE(store->columns().edges.empty());

  const std::string bytes = trace::SaveTraceToString(*store);
  EXPECT_EQ(trace::ProbeTraceTailBytes(bytes).version, 2u);
  const auto loaded = trace::LoadTraceFromString(bytes);
  // Full columnar equality: node ids and the edge table included.
  EXPECT_TRUE(*loaded == *store);
  // And the reload serializes to the same bytes.
  EXPECT_EQ(trace::SaveTraceToString(*loaded), bytes);
}

TEST(GraphTraceIo, EdgeValidationRejectsMalformedColumns) {
  auto app = apps::MakeApp("L-MLP2", apps::AppScale::kTiny);
  const auto store = Recorded(*app);
  trace::TraceStore::Columns cols = store->columns();
  cols.edges.push_back({99, 0, "X"});
  EXPECT_THROW(trace::TraceStore::FromColumns(std::move(cols)),
               std::invalid_argument);
  trace::TraceStore::Columns cols2 = store->columns();
  cols2.edges.push_back({0, 0, "X"});
  EXPECT_THROW(trace::TraceStore::FromColumns(std::move(cols2)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Node-keyed per-kernel stats: repeated launch names stay distinct.

TEST(GraphStats, RepeatedKernelNamesAreKeyedByNode) {
  auto app = apps::MakeApp("L-Transformer", apps::AppScale::kTiny);
  const auto store = Recorded(*app);
  const auto stats = trace::PerKernelStats(*store);
  ASSERT_EQ(stats.size(), 11u);
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(stats[i].label, "qkv_gemm@" + std::to_string(i));
    EXPECT_EQ(stats[i].node, i);
  }
  EXPECT_EQ(stats[6].label, "attn_score");  // unique names stay bare
  std::ostringstream os;
  trace::WriteKernelStatsCsv(*store, os);
  EXPECT_EQ(os.str().substr(0, os.str().find('\n')),
            "kernel,node,warps,mem_insts,transactions,store_transactions");
}

TEST(GraphStats, EdgeReuseMeasuresProducerConsumerIntersection) {
  auto app = apps::MakeApp("L-MLP2", apps::AppScale::kTiny);
  const auto store = Recorded(*app);
  const auto reuse = trace::ComputeEdgeReuse(*store);
  ASSERT_EQ(reuse.size(), 2u);  // h0 and h1 chains
  for (const auto& r : reuse) {
    EXPECT_GT(r.reused_blocks, 0u);
    EXPECT_EQ(r.reused_bytes, r.reused_blocks * kBlockSize);
    EXPECT_TRUE(r.object == "h0" || r.object == "h1");
  }
}

// ---------------------------------------------------------------------
// Cross-kernel ACE liveness: a value written by one kernel and read by
// the next is live across the kernel boundary, and the edge rollup
// reports exactly the crossing blocks.

// Appends a kernel whose one warp makes one full-warp access to the
// 128B block with index `block`.
void OneInstKernel(test::HandTrace& t, const char* name, std::uint32_t node,
                   Pc pc, AccessType type, std::uint64_t block) {
  t.Kernel({}, name, node).Warp(0).Inst(pc, type, kWarpSize,
                                        {block * kBlockSize});
}

TEST(GraphVulnerability, LiveIntervalSpansConsumerEdge) {
  mem::DeviceMemory dev;
  dev.space().Allocate("t", kBlockSize, false);
  test::HandTrace t;
  OneInstKernel(t, "producer", 0, 1, AccessType::kStore, 0);
  OneInstKernel(t, "consumer", 1, 2, AccessType::kLoad, 0);
  const auto store = t.Build({{0, 1, "t"}});
  const auto map =
      analysis::AnalyzeVulnerability(*store, dev.space(), {});
  ASSERT_EQ(map.total_transactions, 2u);
  const analysis::BlockLiveness* b = map.Find(0);
  ASSERT_NE(b, nullptr);
  // Store in kernel 0 at slot 0, load in kernel 1 at slot 1: the value
  // is ACE across the whole inter-kernel interval.
  EXPECT_EQ(b->live_spans, 1u);
  EXPECT_EQ(b->ace_transactions, 2u);
  EXPECT_DOUBLE_EQ(b->avf, 1.0);

  ASSERT_EQ(map.kernels.size(), 2u);
  EXPECT_EQ(map.kernels[0].label, "producer");
  EXPECT_EQ(map.kernels[0].node, 0u);
  EXPECT_EQ(map.kernels[1].node, 1u);

  ASSERT_EQ(map.edges.size(), 1u);
  EXPECT_EQ(map.edges[0].producer_label, "producer");
  EXPECT_EQ(map.edges[0].consumer_label, "consumer");
  EXPECT_EQ(map.edges[0].object, "t");
  EXPECT_EQ(map.edges[0].reused_blocks, 1u);
  EXPECT_DOUBLE_EQ(map.edges[0].mean_avf, 1.0);
}

TEST(GraphVulnerability, UnreusedEdgeReportsZeroCrossingBlocks) {
  mem::DeviceMemory dev;
  dev.space().Allocate("t", 2 * kBlockSize, false);
  // Producer writes block 0; consumer reads block 1 — the edge exists
  // structurally but no written value crosses it.
  test::HandTrace t;
  OneInstKernel(t, "producer", 0, 1, AccessType::kStore, 0);
  OneInstKernel(t, "consumer", 1, 2, AccessType::kLoad, 1);
  const auto store = t.Build({{0, 1, "t"}});
  const auto map =
      analysis::AnalyzeVulnerability(*store, dev.space(), {});
  ASSERT_EQ(map.edges.size(), 1u);
  EXPECT_EQ(map.edges[0].reused_blocks, 0u);
  EXPECT_DOUBLE_EQ(map.edges[0].mean_avf, 0.0);
}

// ---------------------------------------------------------------------
// The DAG workloads: structure, and the cross-kernel hotness claim —
// shared weight tensors accumulate reads across launches that no
// single-kernel view would credit them with.

TEST(GraphApps, TransformerGraphValidatesAndChunksShareWeights) {
  auto app = apps::MakeApp("L-Transformer", apps::AppScale::kTiny);
  mem::DeviceMemory dev;
  app->Setup(dev);
  exec::KernelGraph g = app->Graph();
  EXPECT_NO_THROW(g.Validate());
  EXPECT_EQ(g.NumNodes(), 11u);
  const auto data = g.DataEdges();
  // Both Q-half producers feed attn_score, both V-halves feed
  // attn_ctx: the every-prior-writer semantics on chunked GEMMs.
  const auto count_obj = [&](const char* obj) {
    return std::count_if(data.begin(), data.end(),
                         [&](const exec::GraphEdge& e) {
                           return e.object == obj;
                         });
  };
  EXPECT_EQ(count_obj("Q"), 2);
  EXPECT_EQ(count_obj("K"), 2);
  EXPECT_EQ(count_obj("V"), 2);
  EXPECT_EQ(count_obj("scores"), 1);
  EXPECT_EQ(count_obj("attn_out"), 1);
}

TEST(GraphApps, CrossKernelHotnessRanksSharedWeightsAboveSingleKernel) {
  for (const std::string& name : apps::GraphAppNames()) {
    auto app = apps::MakeApp(name, apps::AppScale::kTiny);
    mem::DeviceMemory dev;
    app->Setup(dev);
    core::AccessProfiler prof;
    prof.AttachSpace(&dev.space());
    exec::DirectDataPlane plane(dev);
    exec::KernelGraph graph = app->Graph();
    for (const std::uint32_t id : graph.TopoOrder()) {
      exec::GraphNode& node = graph.Node(id);
      prof.BeginKernel(node.cfg);
      exec::LaunchKernel(node.cfg, plane, &prof, node.body);
      prof.EndKernel();
    }
    const auto objs = core::AggregateByObject(prof, dev.space());
    const auto find = [&](const char* n) {
      const auto it = std::find_if(
          objs.begin(), objs.end(),
          [&](const core::ObjectProfile& o) { return o.name == n; });
      EXPECT_NE(it, objs.end()) << name << "/" << n;
      return *it;
    };
    if (name == "L-Transformer") {
      // X feeds all six projection chunks and the layernorm residual.
      EXPECT_EQ(find("X").kernels_reading, 7u);
      for (const char* w : {"Wq", "Wk", "Wv"}) {
        const auto op = find(w);
        EXPECT_EQ(op.kernels_reading, 2u) << w;
        // The cross-kernel total strictly exceeds what any one launch
        // sees — the single-kernel view under-ranks the shared tensor.
        EXPECT_GT(op.reads, op.max_kernel_reads) << w;
        EXPECT_EQ(op.reads, 2 * op.max_kernel_reads) << w;
      }
    } else {
      for (const char* w : {"W1", "W2"}) {
        const auto op = find(w);
        EXPECT_EQ(op.kernels_reading, 2u) << w;
        EXPECT_GT(op.reads, op.max_kernel_reads) << w;
      }
    }
  }
}

TEST(GraphApps, Mlp2GraphHasTwoIndependentChains) {
  auto app = apps::MakeApp("L-MLP2", apps::AppScale::kTiny);
  mem::DeviceMemory dev;
  app->Setup(dev);
  exec::KernelGraph g = app->Graph();
  EXPECT_NO_THROW(g.Validate());
  EXPECT_EQ(g.NumNodes(), 4u);
  const auto data = g.DataEdges();
  ASSERT_EQ(data.size(), 2u);
  EXPECT_EQ(data[0], (exec::GraphEdge{0, 2, "h0"}));
  EXPECT_EQ(data[1], (exec::GraphEdge{1, 3, "h1"}));
  // The two fc2 launches both write Y: sequential consistency demands
  // an ordering edge between the partial writers.
  EXPECT_TRUE(std::any_of(
      g.Edges().begin(), g.Edges().end(),
      [](const exec::GraphEdge& e) {
        return e.producer == 2 && e.consumer == 3 && e.object.empty();
      }));
}

}  // namespace
}  // namespace dcrm
