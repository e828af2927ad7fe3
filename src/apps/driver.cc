#include "apps/driver.h"

#include <stdexcept>

#include "exec/kernel_graph.h"
#include "exec/launcher.h"
#include "trace/trace_builder.h"

namespace dcrm::apps {

Cover ResolveCover(const ProfileResult& profile, sim::Scheme scheme,
                   std::optional<unsigned> count,
                   std::span<const std::string> objects) {
  Cover out;
  if (scheme == sim::Scheme::kNone) return out;
  out.scheme = scheme;
  if (!objects.empty()) {
    out.objects.assign(objects.begin(), objects.end());
    return out;
  }
  const auto& order = profile.hot.coverage_order;
  const unsigned n =
      count.value_or(static_cast<unsigned>(profile.hot.hot_objects.size()));
  if (n > order.size()) {
    throw std::invalid_argument("cover_objects exceeds coverage order size");
  }
  std::vector<mem::ObjectId> ids;
  for (unsigned i = 0; i < n; ++i) {
    ids.push_back(order[i].id);
    out.objects.push_back(order[i].name);
  }
  // Populate the LD/ST unit's PC tracking table with the load sites
  // that touch the covered objects (Section IV-C: "store the addresses
  // of load instructions to the corresponding data objects").
  out.pcs = profile.profiler.PcsTouching(ids);
  return out;
}

ProtectionSetup BuildProtection(App& app, const Cover& cover,
                                bool lazy_compare,
                                core::ReplicaPlacement placement) {
  ProtectionSetup out;
  out.dev = std::make_unique<mem::DeviceMemory>();
  app.Setup(*out.dev);
  if (cover.scheme == sim::Scheme::kNone || cover.objects.empty()) {
    return out;
  }
  const mem::AddressSpace& space = out.dev->space();
  std::vector<mem::ObjectId> ids;
  bool any_writable = false;
  for (const std::string& name : cover.objects) {
    const auto id = space.FindByName(name);
    if (!id) throw std::invalid_argument("unknown object: " + name);
    ids.push_back(*id);
    any_writable = any_writable || !space.Object(*id).read_only;
  }
  const unsigned copies =
      cover.scheme == sim::Scheme::kDetectCorrect ? 2u : 1u;
  const auto replicas = core::ReplicateObjects(*out.dev, ids, copies,
                                               placement, 6,
                                               /*allow_writable=*/true);
  out.plan = core::MakeProtectionPlan(out.dev->space(), replicas,
                                      cover.scheme, lazy_compare,
                                      /*propagate_stores=*/any_writable);
  out.plan.pcs = cover.pcs;
  return out;
}

ProtectionSetup MakeProtectionSetup(App& app, const ProfileResult& profile,
                                    sim::Scheme scheme,
                                    unsigned cover_objects, bool lazy_compare,
                                    core::ReplicaPlacement placement) {
  return BuildProtection(app, ResolveCover(profile, scheme, cover_objects),
                         lazy_compare, placement);
}

sim::GpuStats RunTiming(const App& app, const ProfileResult& profile,
                        sim::GpuConfig cfg, const sim::ProtectionPlan& plan) {
  cfg.alu_cycles_per_mem = app.AluCyclesPerMem();
  sim::Gpu gpu(cfg, plan);
  return gpu.Run(*profile.trace_store);
}

TimingDetail RunTimingDetailed(const App& app, const ProfileResult& profile,
                               sim::GpuConfig cfg,
                               const sim::ProtectionPlan& plan) {
  cfg.alu_cycles_per_mem = app.AluCyclesPerMem();
  sim::Gpu gpu(cfg, plan);
  TimingDetail out;
  out.total = gpu.Run(*profile.trace_store);
  out.per_sm = gpu.PerSmStats();
  out.per_partition = gpu.PerPartitionStats();
  return out;
}

ProfileResult ProfileApp(App& app, const sim::GpuConfig& cfg,
                         const core::HotConfig& hot_cfg,
                         std::shared_ptr<const trace::TraceStore> preloaded) {
  ProfileResult out;
  out.dev = std::make_unique<mem::DeviceMemory>();
  app.Setup(*out.dev);
  out.profiler.AttachSpace(&out.dev->space());
  exec::DirectDataPlane plane(*out.dev);
  // One functional pass over the app's kernel graph, in its
  // deterministic topological order (program order for chain apps):
  // the profiler counts every access and forwards it to the trace
  // recorder, unless a store was preloaded.
  exec::KernelGraph graph = app.Graph();
  const std::vector<std::uint32_t> order = graph.TopoOrder();
  std::vector<std::uint32_t> kernel_of(graph.NumNodes(), 0);
  trace::TraceBuilder recorder;
  out.profiler.AttachRecorder(preloaded == nullptr ? &recorder : nullptr);
  for (std::size_t idx = 0; idx < order.size(); ++idx) {
    const std::uint32_t id = order[idx];
    exec::GraphNode& node = graph.Node(id);
    kernel_of[id] = static_cast<std::uint32_t>(idx);
    out.profiler.BeginKernel(node.cfg);
    recorder.BeginKernel(node.cfg, node.name, id);
    exec::LaunchKernel(node.cfg, plane, &out.profiler, node.body);
    out.profiler.EndKernel();
    recorder.EndKernel();
  }
  out.profiler.AttachRecorder(nullptr);
  std::vector<trace::TraceStore::TraceEdge> edges;
  for (const exec::GraphEdge& e : graph.DataEdges()) {
    edges.push_back(trace::TraceStore::TraceEdge{
        kernel_of[e.producer], kernel_of[e.consumer], e.object});
  }
  out.trace_store = preloaded != nullptr ? std::move(preloaded)
                                         : recorder.Finish(std::move(edges));
  // Miss profile from a baseline run of the cycle-level simulator:
  // with warps desynchronized by real memory latencies, hot blocks
  // miss roughly in proportion to their (huge) access counts whenever
  // streaming data thrashes the L1 — the distribution the paper's
  // Fig. 8 selection weights by. (The idealized round-robin replay in
  // core::ReplayL1Misses keeps warps in phase and underestimates hot
  // misses; it remains available for fast approximate profiles.)
  sim::GpuConfig miss_cfg = cfg;
  miss_cfg.collect_block_misses = true;
  miss_cfg.alu_cycles_per_mem = app.AluCyclesPerMem();
  sim::Gpu miss_gpu(miss_cfg, sim::ProtectionPlan{});
  out.timing_baseline = miss_gpu.Run(*out.trace_store);
  {
    std::unordered_map<std::uint64_t, std::uint64_t> misses;
    for (const auto& [b, n] : out.timing_baseline.block_misses) {
      misses[b] += n;
    }
    out.profiler.AttachMissProfile(misses);
  }
  out.profiler.AttachTxnProfile(core::CountLoadTransactions(*out.trace_store));
  out.hot = core::ClassifyHot(out.profiler, out.dev->space(), hot_cfg);
  out.golden = ReadOutputs(app, *out.dev);
  return out;
}

}  // namespace dcrm::apps
