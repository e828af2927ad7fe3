#include "trace/trace_io.h"

#include <cstdint>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <stdexcept>

#include "common/binio.h"
#include "common/file_util.h"

namespace dcrm::trace {

namespace {

constexpr char kMagic[8] = {'d', 'c', 'r', 'm', 't', 'r', 'c', '\n'};
constexpr std::uint32_t kVersion = 1;
// Version 2 adds graph metadata: a per-kernel node id and a trailing
// producer/consumer edge section. It is written only when the store
// actually carries nontrivial metadata, so every chain app keeps
// emitting byte-identical version-1 artifacts (and their campaign
// fingerprints hold).
constexpr std::uint32_t kVersionGraph = 2;
constexpr const char* kContext = "trace file";

bool HasGraphMeta(const TraceStore::Columns& c) {
  if (!c.edges.empty()) return true;
  for (std::size_t k = 0; k < c.kernels.size(); ++k) {
    if (c.kernels[k].node_id != k) return true;
  }
  return false;
}

[[noreturn]] void Corrupt(const std::string& what) {
  throw std::runtime_error(std::string(kContext) + ": " + what);
}

// Counts must agree with what their varints later imply, and feeding
// them to vector::reserve unchecked would let a short corrupt file
// demand gigabytes; cap against the payload size (every element costs
// at least one encoded byte).
std::size_t CheckedCount(std::uint64_t n, std::size_t payload,
                         const char* what) {
  if (n > payload) Corrupt(std::string("implausible ") + what + " count");
  return static_cast<std::size_t>(n);
}

}  // namespace

std::string SaveTraceToString(const TraceStore& store) {
  using bin::PutVarint;
  const TraceStore::Columns& c = store.columns();
  std::string out;
  out.reserve(64 + c.inst_pc.size() * 3 + c.NumBlocks() * 2);
  const bool graph_meta = HasGraphMeta(c);
  out.append(kMagic, sizeof(kMagic));
  bin::PutU32(out, graph_meta ? kVersionGraph : kVersion);
  PutVarint(out, c.kernels.size());
  PutVarint(out, c.warp_id.size());
  PutVarint(out, c.inst_pc.size());
  PutVarint(out, c.NumBlocks());
  for (const TraceStore::KernelMeta& m : c.kernels) {
    PutVarint(out, m.name.size());
    out.append(m.name);
    PutVarint(out, m.cfg.grid.x);
    PutVarint(out, m.cfg.grid.y);
    PutVarint(out, m.cfg.grid.z);
    PutVarint(out, m.cfg.block.x);
    PutVarint(out, m.cfg.block.y);
    PutVarint(out, m.cfg.block.z);
    PutVarint(out, m.warp_end - m.warp_begin);
    if (graph_meta) PutVarint(out, m.node_id);
  }
  for (std::size_t w = 0; w < c.warp_id.size(); ++w) {
    PutVarint(out, c.warp_id[w]);
    PutVarint(out, c.warp_cta[w]);
    PutVarint(out, c.warp_inst_begin[w + 1] - c.warp_inst_begin[w]);
  }
  for (std::size_t i = 0; i < c.inst_pc.size(); ++i) {
    PutVarint(out, c.inst_pc[i]);
    PutVarint(out, (static_cast<std::uint64_t>(c.inst_lanes[i]) << 1) |
                       (c.inst_is_store[i] != 0 ? 1 : 0));
    PutVarint(out, c.inst_block_begin[i + 1] - c.inst_block_begin[i]);
  }
  // The on-disk form carries raw addresses (decoded from the packed
  // pool if need be), so the format is independent of the in-memory
  // packing decision.
  Addr prev = 0;
  for (std::size_t b = 0; b < c.NumBlocks(); ++b) {
    const Addr addr = c.BlockAt(b);
    PutVarint(out, bin::ZigZag(static_cast<std::int64_t>(addr) -
                               static_cast<std::int64_t>(prev)));
    prev = addr;
  }
  if (graph_meta) {
    PutVarint(out, c.edges.size());
    for (const TraceStore::TraceEdge& e : c.edges) {
      PutVarint(out, e.producer);
      PutVarint(out, e.consumer);
      PutVarint(out, e.object.size());
      out.append(e.object);
    }
  }
  bin::AppendChecksum(out);
  return out;
}

void SaveTrace(const TraceStore& store, std::ostream& os) {
  const std::string data = SaveTraceToString(store);
  os.write(data.data(), static_cast<std::streamsize>(data.size()));
}

void SaveTraceFile(const TraceStore& store, const std::string& path) {
  WriteFileAtomic(path, SaveTraceToString(store));
}

std::shared_ptr<const TraceStore> LoadTraceFromString(
    const std::string& data) {
  const std::string_view body = bin::CheckedPayload(
      data, std::string_view(kMagic, sizeof(kMagic)), kContext);

  bin::Reader r(body, kContext);
  r.Skip(sizeof(kMagic));
  const std::uint32_t version = r.U32();
  if (version != kVersion && version != kVersionGraph) {
    Corrupt("unsupported version");
  }
  const bool graph_meta = version == kVersionGraph;

  const std::size_t payload = body.size();
  const std::size_t num_kernels =
      CheckedCount(r.Varint(), payload, "kernel");
  const std::size_t num_warps = CheckedCount(r.Varint(), payload, "warp");
  const std::size_t num_insts =
      CheckedCount(r.Varint(), payload, "instruction");
  const std::size_t num_blocks = CheckedCount(r.Varint(), payload, "block");

  TraceStore::Columns c;
  c.kernels.reserve(num_kernels);
  c.warp_id.reserve(num_warps);
  c.warp_cta.reserve(num_warps);
  c.warp_inst_begin.reserve(num_warps + 1);
  c.inst_pc.reserve(num_insts);
  c.inst_is_store.reserve(num_insts);
  c.inst_lanes.reserve(num_insts);
  c.inst_block_begin.reserve(num_insts + 1);
  c.blocks_packed.reserve(num_blocks);

  std::uint64_t warp_acc = 0;
  for (std::size_t k = 0; k < num_kernels; ++k) {
    TraceStore::KernelMeta m;
    const std::size_t name_len =
        CheckedCount(r.Varint(), payload, "kernel-name");
    m.name = r.Bytes(name_len);
    m.cfg.grid.x = static_cast<std::uint32_t>(r.Varint());
    m.cfg.grid.y = static_cast<std::uint32_t>(r.Varint());
    m.cfg.grid.z = static_cast<std::uint32_t>(r.Varint());
    m.cfg.block.x = static_cast<std::uint32_t>(r.Varint());
    m.cfg.block.y = static_cast<std::uint32_t>(r.Varint());
    m.cfg.block.z = static_cast<std::uint32_t>(r.Varint());
    m.warp_begin = static_cast<std::uint32_t>(warp_acc);
    warp_acc += r.Varint();
    if (warp_acc > num_warps) Corrupt("kernel warp count overruns total");
    m.warp_end = static_cast<std::uint32_t>(warp_acc);
    m.node_id = graph_meta ? static_cast<std::uint32_t>(r.Varint())
                           : static_cast<std::uint32_t>(k);
    c.kernels.push_back(std::move(m));
  }
  if (warp_acc != num_warps) Corrupt("kernel warp counts disagree");

  std::uint64_t inst_acc = 0;
  for (std::size_t w = 0; w < num_warps; ++w) {
    c.warp_id.push_back(static_cast<WarpId>(r.Varint()));
    c.warp_cta.push_back(static_cast<std::uint32_t>(r.Varint()));
    inst_acc += r.Varint();
    if (inst_acc > num_insts) Corrupt("warp inst count overruns total");
    c.warp_inst_begin.push_back(static_cast<std::uint32_t>(inst_acc));
  }
  if (inst_acc != num_insts) Corrupt("warp inst counts disagree");

  std::uint64_t block_acc = 0;
  for (std::size_t i = 0; i < num_insts; ++i) {
    c.inst_pc.push_back(static_cast<Pc>(r.Varint()));
    const std::uint64_t packed = r.Varint();
    c.inst_is_store.push_back(static_cast<std::uint8_t>(packed & 1));
    c.inst_lanes.push_back(static_cast<std::uint32_t>(packed >> 1));
    block_acc += r.Varint();
    if (block_acc > num_blocks) Corrupt("inst block count overruns total");
    c.inst_block_begin.push_back(static_cast<std::uint32_t>(block_acc));
  }
  if (block_acc != num_blocks) Corrupt("inst block counts disagree");

  std::int64_t prev = 0;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    prev += bin::UnZigZag(r.Varint());
    if (prev < 0) Corrupt("negative block address");
    c.PushBlock(static_cast<Addr>(prev));
  }
  if (graph_meta) {
    const std::size_t num_edges = CheckedCount(r.Varint(), payload, "edge");
    c.edges.reserve(num_edges);
    for (std::size_t e = 0; e < num_edges; ++e) {
      TraceStore::TraceEdge edge;
      edge.producer = static_cast<std::uint32_t>(r.Varint());
      edge.consumer = static_cast<std::uint32_t>(r.Varint());
      const std::size_t obj_len =
          CheckedCount(r.Varint(), payload, "edge-object");
      edge.object = r.Bytes(obj_len);
      c.edges.push_back(std::move(edge));
    }
  }
  if (r.remaining() != 0) Corrupt("trailing bytes");

  try {
    return TraceStore::FromColumns(std::move(c));
  } catch (const std::invalid_argument& e) {
    Corrupt(e.what());
  }
}

std::shared_ptr<const TraceStore> LoadTrace(std::istream& is) {
  const std::string data((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  return LoadTraceFromString(data);
}

std::shared_ptr<const TraceStore> LoadTraceFile(const std::string& path) {
  return LoadTraceFromString(ReadFileToString(path));
}

namespace {

// Smallest well-formed artifact: magic + version + four count varints
// (at least one byte each) + trailing checksum.
constexpr std::size_t kMinArtifactBytes = sizeof(kMagic) + 4 + 4 + 8;

TraceTailProbe ProbeParts(std::string_view head, std::string_view tail,
                          std::uint64_t total_size) {
  if (total_size < kMinArtifactBytes) Corrupt("truncated");
  if (head.size() < sizeof(kMagic) + 4 || tail.size() != 8) {
    Corrupt("truncated");
  }
  if (head.substr(0, sizeof(kMagic)) !=
      std::string_view(kMagic, sizeof(kMagic))) {
    Corrupt("bad magic");
  }
  bin::Reader hr(head, kContext);
  hr.Skip(sizeof(kMagic));
  TraceTailProbe probe;
  probe.version = hr.U32();
  if (probe.version != kVersion && probe.version != kVersionGraph) {
    Corrupt("unsupported version");
  }
  bin::Reader tr(tail, kContext);
  probe.checksum = tr.U64();
  return probe;
}

}  // namespace

TraceTailProbe ProbeTraceTailBytes(std::string_view data) {
  if (data.size() < kMinArtifactBytes) Corrupt("truncated");
  return ProbeParts(data.substr(0, sizeof(kMagic) + 4),
                    data.substr(data.size() - 8), data.size());
}

TraceTailProbe ProbeTraceTail(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) Corrupt("cannot read " + path);
  is.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(is.tellg());
  if (size < kMinArtifactBytes) Corrupt("truncated");
  char head[sizeof(kMagic) + 4];
  char tail[8];
  is.seekg(0, std::ios::beg);
  is.read(head, sizeof(head));
  is.seekg(static_cast<std::streamoff>(size - 8), std::ios::beg);
  is.read(tail, sizeof(tail));
  if (!is) Corrupt("cannot read " + path);
  return ProbeParts(std::string_view(head, sizeof(head)),
                    std::string_view(tail, sizeof(tail)), size);
}

}  // namespace dcrm::trace
