// Binary persistence for TraceStore (`dcrm profile --save-trace` /
// `--load-trace`): record the coalesced access streams once, then let
// campaigns, analyzers and benches reload them instead of re-profiling.
//
// Format (version 1, little-endian):
//   magic "dcrmtrc\n" (8 bytes), u32 version
//   varint: num_kernels, num_warps, num_insts, num_blocks
//   per kernel: varint name_len + bytes, 6 varints (grid/block dims),
//               varint warp count
//   per warp:   varint warp_id, cta, inst count
//   per inst:   varint pc, varint (active_lanes<<1 | is_store),
//               varint block count
//   block pool: zigzag varint delta vs. the previous block address —
//               warp access streams are local, so deltas are small
//               multiples of the 128B block size and encode in 1-2
//               bytes instead of 8
//   u64 FNV-1a checksum over everything above
//
// LoadTrace rejects bad magic, unknown versions, truncation, checksum
// mismatches and block addresses that are not 128B-aligned 32-bit
// block indices with std::runtime_error; a loaded store is validated
// by TraceStore::FromColumns like any other.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "trace/trace_store.h"

namespace dcrm::trace {

void SaveTrace(const TraceStore& store, std::ostream& os);
std::string SaveTraceToString(const TraceStore& store);

// Atomic publication (temp file + rename, common/file_util.h): readers
// never observe a partially written trace. Throws std::runtime_error
// on I/O failure.
void SaveTraceFile(const TraceStore& store, const std::string& path);

// Throws std::runtime_error on malformed input.
std::shared_ptr<const TraceStore> LoadTrace(std::istream& is);
std::shared_ptr<const TraceStore> LoadTraceFromString(const std::string& data);
std::shared_ptr<const TraceStore> LoadTraceFile(const std::string& path);

// Checksum-tail fast path. A full LoadTrace costs two passes over the
// artifact (the FNV-1a validation pass, then the decode pass); callers
// that only need the artifact's *identity* — the service's
// content-addressed cache keys, or an "is this the store I already
// hold?" probe — read just the envelope: leading magic + version, and
// the stored trailing checksum. O(1) I/O regardless of trace size.
// The payload itself is NOT validated; a full load (or the envelope's
// checksum match against an already-validated copy) still guards every
// first decode.
struct TraceTailProbe {
  std::uint32_t version = 0;
  std::uint64_t checksum = 0;  // the stored trailing FNV-1a
};

// Probe an in-memory artifact. Throws std::runtime_error on bad
// magic, unknown version, or truncation below the minimum envelope.
TraceTailProbe ProbeTraceTailBytes(std::string_view data);

// Probe a saved artifact reading only the first 12 and last 8 bytes.
// Throws std::runtime_error when unreadable or malformed.
TraceTailProbe ProbeTraceTail(const std::string& path);

}  // namespace dcrm::trace
