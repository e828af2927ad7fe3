// Hardware-visible description of the paper's partial-replication
// schemes, as configured into the LD/ST unit near L1 (Section IV-C):
// which address ranges (data objects) are protected, where their
// replicas live, and which static load instructions touch them.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "sim/config.h"

namespace dcrm::sim {

enum class Scheme : std::uint8_t {
  kNone,
  kDetectOnly,     // duplicate, lazy bitwise compare
  kDetectCorrect,  // triplicate, majority vote (stalls for all copies)
};

inline const char* SchemeName(Scheme s) {
  switch (s) {
    case Scheme::kNone:
      return "baseline";
    case Scheme::kDetectOnly:
      return "detect-only";
    case Scheme::kDetectCorrect:
      return "detect+correct";
  }
  return "?";
}

// Command-line and wire spelling (SchemeName above is the display
// name the reports print).
inline constexpr EnumName<Scheme> kSchemeNames[] = {
    {"none", Scheme::kNone},
    {"detect", Scheme::kDetectOnly},
    {"correct", Scheme::kDetectCorrect},
};

struct ProtectedRange {
  Addr base = 0;
  std::uint64_t size = 0;
  Addr replica_base[2] = {0, 0};  // second entry used by kDetectCorrect
  // Per-range copy-count override (0 = the scheme's default). The
  // recovery subsystem's Tier 2 sets this to 2 when it escalates a
  // repeat-offender object from detect-only to a full majority vote.
  std::uint8_t copies = 0;

  bool Contains(Addr a) const { return a >= base && a < base + size; }
  Addr ReplicaAddr(unsigned copy, Addr a) const {
    return replica_base[copy] + (a - base);
  }
};

// The LD/ST-unit configuration for one run.
struct ProtectionPlan {
  Scheme scheme = Scheme::kNone;
  // Detection-only: proceed on first copy, compare lazily (the paper's
  // scheme). Setting false gives the eager ablation where the warp
  // stalls for both copies.
  bool lazy_compare = true;
  // Extension beyond the paper: propagate stores to the replicas,
  // which lifts the read-only restriction on protected objects at the
  // cost of duplicated/triplicated write traffic (the paper's schemes
  // have no write path and only cover read-only inputs).
  bool propagate_stores = false;
  std::vector<ProtectedRange> ranges;
  // Static load instructions that may touch protected data. Empty set
  // means "check addresses only" (equivalent here, since ranges never
  // alias; the table mirrors the paper's 32-entry PC store).
  std::unordered_set<Pc> pcs;

  unsigned NumCopies() const {
    switch (scheme) {
      case Scheme::kNone:
        return 0;
      case Scheme::kDetectOnly:
        return 1;
      case Scheme::kDetectCorrect:
        return 2;
    }
    return 0;
  }

  // Copies actually held for one range: the per-range escalation
  // override when set, else the scheme default.
  unsigned CopiesFor(const ProtectedRange& r) const {
    return r.copies != 0 ? r.copies : NumCopies();
  }

  const ProtectedRange* Lookup(Addr a) const {
    if (scheme == Scheme::kNone) return nullptr;
    for (const auto& r : ranges) {
      if (r.Contains(a)) return &r;
    }
    return nullptr;
  }

  bool PcTracked(Pc pc) const { return pcs.empty() || pcs.contains(pc); }

  // Validates against the hardware table capacities of Section IV-C.
  void Validate(const GpuConfig& cfg) const {
    const bool two = scheme == Scheme::kDetectCorrect;
    if (ranges.size() > cfg.MaxProtectedObjects(two)) {
      throw std::invalid_argument(
          "protected objects exceed start-address table capacity");
    }
    if (!pcs.empty() && pcs.size() > cfg.pc_table_entries) {
      throw std::invalid_argument(
          "protected load instructions exceed PC table capacity");
    }
  }
};

}  // namespace dcrm::sim
