// Application factory with size presets, so tests, campaigns and
// benches agree on workload scales.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/app.h"
#include "common/enum_names.h"

namespace dcrm::apps {

enum class AppScale {
  kTiny,    // unit tests & fast fault campaigns
  kSmall,   // default campaigns
  kMedium,  // timing benches (more CTAs, better occupancy)
};

inline constexpr EnumName<AppScale> kScaleNames[] = {
    {"tiny", AppScale::kTiny},
    {"small", AppScale::kSmall},
    {"medium", AppScale::kMedium},
};

// Creates the named application at the given scale. Throws
// std::invalid_argument for unknown names.
std::unique_ptr<App> MakeApp(std::string_view name, AppScale scale);

// The paper's eight Table II applications — the default set for the
// figure-reproduction benches.
const std::vector<std::string>& PaperAppNames();

// The paper's eight plus the suite-mates with the same knee profile
// (P-ATAX, C-ConvRows).
const std::vector<std::string>& HotPatternAppNames();

// The multi-kernel DAG workloads (transformer encoder block, 2-layer
// MLP) — the apps whose Graph() is not a single chain.
const std::vector<std::string>& GraphAppNames();

// Every registered application: the ten studied ones, the two
// Fig. 3(g)-(h) counterexamples (C-BlackScholes, P-GRAMSCHM), and the
// kernel-graph workloads.
const std::vector<std::string>& AllAppNames();

}  // namespace dcrm::apps
