#include "fault/request_fields.h"

#include <charconv>

namespace dcrm::fault {

namespace {

// In-process campaign lanes; 0 means all hardware threads.
constexpr std::int64_t kMaxJobs = 1024;

using R = RequestParams;
using S = ShardCampaignSpec;
using W = WorkerOptions;

// Campaign<&S::x> sets params.campaign.x.
template <auto P>
FieldRef Campaign(R& r) {
  return &(r.campaign.*P);
}

const Field<R> kRequestRows[] = {
    {"--scale", "scale", Campaign<&S::scale>},
    {"--scheme", "scheme", Campaign<&S::scheme>},
    {"--cover", "cover", Campaign<&S::cover>, 0, kMaxSmallCount},
    {"--objects", "objects", Campaign<&S::objects>, 1, kMaxObjects},
    {"--allow-unsound", "allow_unsound", Campaign<&S::allow_unsound>},
    {"--target", "target", Campaign<&S::target>},
    {"--blocks", "blocks", Campaign<&S::faulty_blocks>, 1, kMaxSmallCount},
    {"--bits", "bits", Campaign<&S::bits_per_block>, 1, kMaxSmallCount},
    {"--runs", "runs", Campaign<&S::runs>, 1, kMaxRuns},
    {"--seed", "seed", Campaign<&S::seed>},
    {"--recovery", "recovery", Campaign<&S::recovery_retries>, 0,
     kMaxSmallCount},
    {"--epoch", "epoch", Campaign<&S::escalation_epoch>, 1, kMaxSmallCount},
    {"--importance-sampling", "importance_sampling",
     Member<&R::importance_sampling>},
    {"--engine", "engine", Member<&R::engine>},
    {"--load-trace", "trace", Member<&R::trace_path>, 1, kMaxPathBytes},
    {"--graph", "graph", Member<&R::graph>},
    {"--cross-check", "cross_check", Member<&R::cross_check>},
    {"--jobs", nullptr, Campaign<&S::jobs>, 0, kMaxJobs},
    {"--config", nullptr, Member<&R::config_path>, 1, kMaxPathBytes},
};

const Field<W> kWorkerRows[] = {
    {"--shard-index", nullptr, Member<&W::shard_index>, 0, kMaxSmallCount},
    {"--trial-begin", nullptr, Member<&W::trial_begin>, 0, kMaxRuns},
    {"--trial-end", nullptr, Member<&W::trial_end>, 0, kMaxRuns},
    {"--fingerprint", nullptr, Member<&W::fingerprint>},
    {"--out", nullptr, Member<&W::out_path>, 1, kMaxPathBytes},
    {"--ledger-in", nullptr, Member<&W::ledger_in>, 1, kMaxPathBytes},
    {"--kill-after", nullptr, Member<&W::kill_after>, 0, kMaxRuns},
    {"--hang-after", nullptr, Member<&W::hang_after>, 0, kMaxRuns},
};

const auto& Names(apps::AppScale) { return apps::kScaleNames; }
const auto& Names(sim::Scheme) { return sim::kSchemeNames; }
const auto& Names(Target) { return kTargetNames; }
const auto& Names(sim::SimEngine) { return sim::kEngineNames; }

// Parse(text, lo, hi, out): sets `out` from flag text; false (and
// `out` unchanged) when malformed or out of [lo, hi].
template <class N>
  requires std::is_integral_v<N>
bool Parse(std::string_view s, std::int64_t lo, std::int64_t hi, N& out) {
  std::int64_t n = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, n);
  if (s.empty() || ec != std::errc() || ptr != end || n < lo || n > hi) {
    return false;
  }
  out = static_cast<N>(n);
  return true;
}
// Seeds and fingerprints take the whole u64 range.
bool Parse(std::string_view s, std::int64_t, std::int64_t,
           std::uint64_t& out) {
  std::uint64_t n = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, n);
  if (s.empty() || ec != std::errc() || ptr != end) return false;
  out = n;
  return true;
}
bool Parse(std::string_view, std::int64_t, std::int64_t, bool&) {
  return false;  // switches take no value
}
bool Parse(std::string_view s, std::int64_t lo, std::int64_t hi,
           std::string& out) {
  const auto n = static_cast<std::int64_t>(s.size());
  if (n < lo || n > hi) return false;
  out = std::string(s);
  return true;
}
// A comma-separated list; empty items are skipped, `lo`/`hi` bound
// the item count.
bool Parse(std::string_view s, std::int64_t lo, std::int64_t hi,
           std::vector<std::string>& out) {
  std::vector<std::string> items;
  for (std::size_t start = 0; start <= s.size();) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string_view::npos) comma = s.size();
    const std::string_view item = s.substr(start, comma - start);
    if (static_cast<std::int64_t>(item.size()) > kMaxNameBytes) return false;
    if (!item.empty()) items.emplace_back(item);
    start = comma + 1;
  }
  const auto n = static_cast<std::int64_t>(items.size());
  if (n < lo || n > hi) return false;
  out = std::move(items);
  return true;
}
template <class E>
  requires std::is_enum_v<E>
bool Parse(std::string_view s, std::int64_t, std::int64_t, E& out) {
  const std::optional<E> v = ValueOf(Names(E{}), s);
  if (!v.has_value()) return false;
  out = *v;
  return true;
}
template <class V>
bool Parse(std::string_view s, std::int64_t lo, std::int64_t hi,
           std::optional<V>& out) {
  V v{};
  if (!Parse(s, lo, hi, v)) return false;
  out = v;
  return true;
}

// Flag text of a value; nullopt = left out.
std::optional<std::string> Text(bool v) {
  return v ? std::optional<std::string>("") : std::nullopt;
}
std::optional<std::string> Text(const std::string& v) {
  return v.empty() ? std::nullopt : std::optional<std::string>(v);
}
std::optional<std::string> Text(const std::vector<std::string>& v) {
  if (v.empty()) return std::nullopt;
  std::string joined;
  for (const std::string& s : v) {
    if (!joined.empty()) joined += ',';
    joined += s;
  }
  return joined;
}
template <class V>
std::optional<std::string> Text(V v) {
  if constexpr (std::is_enum_v<V>) {
    return std::string(NameOf(Names(v), v));
  } else {
    return std::to_string(v);
  }
}
template <class V>
std::optional<std::string> Text(const std::optional<V>& v) {
  return v.has_value() ? Text(*v) : std::nullopt;
}

}  // namespace

const std::span<const Field<RequestParams>> kRequestFields = kRequestRows;
const std::span<const Field<WorkerOptions>> kWorkerFields = kWorkerRows;

std::optional<std::string> FieldText(FieldRef ref) {
  return std::visit([](auto* p) { return Text(*p); }, ref);
}

bool SetFieldText(FieldRef ref, std::int64_t lo, std::int64_t hi,
                  std::string_view text) {
  return std::visit([&](auto* p) { return Parse(text, lo, hi, *p); }, ref);
}

}  // namespace dcrm::fault
