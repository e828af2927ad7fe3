// The one flag vocabulary of dcrm (DESIGN.md §14).
//
// Every option a request can carry is one row of a field table: its
// command-line flag, its wire key, the member it sets and the range it
// accepts. The command-line parser (tools/dcrm_cli.cc), the daemon's
// wire codec (service/proto.cc) and the argv the shard coordinator
// spawns its workers with all walk the same rows, so the spellings and
// the ranges cannot drift apart between them.
//
// Flag syntax: `--name=value`, or a bare `--name` for a switch.
// Numbers are plain decimal with nothing trailing; a value outside its
// row's range is rejected the same way on every path.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "fault/shard_coordinator.h"

namespace dcrm::fault {

// Upper bounds on untrusted values: generous for real use, tight
// enough that a hostile request cannot make the daemon allocate or
// loop absurdly.
inline constexpr std::int64_t kMaxRuns = 100'000'000;
inline constexpr std::int64_t kMaxSmallCount = 1'000'000;
inline constexpr std::int64_t kMaxNameBytes = 256;
inline constexpr std::int64_t kMaxPathBytes = 4096;
inline constexpr std::int64_t kMaxObjects = 256;

// Everything a request sets besides its type and app. The CLI parses
// into it, the wire carries it, and service::RequestSpec extends it.
struct RequestParams {
  // The campaign definition. It doubles as the parameter carrier of
  // every analysis type: app/scale/scheme/cover/objects/gpu are
  // common, blocks/bits also matter to avf.
  ShardCampaignSpec campaign;
  // Campaign: draw trials from the statically SDC-reachable blocks
  // only (unbiased via the stored weight share).
  bool importance_sampling = false;
  // Campaign: hold the finished counts against the static outcome
  // bounds; a violation exits 9.
  bool cross_check = false;
  // Profile: append the kernel-graph topology; the CSV is the
  // per-edge reuse table.
  bool graph = false;
  // Replay-engine override. Results are bit-identical across engines,
  // but the engine is part of the cache identity.
  std::optional<sim::SimEngine> engine;
  // A saved trace artifact to replay instead of profiling the app.
  std::string trace_path;
  // GPU config file. Command line only: the daemon runs its own.
  std::string config_path;
};

// The member a row sets. The alternative held is the row's kind.
using FieldRef =
    std::variant<unsigned*, std::optional<unsigned>*, int*, std::uint64_t*,
                 bool*, std::string*, std::vector<std::string>*,
                 apps::AppScale*, sim::Scheme*, Target*,
                 std::optional<sim::SimEngine>*>;

template <class T>
struct Field {
  const char* flag;  // "--runs"; a bool row is a bare switch
  const char* key;   // wire key; nullptr = not on the wire
  FieldRef (*member)(T&);
  // Inclusive bounds on a number's value, a string's length or a
  // list's entry count. Enums, switches and u64s ignore them.
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

// Row accessors: Member<&T::x> sets owner.x.
template <auto P, class T>
FieldRef Member(T& owner) {
  return &(owner.*P);
}

// Request rows, in wire order.
extern const std::span<const Field<RequestParams>> kRequestFields;
// Rows only `dcrm shard-worker` reads: the coordinator writes them.
extern const std::span<const Field<WorkerOptions>> kWorkerFields;

// The field as flag text; nullopt when it is unset and left out (a
// false switch, an empty string or list, an empty optional). A set
// switch is the empty string.
std::optional<std::string> FieldText(FieldRef ref);

// Sets the field from flag text. False when the text is malformed or
// out of the row's range; the field is then unchanged.
bool SetFieldText(FieldRef ref, std::int64_t lo, std::int64_t hi,
                  std::string_view text);

enum class ArgMatch { kNoRow, kSet, kBad };

// Applies one command-line argument if a row of `table` names it.
template <class T>
ArgMatch ParseArg(std::type_identity_t<std::span<const Field<T>>> table,
                  T& owner, std::string_view arg) {
  const std::size_t eq = arg.find('=');
  const std::string_view name = arg.substr(0, eq);
  for (const Field<T>& f : table) {
    if (name != f.flag) continue;
    const FieldRef ref = f.member(owner);
    if (bool* const* on = std::get_if<bool*>(&ref)) {
      if (eq != std::string_view::npos) return ArgMatch::kBad;
      **on = true;
      return ArgMatch::kSet;
    }
    if (eq == std::string_view::npos) return ArgMatch::kBad;
    return SetFieldText(ref, f.lo, f.hi, arg.substr(eq + 1))
               ? ArgMatch::kSet
               : ArgMatch::kBad;
  }
  return ArgMatch::kNoRow;
}

// Appends the arguments that reproduce `owner` under `table`.
template <class T>
void AppendArgs(std::type_identity_t<std::span<const Field<T>>> table,
                const T& owner, std::vector<std::string>& argv) {
  for (const Field<T>& f : table) {
    // Rows only read through the pointer here.
    const std::optional<std::string> text =
        FieldText(f.member(const_cast<T&>(owner)));
    if (!text.has_value()) continue;
    argv.push_back(text->empty() ? std::string(f.flag)
                                 : std::string(f.flag) + "=" + *text);
  }
}

}  // namespace dcrm::fault
