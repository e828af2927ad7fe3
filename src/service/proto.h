// Wire protocol of the reliability service (DESIGN.md §14).
//
// One request or response per frame (common/socket.h framing: u32 LE
// length + payload), payload a flat JSON object (common/json.h). A
// request is its type, its app and one key per set row of the field
// table in fault/request_fields.h — the table the CLI parses its flags
// with, so a request names exactly the campaign definition `dcrm
// campaign` would parse and the daemon can promise bit-identical
// results. It decodes into the same ShardCampaignSpec the sharded
// coordinator uses, which is what makes CampaignFingerprint the
// service's natural cache key.
//
// Robustness rules the decoder enforces on untrusted bytes:
//  * requests are capped at kMaxRequestBytes before allocation
//    (FrameTooLarge drops the connection — the stream cannot be
//    resynchronized past an unconsumed oversized frame);
//  * unknown keys, wrong types, missing required fields and
//    out-of-range values (the field table's ranges, the same ones the
//    CLI enforces) all throw ProtoError, which the server maps to an
//    ok=false response without killing the daemon;
//  * uint64 seeds ride as int64 bit patterns (lossless two's-complement
//    round trip; JSON doubles would silently round them).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/enum_names.h"
#include "fault/request_fields.h"

namespace dcrm::service {

// Frame caps. Requests are small flag maps; responses carry rendered
// reports and CSVs, so the client-side cap is generous.
inline constexpr std::uint32_t kMaxRequestBytes = 64u * 1024;
inline constexpr std::uint32_t kMaxResponseBytes = 64u * 1024 * 1024;

// Service exit codes, continuing the CLI table (README.md): the daemon
// could not bind its socket / the client found nothing listening.
inline constexpr int kExitBindFailed = 10;
inline constexpr int kExitConnectFailed = 11;

class ProtoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class RequestType : std::uint8_t {
  kProfile,
  kTiming,
  kAnalyze,
  kAvf,
  kCampaign,
  kStats,     // daemon introspection: cache + scheduler counters
  kShutdown,  // graceful drain; the daemon answers, then stops
};

inline constexpr EnumName<RequestType> kRequestTypeNames[] = {
    {"profile", RequestType::kProfile},
    {"timing", RequestType::kTiming},
    {"analyze", RequestType::kAnalyze},
    {"avf", RequestType::kAvf},
    {"campaign", RequestType::kCampaign},
    {"stats", RequestType::kStats},
    {"shutdown", RequestType::kShutdown},
};

// Every type but stats and shutdown runs an app, which it then names.
inline bool RunsApp(RequestType t) {
  return t != RequestType::kStats && t != RequestType::kShutdown;
}

// One decoded request: its type plus the field-table parameters. The
// daemon runs its own base GpuConfig, so campaign.gpu and config_path
// never cross the wire; trace_path is a daemon-local path.
struct RequestSpec : fault::RequestParams {
  RequestType type = RequestType::kStats;
};

// What the daemon sends back for any request.
struct Response {
  bool ok = false;
  std::string error;  // set when !ok
  // The exit code the standalone CLI command would have returned
  // (analyzer verdicts make success codes 5/6 meaningful).
  int exit_code = 1;
  bool cached = false;   // served from the artifact cache
  bool batched = false;  // coalesced with other campaign requests
  std::string text;      // what standalone dcrm printed on stdout
  std::string csv;       // the --csv artifact (empty when n/a)
  std::string extra;     // stats payload (JSON object text), else empty
};

std::string EncodeRequest(const RequestSpec& req);
// Throws ProtoError on malformed input (also wraps json::ParseError).
RequestSpec DecodeRequest(const std::string& payload);

std::string EncodeResponse(const Response& resp);
Response DecodeResponse(const std::string& payload);

}  // namespace dcrm::service
