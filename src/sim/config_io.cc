#include "sim/config_io.h"

#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace dcrm::sim {
namespace {

std::string Trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

using Setter = std::function<void(GpuConfig&, const std::string&)>;

std::uint32_t ParseU32(const std::string& v) {
  std::size_t pos = 0;
  const unsigned long parsed = std::stoul(v, &pos);
  if (pos != v.size()) throw std::invalid_argument("trailing characters");
  return static_cast<std::uint32_t>(parsed);
}

const std::map<std::string, Setter>& Setters() {
  static const std::map<std::string, Setter> setters = {
#define DCRM_U32_KEY(field)                            \
  {#field, [](GpuConfig& c, const std::string& v) {    \
     c.field = ParseU32(v);                            \
   }}
      DCRM_U32_KEY(num_sms),
      DCRM_U32_KEY(max_ctas_per_sm),
      DCRM_U32_KEY(max_warps_per_sm),
      DCRM_U32_KEY(issue_width),
      DCRM_U32_KEY(max_warp_mlp),
      DCRM_U32_KEY(alu_cycles_per_mem),
      DCRM_U32_KEY(l1_size_bytes),
      DCRM_U32_KEY(l1_ways),
      DCRM_U32_KEY(l1_latency),
      DCRM_U32_KEY(l1_mshrs),
      DCRM_U32_KEY(ldst_throughput),
      DCRM_U32_KEY(icnt_latency),
      DCRM_U32_KEY(icnt_resp_bytes_per_cycle),
      DCRM_U32_KEY(num_partitions),
      DCRM_U32_KEY(l2_size_bytes),
      DCRM_U32_KEY(l2_ways),
      DCRM_U32_KEY(l2_latency),
      DCRM_U32_KEY(l2_mshrs),
      DCRM_U32_KEY(l2_input_queue),
      DCRM_U32_KEY(dram_banks),
      DCRM_U32_KEY(t_rcd),
      DCRM_U32_KEY(t_rp),
      DCRM_U32_KEY(t_cl),
      DCRM_U32_KEY(burst_cycles),
      DCRM_U32_KEY(row_bytes),
      DCRM_U32_KEY(dram_queue),
      DCRM_U32_KEY(replica_addr_table_bytes),
      DCRM_U32_KEY(pc_table_entries),
      DCRM_U32_KEY(compare_queue_entries),
      DCRM_U32_KEY(comparator_bytes_per_cycle),
      DCRM_U32_KEY(recovery_backoff_cycles),
#undef DCRM_U32_KEY
      {"sched_policy",
       [](GpuConfig& c, const std::string& v) {
         if (v == "gto") {
           c.sched_policy = SchedPolicy::kGto;
         } else if (v == "lrr") {
           c.sched_policy = SchedPolicy::kLrr;
         } else {
           throw std::invalid_argument("expected gto or lrr");
         }
       }},
      {"engine",
       [](GpuConfig& c, const std::string& v) {
         const std::optional<SimEngine> e = ValueOf(kEngineNames, v);
         if (!e.has_value()) {
           throw std::invalid_argument("expected cycle or event");
         }
         c.engine = *e;
       }},
      {"collect_block_misses",
       [](GpuConfig& c, const std::string& v) {
         if (v == "true" || v == "1") {
           c.collect_block_misses = true;
         } else if (v == "false" || v == "0") {
           c.collect_block_misses = false;
         } else {
           throw std::invalid_argument("expected true/false");
         }
       }},
  };
  return setters;
}

}  // namespace

GpuConfig ParseGpuConfig(std::istream& is, GpuConfig base) {
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("config line " + std::to_string(lineno) +
                               ": expected key = value");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    const auto it = Setters().find(key);
    if (it == Setters().end()) {
      throw std::runtime_error("config line " + std::to_string(lineno) +
                               ": unknown key '" + key + "'");
    }
    try {
      it->second(base, value);
    } catch (const std::exception& e) {
      throw std::runtime_error("config line " + std::to_string(lineno) +
                               " (" + key + "): " + e.what());
    }
  }
  return base;
}

GpuConfig ParseGpuConfigString(const std::string& text, GpuConfig base) {
  std::istringstream is(text);
  return ParseGpuConfig(is, base);
}

GpuConfig LoadGpuConfigFile(const std::string& path, GpuConfig base) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open config file: " + path);
  return ParseGpuConfig(is, base);
}

std::string DumpGpuConfig(const GpuConfig& c) {
  std::ostringstream os;
  os << "# gpu-dcrm hardware configuration (Table I defaults)\n";
#define DCRM_EMIT(field) os << #field << " = " << c.field << '\n'
  DCRM_EMIT(num_sms);
  DCRM_EMIT(max_ctas_per_sm);
  DCRM_EMIT(max_warps_per_sm);
  DCRM_EMIT(issue_width);
  DCRM_EMIT(max_warp_mlp);
  DCRM_EMIT(alu_cycles_per_mem);
  DCRM_EMIT(l1_size_bytes);
  DCRM_EMIT(l1_ways);
  DCRM_EMIT(l1_latency);
  DCRM_EMIT(l1_mshrs);
  DCRM_EMIT(ldst_throughput);
  DCRM_EMIT(icnt_latency);
  DCRM_EMIT(icnt_resp_bytes_per_cycle);
  DCRM_EMIT(num_partitions);
  DCRM_EMIT(l2_size_bytes);
  DCRM_EMIT(l2_ways);
  DCRM_EMIT(l2_latency);
  DCRM_EMIT(l2_mshrs);
  DCRM_EMIT(l2_input_queue);
  DCRM_EMIT(dram_banks);
  DCRM_EMIT(t_rcd);
  DCRM_EMIT(t_rp);
  DCRM_EMIT(t_cl);
  DCRM_EMIT(burst_cycles);
  DCRM_EMIT(row_bytes);
  DCRM_EMIT(dram_queue);
  DCRM_EMIT(replica_addr_table_bytes);
  DCRM_EMIT(pc_table_entries);
  DCRM_EMIT(compare_queue_entries);
  DCRM_EMIT(comparator_bytes_per_cycle);
  DCRM_EMIT(recovery_backoff_cycles);
#undef DCRM_EMIT
  os << "sched_policy = "
     << (c.sched_policy == SchedPolicy::kGto ? "gto" : "lrr") << '\n';
  os << "engine = " << NameOf(kEngineNames, c.engine) << '\n';
  os << "collect_block_misses = "
     << (c.collect_block_misses ? "true" : "false") << '\n';
  return os.str();
}

}  // namespace dcrm::sim
