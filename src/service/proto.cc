#include "service/proto.h"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <variant>

#include "common/json.h"

namespace dcrm::service {

namespace {

[[noreturn]] void Fail(const std::string& what) { throw ProtoError(what); }

const std::string& Str(const json::Value& v, const char* key,
                       std::int64_t max_bytes) {
  if (!v.IsString()) Fail(std::string(key) + " must be a string");
  const std::string& s = v.AsString();
  if (s.empty() || static_cast<std::int64_t>(s.size()) > max_bytes) {
    Fail(std::string(key) + " length out of range");
  }
  return s;
}

std::int64_t Int(const json::Value& v, const char* key, std::int64_t lo,
                 std::int64_t hi) {
  if (!v.IsInt()) Fail(std::string(key) + " must be an integer");
  const std::int64_t n = v.AsInt();
  if (n < lo || n > hi) Fail(std::string(key) + " out of range");
  return n;
}

bool Bool(const json::Value& v, const char* key) {
  if (!v.IsBool()) Fail(std::string(key) + " must be a boolean");
  return v.AsBool();
}

// A row's wire value: JSON integers for numbers (a u64 rides as its
// int64 bit pattern; JSON doubles would round it), true for a set
// switch, an array for a list, the flag text otherwise. nullopt for an
// unset row, which is left out.
std::optional<json::Value> WireValue(fault::FieldRef ref) {
  const std::optional<std::string> text = fault::FieldText(ref);
  if (!text.has_value()) return std::nullopt;
  return std::visit(
      [&](auto* p) -> json::Value {
        using M = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_same_v<M, bool>) {
          return true;
        } else if constexpr (std::is_same_v<M, std::vector<std::string>>) {
          json::Value a = json::Value::MakeArray();
          for (const std::string& item : *p) a.Push(item);
          return a;
        } else if constexpr (std::is_same_v<M, std::uint64_t>) {
          return static_cast<std::int64_t>(*p);
        } else if constexpr (std::is_same_v<M, unsigned> ||
                             std::is_same_v<M, int>) {
          return *p;
        } else if constexpr (std::is_same_v<M, std::optional<unsigned>>) {
          return p->value();
        } else {
          return *text;
        }
      },
      ref);
}

void SetFromWire(const fault::Field<fault::RequestParams>& f,
                 fault::RequestParams& params, const json::Value& v) {
  const fault::FieldRef ref = f.member(params);
  std::visit(
      [&](auto* p) {
        using M = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_same_v<M, bool>) {
          *p = Bool(v, f.key);
        } else if constexpr (std::is_same_v<M, std::vector<std::string>>) {
          if (!v.IsArray()) Fail(std::string(f.key) + " must be an array");
          const json::Array& a = v.AsArray();
          const auto n = static_cast<std::int64_t>(a.size());
          if (n < f.lo || n > f.hi) Fail(std::string(f.key) + " out of range");
          p->clear();
          for (const json::Value& item : a) {
            p->push_back(Str(item, f.key, fault::kMaxNameBytes));
          }
        } else if constexpr (std::is_same_v<M, std::uint64_t>) {
          if (!v.IsInt()) Fail(std::string(f.key) + " must be an integer");
          *p = static_cast<std::uint64_t>(v.AsInt());
        } else {
          // Numbers go through their decimal text, so the row's own
          // parser checks the range, as on the command line.
          std::string text;
          if constexpr (std::is_same_v<M, unsigned> ||
                        std::is_same_v<M, int> ||
                        std::is_same_v<M, std::optional<unsigned>>) {
            if (!v.IsInt()) Fail(std::string(f.key) + " must be an integer");
            text = std::to_string(v.AsInt());
          } else {  // strings and enums
            text = Str(v, f.key,
                       std::is_same_v<M, std::string> ? f.hi
                                                      : fault::kMaxNameBytes);
          }
          if (!fault::SetFieldText(ref, f.lo, f.hi, text)) {
            Fail(std::string("invalid ") + f.key + ": " + text);
          }
        }
      },
      ref);
}

}  // namespace

std::string EncodeRequest(const RequestSpec& req) {
  json::Value o = json::Value::MakeObject();
  o.Set("type", NameOf(kRequestTypeNames, req.type));
  if (!RunsApp(req.type)) return o.Dump();
  o.Set("app", req.campaign.app);
  // Rows only read through the pointer here.
  auto& params = const_cast<RequestSpec&>(req);
  for (const auto& f : fault::kRequestFields) {
    if (f.key == nullptr) continue;
    if (auto v = WireValue(f.member(params))) o.Set(f.key, std::move(*v));
  }
  return o.Dump();
}

RequestSpec DecodeRequest(const std::string& payload) {
  json::Value root;
  try {
    root = json::Value::Parse(payload);
  } catch (const json::ParseError& e) {
    Fail(std::string("malformed request: ") + e.what());
  }
  if (!root.IsObject()) Fail("request must be a JSON object");

  RequestSpec req;
  bool saw_type = false;
  bool saw_app = false;
  for (const auto& [key, v] : root.AsObject()) {
    if (key == "type") {
      const std::string& name = Str(v, "type", fault::kMaxNameBytes);
      const std::optional<RequestType> t = ValueOf(kRequestTypeNames, name);
      if (!t.has_value()) Fail("unknown request type: " + name);
      req.type = *t;
      saw_type = true;
      continue;
    }
    if (key == "app") {
      req.campaign.app = Str(v, "app", fault::kMaxNameBytes);
      saw_app = true;
      continue;
    }
    const auto row = std::find_if(
        fault::kRequestFields.begin(), fault::kRequestFields.end(),
        [&](const auto& f) { return f.key != nullptr && key == f.key; });
    if (row == fault::kRequestFields.end()) {
      Fail("unknown request key: " + key);
    }
    SetFromWire(*row, req, v);
  }
  if (!saw_type) Fail("request is missing \"type\"");
  if (RunsApp(req.type) && !saw_app) {
    Fail(std::string(NameOf(kRequestTypeNames, req.type)) +
         " request is missing \"app\"");
  }
  return req;
}

std::string EncodeResponse(const Response& resp) {
  json::Value o = json::Value::MakeObject();
  o.Set("ok", resp.ok);
  if (!resp.error.empty()) o.Set("error", resp.error);
  o.Set("exit_code", resp.exit_code);
  o.Set("cached", resp.cached);
  o.Set("batched", resp.batched);
  if (!resp.text.empty()) o.Set("text", resp.text);
  if (!resp.csv.empty()) o.Set("csv", resp.csv);
  if (!resp.extra.empty()) o.Set("extra", resp.extra);
  return o.Dump();
}

Response DecodeResponse(const std::string& payload) {
  json::Value root;
  try {
    root = json::Value::Parse(payload);
  } catch (const json::ParseError& e) {
    Fail(std::string("malformed response: ") + e.what());
  }
  if (!root.IsObject()) Fail("response must be a JSON object");
  Response resp;
  for (const auto& [key, v] : root.AsObject()) {
    if (key == "ok") {
      resp.ok = Bool(v, "ok");
    } else if (key == "error") {
      if (!v.IsString()) Fail("error must be a string");
      resp.error = v.AsString();
    } else if (key == "exit_code") {
      resp.exit_code = static_cast<int>(
          Int(v, "exit_code", std::numeric_limits<int>::min(),
              std::numeric_limits<int>::max()));
    } else if (key == "cached") {
      resp.cached = Bool(v, "cached");
    } else if (key == "batched") {
      resp.batched = Bool(v, "batched");
    } else if (key == "text") {
      if (!v.IsString()) Fail("text must be a string");
      resp.text = v.AsString();
    } else if (key == "csv") {
      if (!v.IsString()) Fail("csv must be a string");
      resp.csv = v.AsString();
    } else if (key == "extra") {
      if (!v.IsString()) Fail("extra must be a string");
      resp.extra = v.AsString();
    } else {
      Fail("unknown response key: " + key);
    }
  }
  return resp;
}

}  // namespace dcrm::service
