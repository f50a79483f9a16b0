#include "tools/corrobctl/corrobctl.h"

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "server/client.h"
#include "server/protocol.h"

namespace corrob {
namespace ctl {
namespace {

using server::CorrobClient;
using server::IntrospectRequest;

constexpr char kUsage[] =
    "usage: corrobctl <status|requests|tenants|watch> --socket PATH\n"
    "                 [--raw] [--top N] [--recent N]\n"
    "                 [--interval-ms N] [--count N]\n"
    "       corrobctl apply-delta --socket PATH --dataset NAME\n"
    "                 --delta vote:SOURCE:FACT:T|F\n"
    "                 --delta retract:SOURCE:FACT\n"
    "                 --delta source:SOURCE  (each --delta repeatable)\n";

/// Formats nanoseconds as milliseconds with microsecond resolution.
std::string Ms(int64_t nanos) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f",
                static_cast<double>(nanos) / 1e6);
  return buffer;
}

/// Reads doc[key] as an integer; 0 when absent or mistyped. The
/// renderers stay best-effort about optional fields so a daemon from
/// an adjacent schema revision degrades to blank cells, not a refusal
/// — but the schema string itself is still checked by the callers.
int64_t IntField(const obs::JsonValue& doc, std::string_view key) {
  const obs::JsonValue* value = doc.Find(key);
  return value != nullptr && value->is_int() ? value->int_value() : 0;
}

std::string StrField(const obs::JsonValue& doc, std::string_view key) {
  const obs::JsonValue* value = doc.Find(key);
  return value != nullptr && value->is_string() ? value->string_value() : "";
}

std::string BoolField(const obs::JsonValue& doc, std::string_view key) {
  const obs::JsonValue* value = doc.Find(key);
  if (value == nullptr || !value->is_bool()) return "";
  return value->bool_value() ? "true" : "false";
}

/// The empty-or-wrong-shape guard every renderer starts with.
[[nodiscard]] Status ExpectSchema(const obs::JsonValue& doc,
                                  const std::string& want) {
  if (!doc.is_object()) {
    return Status::ParseError("daemon document is not a JSON object");
  }
  const std::string schema = StrField(doc, "schema");
  if (schema != want) {
    return Status::ParseError("expected schema '" + want + "', daemon sent '" +
                              schema + "'");
  }
  return Status::OK();
}

}  // namespace

Result<WalRecord> ParseDeltaSpec(const std::string& spec) {
  const std::vector<std::string> fields = Split(spec, ':');
  const std::string& kind = fields[0];
  const auto bad = [&](const std::string& why) {
    return Status::InvalidArgument("--delta '" + spec + "': " + why);
  };
  if (kind == "vote") {
    if (fields.size() != 4) return bad("want vote:SOURCE:FACT:T|F");
    if (fields[1].empty() || fields[2].empty()) {
      return bad("source and fact must be non-empty");
    }
    if (fields[3] != "T" && fields[3] != "F") {
      return bad("vote must be T or F, got '" + fields[3] + "'");
    }
    return MakeAddVote(fields[1], fields[2],
                       fields[3] == "T" ? Vote::kTrue : Vote::kFalse);
  }
  if (kind == "retract") {
    if (fields.size() != 3) return bad("want retract:SOURCE:FACT");
    if (fields[1].empty() || fields[2].empty()) {
      return bad("source and fact must be non-empty");
    }
    return MakeRetractVote(fields[1], fields[2]);
  }
  if (kind == "source") {
    if (fields.size() != 2) return bad("want source:SOURCE");
    if (fields[1].empty()) return bad("source must be non-empty");
    return MakeAddSource(fields[1]);
  }
  return bad("unknown delta kind '" + kind + "'");
}

Result<CtlOptions> ParseCtlArgs(const std::vector<std::string>& args) {
  CtlOptions options;
  const auto needs_value = [&](size_t i) -> Result<std::string> {
    if (i + 1 >= args.size()) {
      return Status::InvalidArgument("flag " + args[i] + " needs a value");
    }
    return args[i + 1];
  };
  const auto needs_int = [&](size_t i) -> Result<int64_t> {
    CORROB_ASSIGN_OR_RETURN(std::string value, needs_value(i));
    try {
      return static_cast<int64_t>(std::stoll(value));
    } catch (...) {
      return Status::InvalidArgument("flag " + args[i] + ": '" + value +
                                     "' is not an integer");
    }
  };
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--socket") {
      CORROB_ASSIGN_OR_RETURN(options.socket, needs_value(i));
      ++i;
    } else if (arg == "--raw") {
      options.raw = true;
    } else if (arg == "--top") {
      CORROB_ASSIGN_OR_RETURN(options.top, needs_int(i));
      ++i;
    } else if (arg == "--recent") {
      CORROB_ASSIGN_OR_RETURN(options.recent, needs_int(i));
      ++i;
    } else if (arg == "--interval-ms") {
      CORROB_ASSIGN_OR_RETURN(options.interval_ms, needs_int(i));
      ++i;
    } else if (arg == "--count") {
      CORROB_ASSIGN_OR_RETURN(options.count, needs_int(i));
      ++i;
    } else if (arg == "--dataset") {
      CORROB_ASSIGN_OR_RETURN(options.dataset, needs_value(i));
      ++i;
    } else if (arg == "--delta") {
      CORROB_ASSIGN_OR_RETURN(std::string spec, needs_value(i));
      CORROB_ASSIGN_OR_RETURN(WalRecord record, ParseDeltaSpec(spec));
      options.deltas.push_back(std::move(record));
      ++i;
    } else if (!arg.empty() && arg[0] == '-') {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    } else if (options.command.empty()) {
      options.command = arg;
    } else {
      return Status::InvalidArgument("unexpected argument '" + arg + "'");
    }
  }
  if (options.command != "status" && options.command != "requests" &&
      options.command != "tenants" && options.command != "watch" &&
      options.command != "apply-delta") {
    return Status::InvalidArgument(
        options.command.empty()
            ? "missing subcommand"
            : "unknown subcommand '" + options.command + "'");
  }
  if (options.socket.empty()) {
    return Status::InvalidArgument("--socket is required");
  }
  if (options.command == "apply-delta") {
    if (options.dataset.empty()) {
      return Status::InvalidArgument("apply-delta requires --dataset");
    }
    if (options.deltas.empty()) {
      return Status::InvalidArgument(
          "apply-delta requires at least one --delta");
    }
  } else if (!options.dataset.empty() || !options.deltas.empty()) {
    return Status::InvalidArgument(
        "--dataset/--delta only apply to apply-delta");
  }
  if (options.top < 1 || options.recent < 1) {
    return Status::InvalidArgument("--top and --recent must be >= 1");
  }
  if (options.interval_ms < 1 || options.count < 0) {
    return Status::InvalidArgument(
        "--interval-ms must be >= 1 and --count >= 0");
  }
  return options;
}

Result<std::string> RenderStatus(const obs::JsonValue& stats,
                                 const obs::JsonValue& introspect) {
  CORROB_RETURN_NOT_OK(ExpectSchema(stats, "corrob.serving_stats/4"));
  CORROB_RETURN_NOT_OK(ExpectSchema(introspect, "corrob.introspect/1"));

  TablePrinter table({"field", "value"});
  table.AddRow({"draining", BoolField(stats, "draining")});
  table.AddRow({"running", std::to_string(IntField(stats, "running"))});
  if (const obs::JsonValue* queued = stats.Find("queued");
      queued != nullptr && queued->is_object()) {
    for (const auto& [cls, depth] : queued->members()) {
      table.AddRow({"queued." + cls,
                    std::to_string(depth.is_int() ? depth.int_value() : 0)});
    }
  }
  table.AddRow(
      {"responses_sent", std::to_string(IntField(stats, "responses_sent"))});
  table.AddSeparator();
  if (const obs::JsonValue* cache = stats.Find("cache");
      cache != nullptr && cache->is_object()) {
    for (const char* key :
         {"hits", "misses", "entries", "bytes", "evictions"}) {
      table.AddRow({std::string("cache.") + key,
                    std::to_string(IntField(*cache, key))});
    }
  }
  if (const obs::JsonValue* coalesce = stats.Find("coalesce");
      coalesce != nullptr && coalesce->is_object()) {
    for (const char* key : {"leaders", "followers", "promotions"}) {
      table.AddRow({std::string("coalesce.") + key,
                    std::to_string(IntField(*coalesce, key))});
    }
  }
  if (const obs::JsonValue* quota = stats.Find("quota");
      quota != nullptr && quota->is_object()) {
    for (const char* key : {"rate_rejections", "slot_rejections"}) {
      table.AddRow({std::string("quota.") + key,
                    std::to_string(IntField(*quota, key))});
    }
  }
  table.AddSeparator();
  const obs::JsonValue* active = introspect.Find("active");
  table.AddRow({"active_requests",
                std::to_string(active != nullptr && active->is_array()
                                   ? static_cast<int64_t>(active->size())
                                   : 0)});
  if (const obs::JsonValue* recorder = stats.Find("recorder");
      recorder != nullptr && recorder->is_object()) {
    for (const char* key : {"started", "completed", "dropped", "slow"}) {
      table.AddRow({std::string("recorder.") + key,
                    std::to_string(IntField(*recorder, key))});
    }
  }
  if (const obs::JsonValue* watchdog = stats.Find("watchdog");
      watchdog != nullptr && watchdog->is_object()) {
    for (const char* key : {"scans", "flagged", "stuck"}) {
      table.AddRow({std::string("watchdog.") + key,
                    std::to_string(IntField(*watchdog, key))});
    }
  }
  return table.ToString();
}

Result<std::string> RenderRequests(const obs::JsonValue& introspect) {
  CORROB_RETURN_NOT_OK(ExpectSchema(introspect, "corrob.introspect/1"));
  const obs::JsonValue* active = introspect.Find("active");
  const obs::JsonValue* recorder = introspect.Find("recorder");
  if (active == nullptr || !active->is_array() || recorder == nullptr ||
      !recorder->is_object()) {
    return Status::ParseError(
        "introspect document is missing 'active' or 'recorder'");
  }
  const obs::JsonValue* recent = recorder->Find("recent");
  if (recent == nullptr || !recent->is_array()) {
    return Status::ParseError("introspect recorder is missing 'recent'");
  }

  std::string out = "active requests (" + std::to_string(active->size()) +
                    " in flight)\n";
  TablePrinter active_table({"seq", "id", "tenant", "dataset", "method",
                             "priority", "age_ms", "deadline_ms", "flagged"});
  for (const obs::JsonValue& row : active->items()) {
    active_table.AddRow(
        {std::to_string(IntField(row, "seq")), StrField(row, "id"),
         StrField(row, "tenant"), StrField(row, "dataset"),
         StrField(row, "method"), StrField(row, "priority"),
         Ms(IntField(row, "age_nanos")), Ms(IntField(row, "deadline_nanos")),
         BoolField(row, "flagged")});
  }
  out += active_table.ToString();

  out += "\nrecent requests (" + std::to_string(recent->size()) +
         " of ring capacity " +
         std::to_string(IntField(*recorder, "capacity")) + ", " +
         std::to_string(IntField(*recorder, "dropped")) + " dropped)\n";
  TablePrinter recent_table({"seq", "id", "tenant", "dataset", "method",
                             "priority", "role", "termination", "wait_ms",
                             "service_ms", "total_ms", "bytes"});
  for (const obs::JsonValue& row : recent->items()) {
    recent_table.AddRow(
        {std::to_string(IntField(row, "seq")), StrField(row, "id"),
         StrField(row, "tenant"), StrField(row, "dataset"),
         StrField(row, "method"), StrField(row, "priority"),
         StrField(row, "role"), StrField(row, "termination"),
         Ms(IntField(row, "admission_wait_nanos")),
         Ms(IntField(row, "service_nanos")), Ms(IntField(row, "total_nanos")),
         std::to_string(IntField(row, "response_bytes"))});
  }
  out += recent_table.ToString();
  return out;
}

Result<std::string> RenderTenants(const obs::JsonValue& introspect) {
  CORROB_RETURN_NOT_OK(ExpectSchema(introspect, "corrob.introspect/1"));
  const obs::JsonValue* recorder = introspect.Find("recorder");
  const obs::JsonValue* tenants =
      recorder != nullptr ? recorder->Find("tenants") : nullptr;
  if (tenants == nullptr || !tenants->is_array()) {
    return Status::ParseError("introspect recorder is missing 'tenants'");
  }
  TablePrinter table({"tenant", "requests", "avg_ms", "max_ms", "total_ms"});
  for (const obs::JsonValue& row : tenants->items()) {
    const int64_t requests = IntField(row, "requests");
    const int64_t total_nanos = IntField(row, "total_nanos");
    table.AddRow({StrField(row, "tenant"), std::to_string(requests),
                  Ms(requests > 0 ? total_nanos / requests : 0),
                  Ms(IntField(row, "max_nanos")), Ms(total_nanos)});
  }
  return table.ToString();
}

namespace {

/// One fetch-and-render pass; watch runs this on a cadence. `*text`
/// ends with a newline so the caller can stream passes back to back.
[[nodiscard]] Status RenderOnce(CorrobClient* client,
                                const CtlOptions& options, std::string* text) {
  IntrospectRequest introspect_request;
  introspect_request.top_k = static_cast<uint32_t>(options.top);
  introspect_request.max_recent = static_cast<uint32_t>(options.recent);

  CORROB_ASSIGN_OR_RETURN(std::string introspect_payload,
                          client->Introspect(introspect_request, StopSignal()));
  if (options.raw && options.command != "status") {
    *text = introspect_payload + "\n";
    return Status::OK();
  }
  obs::JsonValue introspect;
  std::string error;
  if (!obs::JsonValue::Parse(introspect_payload, &introspect, &error)) {
    return Status::ParseError("daemon sent unparsable introspect JSON: " +
                              error);
  }

  if (options.command == "requests") {
    CORROB_ASSIGN_OR_RETURN(*text, RenderRequests(introspect));
    return Status::OK();
  }
  if (options.command == "tenants") {
    CORROB_ASSIGN_OR_RETURN(*text, RenderTenants(introspect));
    return Status::OK();
  }

  // status / watch also need the stats document.
  CORROB_ASSIGN_OR_RETURN(std::string stats_payload,
                          client->Stats(StopSignal()));
  if (options.raw) {
    *text = stats_payload + "\n";
    return Status::OK();
  }
  obs::JsonValue stats;
  if (!obs::JsonValue::Parse(stats_payload, &stats, &error)) {
    return Status::ParseError("daemon sent unparsable stats JSON: " + error);
  }
  CORROB_ASSIGN_OR_RETURN(*text, RenderStatus(stats, introspect));
  return Status::OK();
}

}  // namespace

int RunCorrobctl(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  const Result<CtlOptions> parsed = ParseCtlArgs(args);
  if (!parsed.ok()) {
    err << "corrobctl: " << parsed.status().ToString() << "\n" << kUsage;
    return 2;
  }
  const CtlOptions& options = parsed.ValueOrDie();

  Result<CorrobClient> client = CorrobClient::Connect(options.socket);
  if (!client.ok()) {
    err << "corrobctl: cannot connect to '" << options.socket
        << "': " << client.status().ToString() << "\n";
    return 1;
  }

  if (options.command == "apply-delta") {
    server::ApplyDeltaRequest request;
    request.dataset = options.dataset;
    request.deltas = options.deltas;
    const Result<server::ApplyDeltaResponse> response =
        client.ValueOrDie().ApplyDelta(request, StopSignal());
    if (!response.ok()) {
      err << "corrobctl: " << response.status().ToString() << "\n";
      return 1;
    }
    out << "applied " << response.ValueOrDie().applied
        << " delta(s); dataset '" << options.dataset << "' at generation "
        << response.ValueOrDie().generation << "\n";
    return 0;
  }

  const int64_t passes = options.command == "watch"
                             ? (options.count > 0 ? options.count : INT64_MAX)
                             : 1;
  const CancellationToken pacer;
  for (int64_t pass = 0; pass < passes; ++pass) {
    if (pass > 0) {
      const double interval = static_cast<double>(options.interval_ms);
      (void)pacer.WaitForMs(interval);  // lint: discard-ok: watch cadence
      out << "\n";
    }
    std::string text;
    if (const Status rendered = RenderOnce(&client.ValueOrDie(), options, &text);
        !rendered.ok()) {
      err << "corrobctl: " << rendered.ToString() << "\n";
      return 1;
    }
    out << text;
    out.flush();
  }
  return 0;
}

}  // namespace ctl
}  // namespace corrob
