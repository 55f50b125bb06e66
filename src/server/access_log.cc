#include "server/access_log.h"

#include <cerrno>
#include <cstring>

#include "common/logging.h"

namespace egp {
namespace {

/// Milliseconds with enough digits for sub-microsecond phases.
void Millis(JsonWriter* out, std::string_view key, double ms) {
  out->Key(key).Number(ms, 6);
}

}  // namespace

void WriteRequestTraceJson(const RequestTrace& trace, std::string_view level,
                           JsonWriter* out) {
  out->BeginObject().Key("id").String(trace.id);
  if (!level.empty()) out->Key("level").String(level);
  out->Key("method").String(trace.method);
  out->Key("path").String(trace.path);
  out->Key("dataset").String(trace.dataset);
  out->Key("status").Int(trace.status);
  out->Key("outcome").String(trace.outcome);
  out->Key("cacheHit").Bool(trace.cache_hit);
  out->Key("bytesIn").Uint(trace.bytes_in);
  out->Key("bytesOut").Uint(trace.bytes_out);
  Millis(out, "totalMs", trace.total_seconds * 1e3);
  out->Key("phases").BeginObject();
  for (int i = 1; i < kTracePhaseCount; ++i) {  // every phase but idle
    const std::string key =
        std::string(TracePhaseName(static_cast<TracePhase>(i))) + "Ms";
    Millis(out, key, static_cast<double>(trace.phase_ns[i]) * 1e-6);
  }
  const PrepareTimings& build = trace.build;
  out->EndObject().Key("build").BeginObject();
  Millis(out, "keyMs", build.key_seconds * 1e3);
  Millis(out, "nonkeyMs", build.nonkey_seconds * 1e3);
  Millis(out, "distanceMs", build.distance_seconds * 1e3);
  Millis(out, "candidateSortMs", build.candidate_sort_seconds * 1e3);
  out->EndObject().EndObject();
}

std::string RequestTraceToJson(const RequestTrace& trace,
                               std::string_view level) {
  std::string out;
  JsonWriter writer(&out);
  WriteRequestTraceJson(trace, level, &writer);
  return out;
}

Result<std::unique_ptr<AccessLog>> AccessLog::Open(
    const AccessLogOptions& options) {
  std::FILE* stream = nullptr;
  bool owns = false;
  if (options.path == "stderr") {
    stream = stderr;
  } else {
    stream = std::fopen(options.path.c_str(), "ae");
    if (stream == nullptr) {
      return Status::IOError("cannot open access log '" + options.path +
                             "': " + std::strerror(errno));
    }
    owns = true;
  }
  return std::unique_ptr<AccessLog>(new AccessLog(stream, owns, options));
}

AccessLog::~AccessLog() {
  MutexLock lock(&mu_);
  if (owns_stream_ && stream_ != nullptr) std::fclose(stream_);
  stream_ = nullptr;
}

void AccessLog::Write(const RequestTrace& trace) {
  const bool slow = options_.slow_request_ms >= 0 &&
                    trace.total_seconds * 1e3 >= options_.slow_request_ms;
  const LogLevel level = slow ? LogLevel::kWarning : LogLevel::kInfo;
  if (level < GetLogLevel()) return;
  std::string line = RequestTraceToJson(trace, slow ? "warning" : "info");
  line += "\n";
  MutexLock lock(&mu_);
  if (stream_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), stream_);
  // Flushed per line so a tailing operator (or the smoke test) sees the
  // trace as soon as the request finishes, not at buffer granularity.
  std::fflush(stream_);
  ++lines_;
}

uint64_t AccessLog::lines_written() const {
  MutexLock lock(&mu_);
  return lines_;
}

}  // namespace egp
