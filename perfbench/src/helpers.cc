#include "helpers.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// Index one past the JSON string starting at `i` (which holds '"'), or
// npos when it never closes.
size_t SkipString(std::string_view s, size_t i) {
  for (++i; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;
    } else if (s[i] == '"') {
      return i + 1;
    }
  }
  return std::string_view::npos;
}

// Index one past the JSON value starting at `i`, or npos. Containers are
// skipped by bracket depth; strings inside them by SkipString.
size_t SkipValue(std::string_view s, size_t i) {
  if (i >= s.size()) return std::string_view::npos;
  if (s[i] == '"') return SkipString(s, i);
  if (s[i] == '{' || s[i] == '[') {
    int depth = 0;
    while (i < s.size()) {
      const char c = s[i];
      if (c == '"') {
        i = SkipString(s, i);
        if (i == std::string_view::npos) return i;
        continue;
      }
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') {
        if (--depth == 0) return i + 1;
      }
      ++i;
    }
    return std::string_view::npos;
  }
  while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']') ++i;
  return i;
}

size_t SkipSpace(std::string_view s, size_t i) {
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) {
    ++i;
  }
  return i;
}

}  // namespace

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(pct * n / 100.0 - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  return samples[rank - 1];
}

Tail TailPercentile(std::vector<double> samples, double want) {
  Tail tail;
  tail.count = samples.size();
  const size_t n = samples.size();
  if (n < 20) {
    tail.pct = 50.0;
    tail.value = Percentile(std::move(samples), 50.0);
    return tail;
  }
  // Nearest rank r leaves n - r samples beyond it; the wanted rank is
  // capped at n - 10.
  size_t rank = static_cast<size_t>(std::ceil(want * n / 100.0 - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n - 10);
  std::sort(samples.begin(), samples.end());
  tail.value = samples[rank - 1];
  tail.pct = std::min(want, 100.0 * static_cast<double>(rank) / n);
  return tail;
}

void FailureTally::Record(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk:
      ++ok;
      break;
    case Outcome::kTransport:
      ++transport_errors;
      break;
    case Outcome::kStatus:
      ++bad_status;
      break;
    case Outcome::kBody:
      ++bad_body;
      break;
  }
}

void FailureTally::Merge(const FailureTally& other) {
  attempted += other.attempted;
  ok += other.ok;
  transport_errors += other.transport_errors;
  bad_status += other.bad_status;
  bad_body += other.bad_body;
}

double FailureTally::failed_share() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed()) /
                              static_cast<double>(attempted);
}

DueTiming TimeFromDue(double due, double sent, double done) {
  DueTiming timing;
  timing.latency = done - due;
  timing.late = std::max(0.0, sent - due);
  return timing;
}

std::optional<std::string> StripVolatileMembers(std::string_view body) {
  size_t i = SkipSpace(body, 0);
  if (i >= body.size() || body[i] != '{') return std::nullopt;
  i = SkipSpace(body, i + 1);
  std::string out = "{";
  bool first = true;
  if (i < body.size() && body[i] == '}') {
    i = SkipSpace(body, i + 1);
    return i == body.size() ? std::optional<std::string>("{}") : std::nullopt;
  }
  while (true) {
    if (i >= body.size() || body[i] != '"') return std::nullopt;
    const size_t key_begin = i;
    const size_t key_end = SkipString(body, i);
    if (key_end == std::string_view::npos) return std::nullopt;
    const std::string_view key =
        body.substr(key_begin + 1, key_end - key_begin - 2);
    i = SkipSpace(body, key_end);
    if (i >= body.size() || body[i] != ':') return std::nullopt;
    const size_t value_end = SkipValue(body, SkipSpace(body, i + 1));
    if (value_end == std::string_view::npos) return std::nullopt;
    if (key != "timings" && key != "cacheHit") {
      if (!first) out += ',';
      first = false;
      out.append(body.substr(key_begin, value_end - key_begin));
    }
    i = SkipSpace(body, value_end);
    if (i >= body.size()) return std::nullopt;
    if (body[i] == '}') break;
    if (body[i] != ',') return std::nullopt;
    i = SkipSpace(body, i + 1);
  }
  if (SkipSpace(body, i + 1) != body.size()) return std::nullopt;
  out += '}';
  return out;
}

bool BodyMatchesReference(std::string_view body,
                          std::string_view reference_stripped) {
  const std::optional<std::string> stripped = StripVolatileMembers(body);
  return stripped.has_value() && *stripped == reference_stripped;
}

}  // namespace perfbench
