// perfbench: drives a separate egp_server process over loopback and
// prints the end-to-end metrics of one workload (--trace 0), or replays
// the workload in-process under spans for the per-layer metrics
// (--trace 1). The server and this load generator run on disjoint halves
// of the allowed cores. Every response is checked against an in-process
// reference. The last line of stdout is the result object.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --server PATH --work DIR [--commit ID]
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/generator.h"
#include "helpers.h"
#include "io/json_export.h"
#include "io/json_parser.h"
#include "proc.h"
#include "replay.h"
#include "server/api.h"
#include "store/snapshot_reader.h"
#include "store/snapshot_writer.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 7;
// The measured window is split into phases of about this length.
constexpr double kPhaseSeconds = 2.0;
// Sequential cold requests sent at the end of each phase of a closed-loop
// workload, so cold latency is measured on every workload.
constexpr int kColdProbePerPhase = 8;
// Untimed load before the measured window.
constexpr double kWarmupSeconds = 0.5;
// Cold-request index ranges: the run, the replay, the prepare trials.
constexpr uint64_t kReplayColdBase = 10000;
constexpr uint64_t kPrepareColdBase = 20000;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(double when) {
  const double whole = std::floor(when);
  timespec ts{static_cast<time_t>(whole),
              static_cast<long>((when - whole) * 1e9)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

// Machine-wide CPU steal so far, in clock ticks: time the host ran
// something else while this machine's CPUs wanted to run.
double StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0.0, steal = 0.0;
  in >> cpu;
  for (int i = 1; i <= 8 && in >> field; ++i) {
    if (i == 8) steal = field;
  }
  return steal;
}

// CPU seconds of the calling thread so far.
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::string CpuList(const std::vector<int>& cpus) {
  std::string out;
  for (const int cpu : cpus) {
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
  }
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string server;
  std::string work;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--server") {
      args->server = value;
    } else if (flag == "--work") {
      args->work = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 != 1 || args->workload.empty() || args->server.empty() ||
      args->work.empty() || !(args->seconds > 0) ||
      (args->trace != 0 && args->trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --server PATH --work DIR [--commit ID]\n");
    return false;
  }
  return true;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out(1, '"');
  out += egp::JsonEscape(s);
  out += '"';
  return out;
}

// ---------------------------------------------------------------------------
// Inputs and references

struct Dataset {
  std::string name;
  std::string path;
};

// Generates the two datasets and compiles them to .egps. They use the
// domain specs' own generator seeds, not the run's: a seeded basketball
// instance changes the work of a sampled preview by up to 2x (its hubs
// differ), which no run-to-run bound could absorb. The run seed drives
// the request lists instead.
bool GenerateInputs(const std::string& dir, std::vector<Dataset>* out,
                    std::string* error) {
  std::filesystem::create_directories(dir);
  const std::pair<const char*, double> specs[] = {{"basketball", 0.2},
                                                  {"film", 0.02}};
  for (const auto& [name, scale] : specs) {
    egp::GeneratorOptions options;
    options.scale = scale;
    auto domain = egp::GenerateDomainByName(name, options);
    if (!domain.ok()) {
      *error = domain.status().ToString();
      return false;
    }
    const std::string path = dir + "/" + name + ".egps";
    const egp::Status written = egp::CompileSnapshotFile(domain->graph, path);
    if (!written.ok()) {
      *error = written.ToString();
      return false;
    }
    out->push_back({name, path});
  }
  return true;
}

// The in-process side: one Engine per dataset, built like the server's,
// behind a PreviewService of its own.
std::unique_ptr<egp::PreviewService> OpenInProcess(
    const std::vector<Dataset>& datasets, unsigned threads,
    std::string* error) {
  std::vector<std::pair<std::string, egp::Engine>> engines;
  egp::EngineOptions options;
  options.threads = threads;
  for (const Dataset& dataset : datasets) {
    auto stored = egp::OpenSnapshot(dataset.path);
    if (!stored.ok()) {
      *error = stored.status().ToString();
      return nullptr;
    }
    engines.emplace_back(dataset.name,
                         egp::Engine::FromFrozen(std::move(stored->graph),
                                                 std::move(stored->frozen),
                                                 options));
  }
  auto catalog = egp::DatasetCatalog::FromEngines(std::move(engines));
  if (!catalog.ok()) {
    *error = catalog.status().ToString();
    return nullptr;
  }
  return std::make_unique<egp::PreviewService>(std::move(catalog).value(),
                                               "perfbench");
}

// The reference for one request body: in-process Engine::Preview rendered
// by PreviewResponseToJson, volatile members stripped. Empty on error.
std::string Reference(const egp::DatasetCatalog& catalog,
                      const std::string& body, std::string* error) {
  const auto doc = egp::ParseJson(body);
  if (!doc.ok()) {
    *error = doc.status().ToString();
    return "";
  }
  const auto parsed = egp::ParsePreviewRequestJson(*doc);
  if (!parsed.ok()) {
    *error = parsed.status().ToString();
    return "";
  }
  const egp::Engine* engine = catalog.Find(parsed->dataset);
  if (engine == nullptr) {
    *error = "unknown dataset " + parsed->dataset;
    return "";
  }
  const auto response = engine->Preview(parsed->request);
  if (!response.ok()) {
    *error = response.status().ToString() + " for " + body;
    return "";
  }
  return StripVolatileMembers(egp::PreviewResponseToJson(
                                  *engine, parsed->dataset, *response,
                                  parsed->request.sample_rows > 0))
      .value_or("");
}

FailureTally::Outcome Check(bool transported, const HttpReply& reply,
                            const std::string& reference) {
  if (!transported) return FailureTally::Outcome::kTransport;
  if (reply.status < 200 || reply.status >= 300) {
    return FailureTally::Outcome::kStatus;
  }
  if (reference.empty() || !egp::ParseJson(reply.body).ok() ||
      !BodyMatchesReference(reply.body, reference)) {
    return FailureTally::Outcome::kBody;
  }
  return FailureTally::Outcome::kOk;
}

// ---------------------------------------------------------------------------
// Load

struct CallerLog {
  FailureTally tally;
  std::vector<double> latency;  // hot requests, from due (open) or send
  std::vector<double> service;  // hot requests, from send
  std::vector<double> late;     // open loop: send - due
  // Cold requests, verified after the window.
  std::vector<double> cold_latency;
  std::vector<std::string> cold_bodies;
  std::vector<HttpReply> cold_replies;
  std::vector<char> cold_transported;
  uint64_t hot_ok = 0;
  double cpu_seconds = 0.0;  // of the load generator's threads

  void Append(CallerLog&& other) {
    tally.Merge(other.tally);
    hot_ok += other.hot_ok;
    cpu_seconds += other.cpu_seconds;
    auto append = [](auto& into, auto& from) {
      into.insert(into.end(), std::make_move_iterator(from.begin()),
                  std::make_move_iterator(from.end()));
    };
    append(latency, other.latency);
    append(service, other.service);
    append(late, other.late);
    append(cold_latency, other.cold_latency);
    append(cold_bodies, other.cold_bodies);
    append(cold_replies, other.cold_replies);
    append(cold_transported, other.cold_transported);
  }
};

struct Load {
  const WorkloadPlan* plan = nullptr;
  const std::vector<std::string>* references = nullptr;
  std::vector<std::unique_ptr<HttpConn>> conns;
  std::vector<size_t> cursors;  // closed loop: next position per caller
  uint64_t cold_next = 0;       // next cold index of the run
};

void ClosedCaller(Load& load, int caller, double stop, CallerLog* log) {
  const WorkloadPlan& plan = *load.plan;
  const std::vector<size_t> order =
      CallerOrder(plan.seed, caller, plan.pool.size());
  HttpConn& conn = *load.conns[caller];
  HttpReply reply;
  while (Now() < stop) {
    const size_t index = order[load.cursors[caller]++ % order.size()];
    const double sent = Now();
    const bool transported =
        conn.Exchange("POST", "/v1/preview", plan.pool[index], &reply);
    const double done = Now();
    const auto outcome = Check(transported, reply, (*load.references)[index]);
    log->tally.Record(outcome);
    if (outcome == FailureTally::Outcome::kOk) {
      ++log->hot_ok;
      log->latency.push_back(done - sent);
      log->service.push_back(done - sent);
    }
  }
}

// Hot senders share one fixed-rate schedule; request i is due at
// start + i / rate whichever sender takes it.
void HotSender(Load& load, int caller, double start, uint64_t total,
               std::atomic<uint64_t>* next, CallerLog* log) {
  const WorkloadPlan& plan = *load.plan;
  const std::vector<size_t> order = CallerOrder(plan.seed, 0, plan.pool.size());
  HttpConn& conn = *load.conns[caller];
  HttpReply reply;
  for (uint64_t i = next->fetch_add(1); i < total; i = next->fetch_add(1)) {
    const size_t index = order[i % order.size()];
    const double due = start + static_cast<double>(i) / plan.hot_rate;
    SleepUntil(due);
    const double sent = Now();
    const bool transported =
        conn.Exchange("POST", "/v1/preview", plan.pool[index], &reply);
    const double done = Now();
    const auto outcome = Check(transported, reply, (*load.references)[index]);
    log->tally.Record(outcome);
    const DueTiming timing = TimeFromDue(due, sent, done);
    log->late.push_back(timing.late);
    if (outcome == FailureTally::Outcome::kOk) {
      ++log->hot_ok;
      log->latency.push_back(timing.latency);
      log->service.push_back(done - sent);
    }
  }
}

// Sends cold requests at `rate` from `start` until `stop`, or (rate 0)
// `count` of them back to back. Verification happens later.
void ColdSender(Load& load, int caller, double start, double stop,
                double rate, int count, CallerLog* log) {
  HttpConn& conn = *load.conns[caller];
  for (int j = 0;; ++j) {
    double due = Now();
    if (rate > 0) {
      due = start + (j + 0.5) / rate;
      if (due >= stop) break;
      SleepUntil(due);
    } else if (j >= count) {
      break;
    }
    const std::string body = ColdBody(load.plan->seed, load.cold_next++);
    HttpReply reply;
    const double sent = Now();
    const bool transported = conn.Exchange("POST", "/v1/preview", body, &reply);
    const double done = Now();
    log->cold_latency.push_back(TimeFromDue(due, sent, done).latency);
    log->cold_bodies.push_back(body);
    log->cold_replies.push_back(std::move(reply));
    log->cold_transported.push_back(transported ? 1 : 0);
  }
}

// Runs one phase of the workload for `seconds`; returns the merged log
// and the phase's wall time.
CallerLog RunPhase(Load& load, double seconds, bool with_cold,
                   double* elapsed) {
  const WorkloadPlan& plan = *load.plan;
  std::vector<CallerLog> logs(plan.connections);
  std::vector<std::thread> threads;
  const double start = Now() + 0.002;
  const double stop = start + seconds;
  std::atomic<uint64_t> next{0};
  auto spawn = [&](int c, auto body) {
    threads.emplace_back([&logs, c, body] {
      const double cpu = ThreadCpuSeconds();
      body();
      logs[c].cpu_seconds = ThreadCpuSeconds() - cpu;
    });
  };
  if (!plan.open_loop) {
    for (int c = 0; c < plan.connections; ++c) {
      spawn(c, [&, c] { ClosedCaller(load, c, stop, &logs[c]); });
    }
  } else {
    const uint64_t total = static_cast<uint64_t>(seconds * plan.hot_rate);
    for (int c = 0; c + 1 < plan.connections; ++c) {
      spawn(c, [&, c] { HotSender(load, c, start, total, &next, &logs[c]); });
    }
    if (with_cold) {
      const int c = plan.connections - 1;
      spawn(c, [&, c] {
        ColdSender(load, c, start, stop, plan.cold_rate, 0, &logs[c]);
      });
    }
  }
  for (std::thread& thread : threads) thread.join();
  *elapsed = Now() - start;
  CallerLog merged;
  for (CallerLog& log : logs) merged.Append(std::move(log));
  return merged;
}

// Verifies the cold replies of `log` against references built in-process
// on `threads` threads, recording each outcome in `log->tally`.
// Returns, per cold request, whether it passed.
std::vector<char> VerifyCold(const egp::DatasetCatalog& catalog, unsigned threads,
                    CallerLog* log, std::vector<std::string>* errors) {
  const size_t n = log->cold_bodies.size();
  std::vector<FailureTally::Outcome> outcomes(n);
  std::vector<std::string> errs(n);
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) {
        const std::string reference =
            Reference(catalog, log->cold_bodies[i], &errs[i]);
        outcomes[i] = Check(log->cold_transported[i] != 0,
                            log->cold_replies[i], reference);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  std::vector<char> passed(n);
  for (size_t i = 0; i < n; ++i) {
    log->tally.Record(outcomes[i]);
    passed[i] = outcomes[i] == FailureTally::Outcome::kOk;
    if (!errs[i].empty()) errors->push_back(errs[i]);
  }
  return passed;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, const FailureTally& tally,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed()) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", " : "") + JsonString(metrics[i].name) + ": {\"value\": " +
            value + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintTail(const char* name, const Tail& tail) {
  std::printf("note: %s is p%.2f of %zu samples\n", name, tail.pct, tail.count);
}

// ---------------------------------------------------------------------------
// The run

int Run(const Args& args) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() < 2) {
    std::fprintf(stderr, "perfbench: needs at least 2 CPUs, have %zu\n",
                 cpus.size());
    return 1;
  }
  const size_t half = cpus.size() / 2;
  const std::vector<int> server_cpus(cpus.begin(), cpus.begin() + half);
  const std::vector<int> client_cpus(cpus.begin() + half, cpus.end());
  if (!PinCurrentThread(client_cpus)) {
    std::fprintf(stderr, "perfbench: sched_setaffinity failed\n");
    return 1;
  }
  // Every CPU stays busy until the run ends (see IdleSpinners).
  const IdleSpinners spinners(cpus);
  const unsigned server_threads = static_cast<unsigned>(server_cpus.size());
  const unsigned client_threads = static_cast<unsigned>(client_cpus.size());

  WorkloadPlan plan;
  if (!MakePlan(args.workload, args.seed, static_cast<int>(client_threads),
                &plan)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "fingerprint {\"cpu_model\": %s, \"nproc\": %ld, \"allowed_cpus\": %zu, "
      "\"compiler\": %s, \"build_type\": %s, \"commit\": %s, "
      "\"server_cpus\": %s, \"client_cpus\": %s}\n",
      JsonString(CpuModel()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      cpus.size(), JsonString(compiler).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(args.commit).c_str(),
      JsonString(CpuList(server_cpus)).c_str(),
      JsonString(CpuList(client_cpus)).c_str());

  // Inputs: the datasets, and request lists derived from the seed only.
  const std::string input_dir =
      args.work + "/inputs-" + args.workload + "-" + std::to_string(args.seed);
  std::vector<Dataset> datasets;
  std::string error;
  if (!GenerateInputs(input_dir, &datasets, &error)) {
    std::fprintf(stderr, "perfbench: input generation failed: %s\n",
                 error.c_str());
    return 1;
  }
  struct RemoveInputs {
    std::string dir;
    ~RemoveInputs() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } remove_inputs{input_dir};

  const std::unique_ptr<egp::PreviewService> local =
      OpenInProcess(datasets, server_threads, &error);
  if (local == nullptr) {
    std::fprintf(stderr, "perfbench: in-process open failed: %s\n",
                 error.c_str());
    return 1;
  }
  std::vector<std::string> errors;
  std::vector<std::string> references;
  for (const std::string& body : plan.pool) {
    references.push_back(Reference(local->catalog(), body, &error));
    if (references.back().empty()) errors.push_back(error);
  }
  {
    double bytes = 0.0;
    for (const std::string& reference : references) bytes += reference.size();
    std::printf("note: %zu distinct hot requests, %.0f reference bytes each on "
                "average\n",
                references.size(), bytes / std::max<size_t>(1, references.size()));
  }
  std::vector<std::string> warmer_refs;
  for (const std::string& body : plan.warmers) {
    warmer_refs.push_back(Reference(local->catalog(), body, &error));
    if (warmer_refs.back().empty()) errors.push_back(error);
  }

  std::vector<std::string> server_args;
  for (const Dataset& dataset : datasets) {
    server_args.push_back("--dataset");
    server_args.push_back(dataset.name + "=" + dataset.path);
  }
  for (const std::string& flag :
       {std::string("--port"), std::string("0"), std::string("--workers"),
        std::to_string(server_threads), std::string("--engine-threads"),
        std::to_string(server_threads), std::string("--log-level"),
        std::string("warning")}) {
    server_args.push_back(flag);
  }

  // Set-up: spawn until every dataset is loaded and each hot measure
  // configuration has been served once. Repeated; the last one serves.
  FailureTally total;
  std::vector<double> setup_times;
  ServerProcess server;
  const int setups = args.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < setups; ++r) {
    if (r > 0) server.Stop();
    const double t0 = Now();
    if (!server.Start(args.server, server_args, server_cpus, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 1;
    }
    HttpConn conn(server.port());
    for (size_t w = 0; w < plan.warmers.size(); ++w) {
      HttpReply reply;
      const bool ok = conn.Exchange("POST", "/v1/preview", plan.warmers[w], &reply);
      total.Record(Check(ok, reply, warmer_refs[w]));
    }
    setup_times.push_back(Now() - t0);
  }

  Load load;
  load.plan = &plan;
  load.references = &references;
  for (int c = 0; c < plan.connections; ++c) {
    load.conns.push_back(std::make_unique<HttpConn>(server.port()));
  }
  load.cursors.assign(plan.connections, 0);

  double elapsed = 0.0;
  CallerLog warmup = RunPhase(load, kWarmupSeconds, false, &elapsed);
  total.Merge(warmup.tally);

  // The window is a series of short phases. Closed-loop workloads end
  // each phase with a few sequential cold requests to the otherwise idle
  // server, the traced run too, so its admission, cache and lock counters
  // see cold builds on every workload. Throughput and CPU per request are medians over the
  // phases, so a stretch in which the host ran slower moves them less;
  // latency percentiles are taken over every request of the window.
  HttpConn& control = *load.conns[0];
  std::map<std::string, double> before;
  if (args.trace) before = ScrapeMetrics(control);
  const int phases =
      std::max(1, static_cast<int>(std::lround(args.seconds / kPhaseSeconds)));
  struct PhaseStats {
    double elapsed = 0.0;
    double cpu = 0.0;
    uint64_t hot_ok = 0;
    size_t cold_begin = 0, cold_end = 0;
    double p50 = 0.0;
    Tail tail;
    double steal = 0.0;  // share of the machine's CPU time
  };
  std::vector<PhaseStats> phase_stats;
  CallerLog window;
  double window_seconds = 0.0;
  double client_cpu = 0.0;
  const double tick_cpus = static_cast<double>(sysconf(_SC_CLK_TCK)) *
                           static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  for (int phase = 0; phase < phases; ++phase) {
    PhaseStats stats;
    const double cpu_before = server.CpuSeconds();
    const double steal_before = StealTicks();
    const double phase_begin = Now();
    CallerLog log = RunPhase(load, args.seconds / phases, true, &stats.elapsed);
    client_cpu += log.cpu_seconds;
    window_seconds += stats.elapsed;
    stats.cpu = server.CpuSeconds() - cpu_before;
    stats.hot_ok = log.hot_ok;
    stats.p50 = Percentile(log.latency, 50.0);
    stats.tail = TailPercentile(log.latency, 99.0);
    stats.cold_begin = window.cold_bodies.size();
    window.Append(std::move(log));
    if (!plan.open_loop) {
      CallerLog probe;
      ColdSender(load, 0, 0, 0, 0, kColdProbePerPhase, &probe);
      window.Append(std::move(probe));
    }
    stats.cold_end = window.cold_bodies.size();
    stats.steal =
        (StealTicks() - steal_before) / (tick_cpus * (Now() - phase_begin));
    std::printf("phase %d: %llu ok in %.3f s, p50 %.4f ms, tail %.4f ms, "
                "server cpu %.3f s, steal %.2f%%\n",
                phase, static_cast<unsigned long long>(stats.hot_ok),
                stats.elapsed, stats.p50 * 1e3, stats.tail.value * 1e3,
                stats.cpu, stats.steal * 100);
    phase_stats.push_back(stats);
  }
  std::map<std::string, double> after;
  if (args.trace) after = ScrapeMetrics(control);
  const double rss_mb = server.PeakRssMb();
  // The load generator must not be the bottleneck: this is how busy its
  // cores were.
  std::printf("note: load generator used %.0f%% of its %u cores\n",
              100.0 * client_cpu / (window_seconds * client_threads),
              client_threads);
  if (plan.open_loop) {
    const Tail late = TailPercentile(window.late, 99.0);
    std::printf("note: the open-loop generator sent p%.2f of %zu hot requests "
                "at most %.4f ms late\n",
                late.pct, late.count, late.value * 1e3);
  }

  std::vector<double> healthz;
  if (args.trace) {
    for (int i = 0; i < 400; ++i) {
      HttpReply reply;
      const double t0 = Now();
      const bool ok = control.Exchange("GET", "/healthz", "", &reply);
      if (ok && reply.status == 200) healthz.push_back(Now() - t0);
    }
  }
  load.conns.clear();
  server.Stop();

  const std::vector<char> cold_ok =
      VerifyCold(local->catalog(), client_threads, &window, &errors);
  total.Merge(window.tally);

  std::printf("workload %s seed %llu: %llu attempted, %llu failed "
              "(transport %llu, status %llu, body %llu), failed_share %.6f\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed()),
              static_cast<unsigned long long>(total.transport_errors),
              static_cast<unsigned long long>(total.bad_status),
              static_cast<unsigned long long>(total.bad_body),
              total.failed_share());

  auto finish = [&](const std::vector<Metric>& metrics) {
    for (const std::string& e : errors) std::printf("error: %s\n", e.c_str());
    PrintResult(errors.empty() && total.bad_body == 0, total, metrics);
    return 0;
  };

  if (args.trace == 0) {
    std::vector<double> throughput, cpu_per_req, cold_latency, cold_slowest;
    double max_steal = 0.0;
    for (const PhaseStats& stats : phase_stats) {
      // Verified completions inside the phase; the closed loop's cold
      // probe follows the load and is not counted.
      double completions = static_cast<double>(stats.hot_ok);
      double slowest = 0.0;
      for (size_t c = stats.cold_begin; c < stats.cold_end; ++c) {
        if (plan.open_loop) completions += cold_ok[c];
        cold_latency.push_back(window.cold_latency[c]);
        slowest = std::max(slowest, window.cold_latency[c]);
      }
      if (stats.cold_end > stats.cold_begin) cold_slowest.push_back(slowest);
      throughput.push_back(completions / stats.elapsed);
      cpu_per_req.push_back(stats.cpu * 1e6 / std::max(1.0, completions));
      max_steal = std::max(max_steal, stats.steal);
    }
    const Tail hot_tail = TailPercentile(window.latency, 99.0);
    std::printf("note: throughput and CPU are medians over %d phases of "
                "%.2f s; hot latencies are taken over the whole window (CPU "
                "steal at most %.2f%% in a phase)\n",
                phases, args.seconds / phases, max_steal * 100);
    PrintTail("latency_p99_ms", hot_tail);
    std::printf("note: cold_p99_ms is the median over %zu phases of each "
                "phase's slowest of about %zu cold requests\n",
                cold_slowest.size(),
                cold_latency.size() / std::max<size_t>(1, cold_slowest.size()));
    return finish({
        {"throughput_rps", Median(throughput), "1/s"},
        {"latency_p50_ms", Median(window.latency) * 1e3, "ms"},
        {"latency_p99_ms", hot_tail.value * 1e3, "ms"},
        {"cold_p50_ms", Percentile(cold_latency, 50.0) * 1e3, "ms"},
        {"cold_p99_ms", Median(cold_slowest) * 1e3, "ms"},
        {"server_cpu_us_per_req", Median(cpu_per_req), "us"},
        {"server_rss_mb", rss_mb, "MiB"},
        {"ok_share",
         total.attempted ? static_cast<double>(total.ok) / total.attempted : 0.0,
         "share"},
        {"setup_s", Median(setup_times), "s"},
    });
  }

  // --- Traced run: per-layer numbers. ---
  auto delta = [&](const std::string& family, const std::string& label = "") {
    return MetricSum(after, family, label) - MetricSum(before, family, label);
  };
  const double hits = delta("egp_prepared_cache_hits_total");
  const double misses = delta("egp_prepared_cache_misses_total");
  const std::string site = "site=\"engine.prepared_cache\"";
  const double acquisitions = delta("egp_mutex_acquisitions_total", site);
  const double contentions = delta("egp_mutex_contentions_total", site);

  std::vector<double> open_ms[2];
  for (int trial = 0; trial < 5; ++trial) {
    for (size_t d = 0; d < datasets.size() && d < 2; ++d) {
      const double t0 = Now();
      const auto stored = egp::OpenSnapshot(datasets[d].path);
      open_ms[d].push_back((Now() - t0) * 1e3);
      if (!stored.ok()) errors.push_back(stored.status().ToString());
    }
  }

  // A fresh measure configuration on film: the build a cold request pays.
  std::vector<double> build_ms, nonkey_ms, distance_ms;
  const egp::Engine* film = local->catalog().Find("film");
  for (uint64_t trial = 0; trial < 7 && film != nullptr; ++trial) {
    const auto doc = egp::ParseJson(ColdBody(args.seed, kPrepareColdBase + trial));
    const auto parsed = egp::ParsePreviewRequestJson(*doc);
    const double t0 = Now();
    const auto prepared = film->Prepared(parsed->request.measures);
    build_ms.push_back((Now() - t0) * 1e3);
    if (!prepared.ok()) {
      errors.push_back(prepared.status().ToString());
      continue;
    }
    nonkey_ms.push_back((*prepared)->timings().nonkey_seconds * 1e3);
    distance_ms.push_back((*prepared)->timings().distance_seconds * 1e3);
  }

  // The replayed request list: the caller-0 cycle of the pool, with the
  // open loop's cold share interleaved.
  const std::vector<size_t> order = CallerOrder(plan.seed, 0, plan.pool.size());
  size_t count = 2 * plan.pool.size();
  size_t cold_every = 0;
  if (plan.open_loop) {
    cold_every = static_cast<size_t>(plan.hot_rate / plan.cold_rate);
    count = 2 * cold_every;
  }
  const ReplayStats replay = Replay(
      *local, count,
      [&](uint64_t round, size_t i) {
        if (cold_every && i % cold_every == cold_every - 1) {
          return ColdBody(plan.seed,
                          kReplayColdBase + round * 2 + i / cold_every);
        }
        return plan.pool[order[i % order.size()]];
      },
      std::clamp(args.seconds / 4, 1.0, 5.0));
  if (replay.mismatches) {
    errors.push_back(std::to_string(replay.mismatches) +
                     " replayed renders differ from Handle");
  }

  // Spans are kept in memory and written once, here.
  {
    std::ofstream spans(args.work + "/spans-" + args.workload + "-" +
                        std::to_string(args.seed) + ".tsv");
    spans << "name\trequest\tparent\tstart_ns\tend_ns\n";
    for (const Span& span : replay.spans) {
      spans << span.name << '\t' << span.request << '\t' << span.parent << '\t'
            << span.start_ns << '\t' << span.end_ns << '\n';
    }
  }

  const double handle_p50_us = Median(replay.handle_us);
  const double per_req = std::max<double>(1.0, replay.requests);
  const Tail discover_tail = TailPercentile(replay.discover_us, 99.0);
  PrintTail("discover.us_p99", discover_tail);
  std::printf("note: replay of %llu traced requests\n",
              static_cast<unsigned long long>(replay.requests));
  return finish({
      {"store.open_ms.basketball", Median(open_ms[0]), "ms"},
      {"store.open_ms.film", Median(open_ms[1]), "ms"},
      {"prepare.build_ms", Median(build_ms), "ms"},
      {"prepare.nonkey_ms", Median(nonkey_ms), "ms"},
      {"prepare.distance_ms", Median(distance_ms), "ms"},
      {"engine.cache_hits", hits, "count"},
      {"engine.cache_misses", misses, "count"},
      {"engine.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
       "ratio"},
      {"engine.cache_evictions", delta("egp_prepared_cache_evictions_total"),
       "count"},
      {"discover.us_p50", Median(replay.discover_us), "us"},
      {"discover.us_p99", discover_tail.value, "us"},
      {"discover.subsets_per_req", replay.subsets / per_req, "count"},
      {"sample.us_p50", Median(replay.sample_us), "us"},
      {"sample.values_per_req",
       replay.values / std::max<double>(1.0, replay.sampled_requests), "count"},
      {"render.us_p50", Median(replay.render_us), "us"},
      {"render.bytes_per_req", replay.bytes / per_req, "bytes"},
      {"parse.us_p50", Median(replay.parse_us), "us"},
      {"engine.lookup_us_p50", Median(replay.lookup_us), "us"},
      {"api.handle_us_p50", handle_p50_us, "us"},
      {"api.self_us_p50", Median(replay.api_self_us), "us"},
      {"transport.us_p50", Median(window.service) * 1e6 - handle_p50_us, "us"},
      {"transport.healthz_us_p50", Median(healthz) * 1e6, "us"},
      {"admission.hot", delta("egp_admission_hot_total"), "count"},
      {"admission.cold_admitted", delta("egp_admission_cold_admitted_total"),
       "count"},
      {"admission.cold_queued", delta("egp_admission_cold_queued_total"),
       "count"},
      {"admission.cold_shed", delta("egp_admission_cold_shed_total"), "count"},
      {"lock.engine_cache.acquisitions", acquisitions, "count"},
      {"lock.engine_cache.contentions", contentions, "count"},
      {"lock.engine_cache.contention_ratio",
       acquisitions > 0 ? contentions / acquisitions : 0.0, "ratio"},
      {"trace.overhead_pct",
       replay.untraced_seconds > 0
           ? (replay.traced_seconds / replay.untraced_seconds - 1.0) * 100.0
           : 0.0,
       "%"},
  });
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  return perfbench::Run(args);
}
