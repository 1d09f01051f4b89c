// perfbench — the canonical end-to-end benchmark of the AIQL query server.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--results DIR] [--commit ID]
//             [--source-digest HEX]
//
// Closed loop: every client session waits for each reply before sending
// its next request. --trace 0 measures the end-to-end metrics; --trace 1
// runs the same sessions with each request first traced in-process layer
// by layer (trace.cc) and reports per-layer metrics. The last stdout line
// is one JSON object {correct, attempted, failed, metrics}; the exit code
// is non-zero when any reply differs from the reference.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/net.h"

namespace perfbench {
namespace {

using namespace aiql;

/// Resident set size of this process, in kB.
uint64_t RssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// Process user + system CPU time, in milliseconds.
double CpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

/// Set-up repetitions of an untraced run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Largest acceptable share of in-process request time outside any span.
constexpr double kMaxUnattributedShare = 0.10;
/// Mismatch descriptions kept for the report.
constexpr size_t kKeptProblems = 8;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string workdir = ".bench_build/work";
  std::string results;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--results") {
      args->results = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      std::fprintf(stderr, "bad number for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (FindWorkload(args->workload) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; one of:",
                 args->workload.c_str());
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return false;
  }
  if (args->seconds < 1 || args->seconds > 600 ||
      (args->trace != 0 && args->trace != 1)) {
    std::fprintf(stderr, "--seconds must be 1..600 and --trace 0 or 1\n");
    return false;
  }
  return true;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Nearest-rank percentile of `sorted` (ascending), p in (0, 1].
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * sorted.size()));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// A reported metric: name, value, unit, and (for timings) sample count.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

// --- client sessions -------------------------------------------------------

/// One completed wire request.
struct Sample {
  double at_s = 0;  ///< completion time since the measured phase started
  double ms = 0;    ///< frame write to decoded reply
  bool track = false;
};

struct SessionResult {
  std::vector<Sample> samples;
  size_t attempted = 0;
  size_t completed = 0;
  size_t errors = 0;     ///< error replies other than admission refusals
  size_t refused = 0;    ///< kResourceExhausted admission refusals
  size_t transport = 0;  ///< connect / frame write / frame read failures
  size_t wrong = 0;      ///< replies differing from the reference
  size_t warmup_failures = 0;
  std::vector<std::string> problems;
  LayerTotals layers;
  std::vector<Span> spans;

  void Problem(const std::string& what) {
    if (problems.size() < kKeptProblems) problems.push_back(what);
  }
};

/// Shared state of one measured phase.
struct Phase {
  const World* world = nullptr;
  uint16_t port = 0;
  Tracer* tracer = nullptr;  ///< set for traced runs
  std::latch* ready = nullptr;
  std::shared_future<Clock::time_point> go;  ///< yields the start time
  double seconds = 0;                        ///< measured duration
};

Status Exchange(Connection* conn, const std::string& frame, Response* reply) {
  AIQL_RETURN_IF_ERROR(conn->WriteFrame(frame));
  AIQL_ASSIGN_OR_RETURN(std::string payload, conn->ReadFrame());
  AIQL_ASSIGN_OR_RETURN(*reply, DecodeResponse(payload));
  return Status::OK();
}

Result<Connection> OpenSession(const Phase& phase) {
  AIQL_ASSIGN_OR_RETURN(Connection conn, ConnectTo("127.0.0.1", phase.port));
  Response reply;
  AIQL_RETURN_IF_ERROR(Exchange(&conn, EncodeHello(), &reply));
  if (reply.type != MsgType::kHelloOk) {
    return Status::Internal("handshake refused: " + reply.error.ToString());
  }
  if (phase.world->spec->shards > 0) {
    // Sharded-strict: any shard failure fails the query.
    AIQL_RETURN_IF_ERROR(
        Exchange(&conn, EncodeSetOption("partial", "off"), &reply));
    if (reply.type != MsgType::kOptionOk) {
      return Status::Internal("partial off refused: " +
                              reply.error.ToString());
    }
  }
  return conn;
}

void RunSession(const Phase& phase, size_t session, size_t offset,
                SessionResult* out) {
  const World& world = *phase.world;
  const size_t n = world.mix.size();
  std::vector<std::string> frames;
  for (const MixRequest& request : world.mix) {
    frames.push_back(request.track
                         ? EncodeTrack(request.command)
                         : EncodeTextRequest(MsgType::kQuery, request.text));
  }
  auto conn = OpenSession(phase);
  bool connected = conn.ok();
  if (!connected) {
    out->Problem("connect: " + conn.status().ToString());
    ++out->warmup_failures;
  }

  // One unmeasured pass warms caches and checks every reply once.
  for (size_t k = 0; connected && k < n; ++k) {
    size_t i = (offset + k) % n;
    Response reply;
    Status status = Exchange(&*conn, frames[i], &reply);
    std::string problem = status.ok()
                              ? CheckReply(world.mix[i], world.expected[i],
                                           reply)
                              : status.ToString();
    if (!problem.empty()) {
      ++out->warmup_failures;
      out->Problem("warm-up " + world.mix[i].id + ": " + problem);
    }
  }
  phase.ready->count_down();
  Clock::time_point origin = phase.go.get();
  Clock::time_point deadline =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(phase.seconds));
  if (!connected) return;

  for (uint64_t k = 0; Clock::now() < deadline; ++k) {
    size_t i = (offset + k) % n;
    const MixRequest& request = world.mix[i];
    // The measured wire round trip; false when the session is lost.
    double wire_ms = -1;
    auto wire = [&]() -> bool {
      ++out->attempted;
      auto start = Clock::now();
      Status sent = conn->WriteFrame(frames[i]);
      Result<std::string> payload =
          sent.ok() ? conn->ReadFrame() : Result<std::string>(sent);
      Result<Response> decoded =
          payload.ok() ? DecodeResponse(*payload)
                       : Result<Response>(payload.status());
      auto end = Clock::now();
      double ms = MicrosBetween(start, end) / 1e3;
      if (!payload.ok()) {
        ++out->transport;
        out->Problem(request.id + ": " + payload.status().ToString());
        conn = OpenSession(phase);  // one reconnect; give up if it fails
        return conn.ok();
      }
      if (!decoded.ok()) {
        ++out->errors;  // the server sent bytes that do not decode
        out->Problem(request.id + ": " + decoded.status().ToString());
        return true;
      }
      const Response& reply = *decoded;
      if (reply.type == MsgType::kError &&
          reply.error.code() == StatusCode::kResourceExhausted) {
        ++out->refused;
        return true;
      }
      std::string problem = CheckReply(request, world.expected[i], reply);
      if (!problem.empty()) {
        ++(reply.type == MsgType::kError ? out->errors : out->wrong);
        out->Problem(request.id + ": " + problem);
        return true;
      }
      ++out->completed;
      out->samples.push_back(
          Sample{MicrosBetween(origin, end) / 1e6, ms, request.track});
      wire_ms = ms;
      return true;
    };
    if (phase.tracer == nullptr) {
      if (!wire()) return;
      continue;
    }

    // Traced run: the request runs three ways, traced in-process,
    // untraced in-process and over the wire. The order rotates every pass
    // so each path is first (and so pays cold-cache costs) equally often.
    double traced_us = -1, untraced_us = -1;
    auto traced = [&] {
      traced_us = phase.tracer->Run(request, world.expected[i],
                                    (uint64_t{session} << 32) | k,
                                    &out->layers, &out->spans);
    };
    auto untraced = [&] { untraced_us = phase.tracer->RunUntraced(request); };
    bool alive = true;
    switch ((k / n) % 3) {
      case 0:
        untraced();
        traced();
        alive = wire();
        break;
      case 1:
        traced();
        alive = wire();
        untraced();
        break;
      default:
        alive = wire();
        untraced();
        traced();
        break;
    }
    if (untraced_us >= 0) {
      out->layers.untraced_us += untraced_us;
    } else {
      ++out->layers.failures;
    }
    if (traced_us >= 0 && wire_ms >= 0) {
      out->layers.wire_us += wire_ms * 1e3 - traced_us;
      ++out->layers.wire_samples;
    }
    if (!alive) return;
  }
}

/// Samples peak RSS (and, for cold stores, peak cache charge) until
/// destroyed.
class Sampler {
 public:
  explicit Sampler(const TieredStore* tiered)
      : tiered_(tiered), thread_([this] { Loop(); }) {}
  ~Sampler() {
    stop_.store(true);
    thread_.join();
  }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  uint64_t peak_rss_kb() const { return peak_rss_kb_.load(); }
  uint64_t peak_charged_bytes() const { return peak_charged_.load(); }

 private:
  void Measure() {
    uint64_t rss = RssKb();
    if (rss > peak_rss_kb_.load()) peak_rss_kb_.store(rss);
    if (tiered_ != nullptr) {
      uint64_t charged = tiered_->cache()->stats().charged_bytes;
      if (charged > peak_charged_.load()) peak_charged_.store(charged);
    }
  }
  void Loop() {
    while (!stop_.load()) {
      Measure();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    Measure();
  }

  const TieredStore* tiered_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> peak_rss_kb_{0};
  std::atomic<uint64_t> peak_charged_{0};
  std::thread thread_;  // declared last: starts after the fields above
};

struct PhaseResult {
  SessionResult total;
  double elapsed_s = 0;
  /// (seconds since the phase started, process CPU ms), every 10 ms.
  std::vector<std::pair<double, double>> cpu_series;
  /// Share of machine CPU time stolen by the hypervisor during the phase
  /// (a diagnostic of interference from outside the process).
  double steal_share = 0;
};

/// Machine-wide (total, steal) CPU ticks from /proc/stat.
std::pair<double, double> StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double total = 0, steal = 0, value = 0;
  stat >> cpu;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {total, steal};
}

/// Runs the world's sessions for `seconds` of measured time.
PhaseResult RunPhase(const World& world, double seconds, Tracer* tracer,
                     uint64_t seed) {
  const size_t sessions = world.spec->sessions;
  std::latch ready(static_cast<std::ptrdiff_t>(sessions));
  std::promise<Clock::time_point> go;
  Phase phase;
  phase.world = &world;
  phase.port = world.server->port();
  phase.tracer = tracer;
  phase.ready = &ready;
  phase.go = go.get_future().share();
  phase.seconds = seconds;

  // Sessions start at seed-chosen, evenly spread points of the mix so
  // concurrent sessions do not run the same query in lockstep.
  std::mt19937_64 rng(seed);
  size_t base = rng() % world.mix.size();
  std::vector<SessionResult> results(sessions);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < sessions; ++s) {
    size_t offset = (base + s * world.mix.size() / sessions) % world.mix.size();
    threads.emplace_back([&phase, s, offset, out = &results[s]] {
      RunSession(phase, s, offset, out);
    });
  }
  ready.wait();
  PhaseResult out;
  auto steal_start = StealTicks();
  auto start = Clock::now();
  out.cpu_series.emplace_back(0.0, CpuMs());
  go.set_value(start);
  std::atomic<bool> done{false};
  std::thread cpu_sampler([&] {
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      out.cpu_series.emplace_back(MicrosBetween(start, Clock::now()) / 1e6,
                                  CpuMs());
    }
  });
  for (std::thread& thread : threads) thread.join();
  done.store(true);
  cpu_sampler.join();
  out.elapsed_s = MicrosBetween(start, Clock::now()) / 1e6;
  out.cpu_series.emplace_back(out.elapsed_s, CpuMs());
  auto steal_end = StealTicks();
  if (steal_end.first > steal_start.first) {
    out.steal_share = (steal_end.second - steal_start.second) /
                      (steal_end.first - steal_start.first);
  }
  for (SessionResult& r : results) {
    SessionResult& t = out.total;
    t.samples.insert(t.samples.end(), r.samples.begin(), r.samples.end());
    t.attempted += r.attempted;
    t.completed += r.completed;
    t.errors += r.errors;
    t.refused += r.refused;
    t.transport += r.transport;
    t.wrong += r.wrong;
    t.warmup_failures += r.warmup_failures;
    for (const std::string& p : r.problems) t.Problem(p);
    t.layers.Add(r.layers);
    t.spans.insert(t.spans.end(), r.spans.begin(), r.spans.end());
  }
  return out;
}

/// Wall-clock and CPU metrics of a phase. Each is computed per time window
/// and reported as the quartile of the windows on the good side: the lower
/// quartile of latencies and CPU per request, the upper quartile of
/// throughput. Other tenants of a shared machine only ever slow the
/// program, so a burst of their work that covers less than three quarters
/// of the run does not move the figure; a change to the program moves every
/// window.
struct WindowedMetrics {
  size_t fine_windows = 0;    ///< query p50, throughput, CPU per request
  size_t coarse_windows = 0;  ///< query p99, track p50
  double query_p50_ms = 0;
  double query_p99_ms = 0;
  double track_p50_ms = 0;
  double throughput_rps = 0;
  double cpu_ms_per_request = 0;
  size_t query_samples = 0;
  size_t track_samples = 0;
  std::vector<double> window_rps;  ///< per fine window, for the report
};

/// Fewest query samples in a window whose p99 is taken, so at least 10
/// samples lie beyond it, and in one whose p50 is taken.
constexpr size_t kCoarseWindowQueries = 1000;
constexpr size_t kFineWindowQueries = 250;
constexpr size_t kMaxWindows = 60;

double CpuAt(const std::vector<std::pair<double, double>>& series, double t) {
  auto it = std::lower_bound(
      series.begin(), series.end(), t,
      [](const std::pair<double, double>& p, double v) { return p.first < v; });
  if (it == series.end()) return series.back().second;
  if (it == series.begin()) return it->second;
  auto prev = it - 1;
  double span = it->first - prev->first;
  double w = span > 0 ? (t - prev->first) / span : 0;
  return prev->second + w * (it->second - prev->second);
}

/// Latencies (ms) of the phase's samples, split into `count` equal time
/// windows; `track` selects track or query samples.
std::vector<std::vector<double>> SplitWindows(const PhaseResult& phase,
                                              size_t count, bool track) {
  std::vector<std::vector<double>> out(count);
  double width = phase.elapsed_s / static_cast<double>(count);
  for (const Sample& s : phase.total.samples) {
    if (s.track != track) continue;
    out[std::min(count - 1, static_cast<size_t>(s.at_s / width))].push_back(
        s.ms);
  }
  for (std::vector<double>& window : out) {
    std::sort(window.begin(), window.end());
  }
  return out;
}

/// Percentile `p` of each non-empty window.
std::vector<double> WindowPercentiles(
    const std::vector<std::vector<double>>& windows, double p) {
  std::vector<double> out;
  for (const std::vector<double>& window : windows) {
    if (!window.empty()) out.push_back(Percentile(window, p));
  }
  return out;
}

/// The lower (`p` = 0.25) or upper (0.75) quartile of `values`.
double Quartile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return Percentile(values, p);
}

WindowedMetrics ComputeWindows(const PhaseResult& phase) {
  WindowedMetrics out;
  for (const Sample& s : phase.total.samples) {
    ++(s.track ? out.track_samples : out.query_samples);
  }
  auto windows_of = [&](size_t min_queries) {
    return std::clamp<size_t>(out.query_samples / min_queries, 1,
                              kMaxWindows);
  };
  out.fine_windows = windows_of(kFineWindowQueries);
  out.coarse_windows = windows_of(kCoarseWindowQueries);

  auto fine = SplitWindows(phase, out.fine_windows, false);
  auto fine_tracks = SplitWindows(phase, out.fine_windows, true);
  auto coarse = SplitWindows(phase, out.coarse_windows, false);
  auto coarse_tracks = SplitWindows(phase, out.coarse_windows, true);

  double width = phase.elapsed_s / static_cast<double>(out.fine_windows);
  std::vector<double> cpu;
  for (size_t w = 0; w < out.fine_windows; ++w) {
    double count = static_cast<double>(fine[w].size() + fine_tracks[w].size());
    out.window_rps.push_back(count / width);
    double a = width * static_cast<double>(w);
    if (count > 0) {
      cpu.push_back((CpuAt(phase.cpu_series, a + width) -
                     CpuAt(phase.cpu_series, a)) /
                    count);
    }
  }
  out.query_p50_ms = Quartile(WindowPercentiles(fine, 0.50), 0.25);
  out.query_p99_ms = Quartile(WindowPercentiles(coarse, 0.99), 0.25);
  out.track_p50_ms = Quartile(WindowPercentiles(coarse_tracks, 0.50), 0.25);
  out.throughput_rps = Quartile(out.window_rps, 0.75);
  out.cpu_ms_per_request = Quartile(cpu, 0.25);
  return out;
}

// --- output ------------------------------------------------------------------

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("  %-32s %14.4f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

/// {"name": {"value": v, "unit": u[, "samples": n]}, ...}
std::string MetricsJson(const std::vector<Metric>& metrics,
                        bool with_samples) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "" : ", ") + JsonString(m.name) +
           ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

std::string ConfigJson(const Args& args, const World& world) {
  const WorkloadSpec& spec = *world.spec;
  std::string out = "{";
  out += "\"workload\": " + JsonString(spec.name);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"scenario\": " + JsonString(spec.scenario);
  out += ", \"hosts\": " + std::to_string(spec.hosts);
  out += ", \"events_per_host_per_hour\": " +
         JsonNumber(spec.events_per_host_per_hour);
  out += ", \"hours\": " + std::to_string(spec.hours);
  out += ", \"records\": " + std::to_string(world.records);
  out += ", \"mix_requests\": " + std::to_string(world.mix.size());
  out += ", \"sessions\": " + std::to_string(spec.sessions);
  out += ", \"shards\": " + std::to_string(spec.shards);
  out += ", \"cold\": " + std::string(spec.cold ? "true" : "false");
  out += ", \"cache_fraction\": " + JsonNumber(spec.cache_fraction);
  out += ", \"cache_budget_bytes\": " +
         std::to_string(world.cache_budget_bytes);
  out += ", \"write_reps\": " + std::to_string(spec.write_reps);
  out += ", \"setup_reps\": " + std::to_string(args.trace ? 1 : kSetupReps);
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"commit\": " + JsonString(args.commit);
  out += ", \"source_digest\": " + JsonString(args.source_digest);
  out += ", \"run_seconds\": " + std::to_string(args.seconds);
  out += ", \"trace\": " + std::to_string(args.trace);
  return out + "}";
}

void WriteResultFile(const Args& args, const World& world,
                     const std::vector<Metric>& metrics, bool correct,
                     size_t attempted, size_t failed) {
  if (args.results.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(args.results, ec);
  std::string path = args.results + "/" + world.spec->name + "-seed" +
                     std::to_string(args.seed) + "-trace" +
                     std::to_string(args.trace) + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\"config\": %s,\n \"correct\": %s, \"attempted\": %zu, "
               "\"failed\": %zu,\n \"metrics\": %s}\n",
               ConfigJson(args, world).c_str(), correct ? "true" : "false",
               attempted, failed, MetricsJson(metrics, true).c_str());
  std::fclose(f);
  std::printf("result file: %s\n", path.c_str());
}

void WriteTraceFile(const Args& args, const World& world,
                    const std::vector<Span>& spans) {
  if (args.results.empty()) return;
  std::string path = args.results + "/trace-" + world.spec->name + "-seed" +
                     std::to_string(args.seed) + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n {\"request\": %llu, \"name\": \"%s\", \"parent\": "
                 "\"%s\", \"start_us\": %.3f, \"end_us\": %.3f}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.request),
                 s.name, s.parent, s.start_us, s.end_us);
  }
  std::fprintf(f, "\n]\n");
  std::fclose(f);
  std::printf("trace file: %s (%zu spans)\n", path.c_str(), spans.size());
}

/// The last stdout line, read by tools.
void PrintSummaryLine(bool correct, size_t attempted, size_t failed,
                      const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": " + MetricsJson(metrics, false) + "}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

bool ReportPhase(const PhaseResult& phase, size_t* attempted,
                 size_t* failed) {
  const SessionResult& t = phase.total;
  *attempted = t.attempted;
  *failed = t.errors + t.refused + t.transport + t.wrong;
  std::printf("requests: %zu attempted, %zu completed, %zu errors, "
              "%zu refused, %zu transport failures, %zu wrong results; "
              "error_rate %.6f\n",
              t.attempted, t.completed, t.errors, t.refused, t.transport,
              t.wrong,
              t.attempted == 0 ? 0.0
                               : static_cast<double>(*failed) /
                                     static_cast<double>(t.attempted));
  for (const std::string& p : t.problems) std::printf("  problem: %s\n", p.c_str());
  bool correct = t.wrong == 0 && t.errors == 0 && t.warmup_failures == 0 &&
                 t.completed > 0;
  if (!correct) std::printf("CORRECTNESS CHECK FAILED\n");
  return correct;
}

// --- the two kinds of run ----------------------------------------------------

int RunUntraced(const Args& args, const WorkloadSpec& spec) {
  std::vector<double> setup_s, ingest_rates;
  std::unique_ptr<World> world;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    world.reset();
    auto start = Clock::now();
    world = SetUp(spec, args.seed);
    if (world == nullptr) return 1;
    setup_s.push_back(MicrosBetween(start, Clock::now()) / 1e6);
    if (!spec.cold) {
      ingest_rates.push_back(static_cast<double>(world->ingest.records) /
                             (world->ingest.total_us / 1e6));
    }
  }
  std::printf("workload %s seed %llu: %llu records, %zu requests per pass, "
              "%zu session(s)\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(world->records),
              world->mix.size(), spec.sessions);

  // Measured phase: the cold write phase (if any), then `seconds` of
  // sessions.
  std::unique_ptr<Sampler> sampler = std::make_unique<Sampler>(nullptr);
  for (size_t rep = 0; rep < spec.write_reps; ++rep) {
    WriteTimings timings;
    if (!WriteColdStore(world.get(),
                        args.workdir + "/store-" + std::to_string(rep),
                        &timings)) {
      return 1;
    }
    ingest_rates.push_back(static_cast<double>(timings.records) /
                           (timings.total_us / 1e6));
  }
  if (spec.cold && !StartServer(world.get())) return 1;
  PhaseResult phase = RunPhase(*world, args.seconds, nullptr, args.seed);
  uint64_t peak_rss_kb = sampler->peak_rss_kb();
  sampler.reset();

  WindowedMetrics windowed = ComputeWindows(phase);
  std::vector<Metric> metrics = {
      {"query_p50_ms", windowed.query_p50_ms, "ms", windowed.query_samples},
      {"query_p99_ms", windowed.query_p99_ms, "ms", windowed.query_samples},
      {"track_p50_ms", windowed.track_p50_ms, "ms", windowed.track_samples},
      {"throughput_rps", windowed.throughput_rps, "1/s",
       phase.total.completed},
      {"cpu_ms_per_request", windowed.cpu_ms_per_request, "ms",
       phase.total.completed},
      {"rss_mb", static_cast<double>(peak_rss_kb) / 1024.0, "MB", 0},
      {"setup_s", Median(setup_s), "s", setup_s.size()},
  };
  size_t attempted = 0, failed = 0;
  bool correct = ReportPhase(phase, &attempted, &failed);
  if (windowed.query_samples < kCoarseWindowQueries) {
    std::printf("note: %zu query samples; p99 has fewer than 10 beyond it\n",
                windowed.query_samples);
  }
  std::printf("config: %s\n", ConfigJson(args, *world).c_str());
  std::printf("set-up per rep (s):");
  for (double v : setup_s) std::printf(" %.3f", v);
  std::printf("\ningest per rep (1/s):");
  for (double v : ingest_rates) std::printf(" %.0f", v);
  // Not in the result line: the write path's records/s varies by a
  // per-process factor of up to +-20% on a shared 4-vCPU VM, too close to
  // the largest regression bound to gate on. The traced run reports it.
  std::printf("\ningest_rec_per_s (median; reported, not gated): %.0f",
              Median(ingest_rates));
  std::printf("\nCPU time stolen by the hypervisor during the sessions: "
              "%.1f%%\n",
              100.0 * phase.steal_share);
  std::printf("throughput per window (1/s):");
  for (double rps : windowed.window_rps) std::printf(" %.0f", rps);
  std::printf("\nend-to-end metrics (%.2f s measured; each the good-side "
              "quartile over time windows: %zu for query p50, throughput "
              "and CPU, %zu for query p99 and track p50):\n",
              phase.elapsed_s, windowed.fine_windows,
              windowed.coarse_windows);
  PrintMetrics(metrics);
  WriteResultFile(args, *world, metrics, correct, attempted, failed);
  world.reset();
  PrintSummaryLine(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

int RunTraced(const Args& args, const WorkloadSpec& spec) {
  std::unique_ptr<World> world = SetUp(spec, args.seed);
  if (world == nullptr) return 1;
  WriteTimings writes = world->ingest;
  if (spec.cold) {
    writes = WriteTimings{};
    if (!WriteColdStore(world.get(), args.workdir + "/store-traced",
                        &writes) ||
        !StartServer(world.get())) {
      return 1;
    }
  }
  const TieredStore* tiered = world->tiered.get();
  RetentionStats before = tiered != nullptr ? tiered->stats()
                                            : RetentionStats{};
  ServerCounters counters_before = world->server->stats();
  auto origin = Clock::now();
  Tracer tracer(world->backend(), origin);
  auto sampler = std::make_unique<Sampler>(tiered);
  PhaseResult phase = RunPhase(*world, args.seconds, &tracer, args.seed);
  uint64_t peak_charged = sampler->peak_charged_bytes();
  sampler.reset();
  RetentionStats after = tiered != nullptr ? tiered->stats()
                                           : RetentionStats{};
  ServerCounters counters_after = world->server->stats();

  const LayerTotals& l = phase.total.layers;
  double q = static_cast<double>(std::max<size_t>(1, l.queries));
  double t = static_cast<double>(std::max<size_t>(1, l.tracks));
  double all = static_cast<double>(std::max<size_t>(1, l.queries + l.tracks));
  auto span = [&](const char* name) {
    auto it = l.span_us.find(name);
    return it == l.span_us.end() ? 0.0 : it->second;
  };
  uint64_t hits = after.cache.hits - before.cache.hits;
  uint64_t misses = after.cache.misses - before.cache.misses;
  double unattributed =
      l.request_us > 0 ? span("request") / l.request_us : 1.0;
  std::vector<Metric> metrics = {
      {"query.parse_us", span("parse") / q, "us", l.queries},
      {"query.analyze_us", span("analyze") / q, "us", l.queries},
      {"storage.view_us", span("view") / all, "us", l.queries + l.tracks},
      {"storage.select_us", span("select") / q, "us", l.queries},
      {"storage.partitions_selected",
       static_cast<double>(l.partitions_selected) / q, "count", 0},
      {"storage.cache_hit_ratio",
       hits + misses == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(hits + misses),
       "ratio", 0},
      {"storage.cache_evictions",
       static_cast<double>(after.cache.evictions - before.cache.evictions),
       "count", 0},
      {"storage.reopens", static_cast<double>(after.reopens - before.reopens),
       "count", 0},
      {"storage.cache_charged_mb",
       static_cast<double>(peak_charged) / (1024.0 * 1024.0), "MB", 0},
      {"storage.ingest_rec_per_s",
       writes.total_us > 0
           ? static_cast<double>(writes.records) / (writes.total_us / 1e6)
           : 0.0,
       "1/s", 1},
      {"storage.append_us",
       writes.append_calls == 0
           ? 0.0
           : writes.append_us / static_cast<double>(writes.append_calls),
       "us", writes.append_calls},
      {"storage.seal_us", writes.seal_us, "us", 0},
      {"storage.demote_rec_per_s",
       writes.demote_us > 0
           ? static_cast<double>(writes.records) / (writes.demote_us / 1e6)
           : 0.0,
       "1/s", 0},
      {"storage.disk_bytes_per_event",
       writes.records == 0 ? 0.0
                           : static_cast<double>(writes.disk_bytes) /
                                 static_cast<double>(writes.records),
       "B", 0},
      {"engine.execute_us", span("execute") / q, "us", l.queries},
      {"engine.events_scanned", static_cast<double>(l.events_scanned) / q,
       "count", 0},
      {"engine.events_matched", static_cast<double>(l.events_matched) / q,
       "count", 0},
      {"engine.join_candidates", static_cast<double>(l.join_candidates) / q,
       "count", 0},
      {"engine.rows_per_kscanned",
       l.events_scanned == 0 ? 0.0
                             : 1000.0 * static_cast<double>(l.rows) /
                                   static_cast<double>(l.events_scanned),
       "ratio", 0},
      {"engine.threads_used", static_cast<double>(l.threads_used) / q,
       "count", 0},
      {"engine.track_us", span("track") / t, "us", l.tracks},
      {"engine.track_hops", static_cast<double>(l.track_hops) / t, "count",
       0},
      {"engine.track_events_inspected",
       static_cast<double>(l.track_events_inspected) / t, "count", 0},
      {"engine.track_partitions_selected",
       static_cast<double>(l.track_partitions_selected) / t, "count", 0},
      {"server.encode_us", span("encode") / all, "us", l.queries + l.tracks},
      {"server.decode_us", span("decode") / all, "us", l.queries + l.tracks},
      {"server.reply_bytes", l.reply_bytes / all, "B", 0},
      {"server.wire_us",
       l.wire_us / static_cast<double>(std::max<size_t>(1, l.wire_samples)),
       "us", l.wire_samples},
      {"server.refused",
       static_cast<double>(counters_after.queries_rejected -
                           counters_before.queries_rejected),
       "count", 0},
      {"trace.overhead_us", (l.request_us - l.untraced_us) / all, "us",
       l.queries + l.tracks},
      {"trace.unattributed_share", unattributed, "ratio", 0},
  };

  size_t attempted = 0, failed = 0;
  bool correct = ReportPhase(phase, &attempted, &failed);
  if (l.mismatches > 0 || l.failures > 0) {
    std::printf("in-process traced path: %zu mismatches, %zu failures\n",
                l.mismatches, l.failures);
    correct = false;
  }
  bool spans_add_up = unattributed <= kMaxUnattributedShare;
  std::printf("config: %s\n", ConfigJson(args, *world).c_str());
  std::printf("per-layer self time per request (%zu queries, %zu tracks, "
              "%.2f s):\n",
              l.queries, l.tracks, phase.elapsed_s);
  for (const auto& [name, us] : l.span_us) {
    std::printf("  %-14s %12.2f us/request  %6.2f%% of in-process time\n",
                name == "request" ? "(outside spans)" : name.c_str(),
                us / all,
                l.request_us > 0 ? 100.0 * us / l.request_us : 0.0);
  }
  std::printf("span check: layer self times sum to %.2f of %.2f us/request "
              "in-process; %.2f%% outside any layer span (limit %.0f%%): "
              "%s\n",
              (l.request_us - span("request")) / all, l.request_us / all,
              100.0 * unattributed, 100.0 * kMaxUnattributedShare,
              spans_add_up ? "PASS" : "FAIL");
  std::printf("tracing overhead: traced %.2f us/request - untraced %.2f "
              "us/request = %.2f us/request\n",
              l.request_us / all, l.untraced_us / all,
              (l.request_us - l.untraced_us) / all);
  if (!spans_add_up) correct = false;
  std::printf("per-layer metrics:\n");
  PrintMetrics(metrics);
  WriteResultFile(args, *world, metrics, correct, attempted, failed);
  WriteTraceFile(args, *world, phase.total.spans);
  PrintSummaryLine(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  const perfbench::WorkloadSpec& spec = *perfbench::FindWorkload(args.workload);
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  int code = args.trace == 0 ? perfbench::RunUntraced(args, spec)
                             : perfbench::RunTraced(args, spec);
  perfbench::RemoveDir(args.workdir);
  return code;
}
