// Shared declarations of the canonical benchmark program (perfbench).
//
// One process generates a workload's data from a seed, serves it through
// an in-process AiqlServer on loopback, drives closed-loop client sessions
// over the wire protocol, and checks every reply against a reference
// computed in-process at set-up. See README.md in this directory.

#ifndef AIQL_PERFBENCH_BENCH_H_
#define AIQL_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/aiql_engine.h"
#include "engine/result.h"
#include "server/aiql_server.h"
#include "server/protocol.h"
#include "storage/database.h"
#include "storage/shard_map.h"
#include "storage/tiered.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds between two steady-clock points, fractional.
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// The fixed shape of one workload; everything else derives from the seed.
struct WorkloadSpec {
  std::string name;
  std::string scenario;  ///< "demo" (fig4 catalog) or "atc" (fig5 catalog)
  int hosts = 5;
  double events_per_host_per_hour = 20000;
  int hours = 6;
  size_t sessions = 1;
  size_t shards = 0;           ///< 0 for the cold (unsharded) store
  bool cold = false;           ///< fully demoted TieredStore
  double cache_fraction = 0;   ///< cold cache budget / all-hot footprint
  size_t write_reps = 0;       ///< measured write-phase replays (cold only)
};

/// Looks up a workload by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// One request of the closed-loop mix.
struct MixRequest {
  bool track = false;
  std::string id;    ///< catalog id, or "track"
  std::string text;  ///< AIQL text (queries)
  aiql::TrackCommand command;  ///< track requests
  size_t min_rows = 0;         ///< catalog ground-truth lower bound
  bool ordered = false;        ///< query has ORDER BY: compare row order
};

/// The reference answer to one request, computed in-process at set-up.
struct Expected {
  uint64_t fingerprint = 0;  ///< queries: hash of columns and rendered rows
  size_t rows = 0;
  size_t nodes = 0;  ///< tracks
  size_t edges = 0;
};

/// Compares a decoded reply to the reference. Returns an empty string when
/// it matches, otherwise a description of the mismatch.
std::string CheckReply(const MixRequest& request, const Expected& expected,
                       const aiql::Response& reply);

/// Which store serves requests; exactly one of the two is set for a
/// running workload.
struct Backend {
  const aiql::TieredStore* tiered = nullptr;
  const aiql::ShardMap* shards = nullptr;

  aiql::ReadView OpenView() const { return tiered->OpenReadView(); }
  const aiql::EntityStore& Entities(uint32_t shard) const {
    if (shards != nullptr) return shards->entities(shard);
    return tiered->db().entities();
  }
};

/// Timings of the write path of one replay (hot ingest or cold write).
struct WriteTimings {
  double append_us = 0;   ///< total time in AppendBatch calls
  size_t append_calls = 0;
  double seal_us = 0;     ///< total time in Seal calls
  double demote_us = 0;   ///< CompactOnce (cold only)
  double total_us = 0;    ///< append + seal + demote, wall clock
  uint64_t records = 0;
  uint64_t disk_bytes = 0;  ///< retention directory size (cold only)
};

/// A set-up workload: generated data, stores, reference answers and the
/// running server. Destruction stops the server before the stores die.
struct World {
  const WorkloadSpec* spec = nullptr;
  std::vector<MixRequest> mix;
  std::vector<Expected> expected;
  uint64_t records = 0;
  uint64_t all_hot_bytes = 0;  ///< sealed footprint of the all-hot store
  uint64_t cache_budget_bytes = 0;

  std::vector<aiql::EventRecord> replay;  ///< kept for the cold write phase
  std::vector<std::unique_ptr<aiql::AuditDatabase>> shard_dbs;
  aiql::ShardMap shard_map;
  std::unique_ptr<aiql::TieredStore> tiered;
  std::string tiered_dir;
  std::unique_ptr<aiql::AiqlServer> server;

  /// Sharded workload: the set-up replay into the all-hot store.
  WriteTimings ingest;

  Backend backend() const;
  ~World();
};

/// Generates the data, builds the stores, computes the reference answers
/// and (except for cold workloads, whose server starts over the store the
/// write phase builds) starts the server. Returns null and prints the
/// reason on failure.
std::unique_ptr<World> SetUp(const WorkloadSpec& spec, uint64_t seed);

/// Cold workloads: stops the server, deletes any previous store, then
/// replays the kept records into a fresh fully demoted TieredStore under
/// `dir`, which becomes the world's store on success.
bool WriteColdStore(World* world, const std::string& dir,
                    WriteTimings* timings);

/// Starts the server over the world's current stores.
bool StartServer(World* world);

/// Removes a retention directory and its files.
void RemoveDir(const std::string& dir);

// --- traced per-layer run --------------------------------------------------

/// Per-layer accumulators of a traced run (summed over requests).
struct LayerTotals {
  std::map<std::string, double> span_us;  ///< self time per span name
  size_t queries = 0;
  size_t tracks = 0;
  double request_us = 0;    ///< in-process traced request time
  double untraced_us = 0;   ///< same requests through AiqlEngine, untraced
  double wire_us = 0;       ///< wire round trip minus traced request time
  size_t wire_samples = 0;
  double reply_bytes = 0;
  uint64_t partitions_selected = 0;
  uint64_t events_scanned = 0;
  uint64_t events_matched = 0;
  uint64_t join_candidates = 0;
  uint64_t rows = 0;
  uint64_t threads_used = 0;
  uint64_t track_hops = 0;
  uint64_t track_events_inspected = 0;
  uint64_t track_partitions_selected = 0;
  size_t mismatches = 0;  ///< in-process replies differing from reference
  size_t failures = 0;    ///< requests that failed on either path

  void Add(const LayerTotals& other);
};

/// One recorded span, kept in memory for the trace file.
struct Span {
  uint64_t request = 0;
  const char* name = "";
  const char* parent = "";
  double start_us = 0;  ///< relative to the run's origin
  double end_us = 0;
};

/// Runs the request through each layer's public functions in the order
/// AiqlEngine::Dispatch / Track call them, timing a span around each call.
class Tracer {
 public:
  Tracer(const Backend& backend, Clock::time_point origin);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Traces one request in-process and accumulates into `totals`; returns
  /// the traced in-process time in microseconds (negative on failure).
  /// `request_id` is the session number in the high 32 bits and the
  /// request's number within the session below; the spans of each
  /// session's first requests are appended to `spans`.
  double Run(const MixRequest& request, const Expected& expected,
             uint64_t request_id, LayerTotals* totals,
             std::vector<Span>* spans);

  /// The same request through the engine facade with no spans; returns
  /// microseconds (negative on failure).
  double RunUntraced(const MixRequest& request);

 private:
  double TraceQuery(const MixRequest& request, const Expected& expected,
                    uint64_t request_id, LayerTotals* totals,
                    std::vector<Span>* spans);
  double TraceTrack(const MixRequest& request, const Expected& expected,
                    uint64_t request_id, LayerTotals* totals,
                    std::vector<Span>* spans);

  Backend backend_;
  Clock::time_point origin_;
  aiql::EngineOptions options_;
  std::unique_ptr<aiql::ThreadPool> pool_;
  std::unique_ptr<aiql::AiqlEngine> engine_;
};

}  // namespace perfbench

#endif  // AIQL_PERFBENCH_BENCH_H_
