// Workload definitions, data generation, stores and reference answers.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "common/time_utils.h"
#include "simulator/queries_a.h"
#include "simulator/queries_c.h"
#include "simulator/scenario.h"

namespace perfbench {

using namespace aiql;

namespace {

/// Records per AppendBatch call on every write path.
constexpr size_t kAppendBatch = 8192;

// Why each workload exists is recorded in BENCHMARK.json and README.md:
// soc-sharded is the all-hot path with scatter/merge and four competing
// sessions; cold-history makes the working set exceed the partition cache.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"soc-sharded", "demo", 5, 20000, 6, /*sessions=*/4, /*shards=*/4,
       /*cold=*/false, 0, 0},
      {"cold-history", "atc", 5, 20000, 6, /*sessions=*/2, /*shards=*/0,
       /*cold=*/true, /*cache_fraction=*/0.25, /*write_reps=*/3},
  };
  return kWorkloads;
}

bool HasOrderBy(const std::string& text) {
  std::string lower = text;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return lower.find("order by") != std::string::npos;
}

void HashBytes(uint64_t* hash, const std::string& bytes) {
  for (char c : bytes) {
    *hash ^= static_cast<unsigned char>(c);
    *hash *= 1099511628211ull;
  }
  *hash ^= 0x9e3779b97f4a7c15ull;
}

/// Replays `records` into `store` in kAppendBatch-record batches.
template <typename Store>
Status Replay(Store* store, const std::vector<EventRecord>& records,
              WriteTimings* timings) {
  for (size_t i = 0; i < records.size(); i += kAppendBatch) {
    std::vector<EventRecord> batch(
        records.begin() + i,
        records.begin() + std::min(records.size(), i + kAppendBatch));
    auto start = Clock::now();
    Status status = store->AppendBatch(std::move(batch));
    timings->append_us += MicrosBetween(start, Clock::now());
    ++timings->append_calls;
    AIQL_RETURN_IF_ERROR(status);
  }
  auto start = Clock::now();
  Status sealed = store->Seal();
  timings->seal_us += MicrosBetween(start, Clock::now());
  timings->records += records.size();
  return sealed;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

std::vector<MixRequest> BuildMix(const std::vector<CatalogQuery>& catalog,
                                 const std::string& attacker_ip) {
  std::vector<MixRequest> mix;
  for (const CatalogQuery& query : catalog) {
    MixRequest request;
    request.id = query.id;
    request.text = query.text;
    request.min_rows = query.min_expected_rows;
    request.ordered = HasOrderBy(query.text);
    mix.push_back(std::move(request));
  }
  // One backward provenance track of the attacker's address per pass,
  // half-way through the catalog. At the end of a pass it would follow
  // the queries on the same exfiltration partitions, so on a cold store
  // it would find them cached about half the time and its median would
  // flip between a cached and a cold figure from run to run.
  MixRequest track;
  track.track = true;
  track.id = "track";
  track.command.request.type = EntityType::kNetwork;
  track.command.request.name_like = attacker_ip;
  track.min_rows = 1;
  mix.insert(mix.begin() + static_cast<std::ptrdiff_t>(catalog.size() / 2),
             std::move(track));
  return mix;
}

/// Hash of a result table's column names and rendered rows; row order
/// counts only when `ordered`.
uint64_t Fingerprint(const ResultTable& table, bool ordered) {
  std::vector<std::string> rendered;
  rendered.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    std::string r;
    for (const auto& cell : row) {
      r += ValueToString(cell);
      r += '\x1f';
    }
    rendered.push_back(std::move(r));
  }
  // Sealed partitions order tied rows unstably, so unordered results are
  // compared as row multisets; ORDER BY results must match row for row.
  if (!ordered) std::sort(rendered.begin(), rendered.end());
  uint64_t hash = 1469598103934665603ull;
  for (const std::string& column : table.columns) HashBytes(&hash, column);
  for (const std::string& r : rendered) HashBytes(&hash, r);
  return hash;
}

/// Edge count parsed from a track reply's summary line; -1 if absent.
long long TrackEdgesFromSummary(const std::string& summary) {
  size_t nodes = 0, roots = 0, edges = 0;
  if (std::sscanf(summary.c_str(), "-- %zu nodes (%zu roots), %zu edges",
                  &nodes, &roots, &edges) != 3) {
    return -1;
  }
  return static_cast<long long>(edges);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Workloads()) names.push_back(spec.name);
  return names;
}

std::string CheckReply(const MixRequest& request, const Expected& expected,
                       const Response& reply) {
  if (reply.type == MsgType::kError) return reply.error.ToString();
  if (request.track) {
    if (reply.type != MsgType::kTrackOk) return "unexpected reply type";
    size_t nodes = reply.track.table.num_rows();
    long long edges = TrackEdgesFromSummary(reply.track.summary);
    if (nodes != expected.nodes ||
        edges != static_cast<long long>(expected.edges)) {
      return "track graph " + std::to_string(nodes) + " nodes / " +
             std::to_string(edges) + " edges, reference " +
             std::to_string(expected.nodes) + " / " +
             std::to_string(expected.edges);
    }
    return "";
  }
  if (reply.type != MsgType::kQueryOk) return "unexpected reply type";
  size_t rows = reply.query.table.num_rows();
  if (rows < request.min_rows) {
    return std::to_string(rows) + " rows, catalog expects at least " +
           std::to_string(request.min_rows);
  }
  if (rows != expected.rows ||
      Fingerprint(reply.query.table, request.ordered) !=
          expected.fingerprint) {
    return "rows differ from reference (" + std::to_string(rows) + " vs " +
           std::to_string(expected.rows) + ")";
  }
  return "";
}

Backend World::backend() const {
  Backend backend;
  if (tiered != nullptr) {
    backend.tiered = tiered.get();
  } else {
    backend.shards = &shard_map;
  }
  return backend;
}

World::~World() {
  server.reset();
  tiered.reset();
  if (!tiered_dir.empty()) RemoveDir(tiered_dir);
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

std::unique_ptr<World> SetUp(const WorkloadSpec& spec, uint64_t seed) {
  auto world = std::make_unique<World>();
  world->spec = &spec;

  ScenarioOptions options;
  options.num_clients = spec.hosts;
  options.events_per_host_per_hour = spec.events_per_host_per_hour;
  options.duration = spec.hours * kHour;
  options.seed = seed;
  std::vector<EventRecord> records;
  if (spec.scenario == "demo") {
    DemoScenarioData data = GenerateDemoScenario(options);
    world->mix = BuildMix(DemoInvestigationQueries(data.truth),
                          data.truth.attacker_ip);
    records = std::move(data.records);
  } else {
    AtcScenarioData data = GenerateAtcScenario(options);
    world->mix = BuildMix(AtcInvestigationQueries(data.truth),
                          data.truth.attacker_ip);
    records = std::move(data.records);
  }
  world->records = records.size();

  // The reference store: one all-hot database over every record. The
  // workloads check their sharded or cold answers against it.
  auto hot = std::make_unique<AuditDatabase>(StorageOptions{});
  WriteTimings hot_ingest;
  auto ingest_start = Clock::now();
  Status ingested = Replay(hot.get(), records, &hot_ingest);
  hot_ingest.total_us = MicrosBetween(ingest_start, Clock::now());
  if (!ingested.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", ingested.ToString().c_str());
    return nullptr;
  }
  for (const auto& [key, partition] : hot->ListSealedPartitions()) {
    world->all_hot_bytes += partition->MemoryFootprint();
  }

  AiqlEngine reference(hot.get());
  for (const MixRequest& request : world->mix) {
    Expected expected;
    if (request.track) {
      auto result = reference.Track(request.command.request);
      if (!result.ok()) {
        std::fprintf(stderr, "reference track failed: %s\n",
                     result.status().ToString().c_str());
        return nullptr;
      }
      expected.nodes = result->nodes.size();
      expected.edges = result->edges.size();
      expected.rows = expected.nodes;
    } else {
      auto result = reference.Execute(request.text);
      if (!result.ok()) {
        std::fprintf(stderr, "reference %s failed: %s\n", request.id.c_str(),
                     result.status().ToString().c_str());
        return nullptr;
      }
      expected.rows = result->table.num_rows();
      expected.fingerprint = Fingerprint(result->table, request.ordered);
    }
    if (expected.rows < request.min_rows) {
      std::fprintf(stderr,
                   "reference %s returned %zu rows, catalog expects at "
                   "least %zu\n",
                   request.id.c_str(), expected.rows, request.min_rows);
      return nullptr;
    }
    world->expected.push_back(expected);
  }

  if (spec.cold) {
    world->cache_budget_bytes = static_cast<uint64_t>(
        static_cast<double>(world->all_hot_bytes) * spec.cache_fraction);
    world->replay = std::move(records);
    return world;
  }
  // The single-writer replay into the all-hot database is the set-up
  // ingest figure of the sharded workload: one writer is steadier from run
  // to run than the sharded set-up's four concurrent writers.
  world->ingest = hot_ingest;
  hot.reset();
  AgentId min_agent = records.front().agent_id, max_agent = min_agent;
  for (const EventRecord& record : records) {
    min_agent = std::min(min_agent, record.agent_id);
    max_agent = std::max(max_agent, record.agent_id);
  }
  auto ranges = EvenAgentRanges(spec.shards, min_agent, max_agent);
  auto routed = RouteRecordsByAgent(ranges, records);
  if (!routed.ok()) {
    std::fprintf(stderr, "routing failed: %s\n",
                 routed.status().ToString().c_str());
    return nullptr;
  }
  records.clear();
  records.shrink_to_fit();
  // Shards ingest independently, as a sharded fleet does: one writer
  // thread per shard database. Not timed; see the all-hot ingest above.
  std::vector<WriteTimings> timings(ranges.size());
  std::vector<Status> statuses(ranges.size());
  std::vector<std::thread> writers;
  for (size_t s = 0; s < ranges.size(); ++s) {
    world->shard_dbs.push_back(
        std::make_unique<AuditDatabase>(StorageOptions{}));
    writers.emplace_back([&, s, db = world->shard_dbs.back().get()] {
      statuses[s] = Replay(db, (*routed)[s], &timings[s]);
    });
  }
  for (std::thread& writer : writers) writer.join();
  for (size_t s = 0; s < ranges.size(); ++s) {
    Status status = statuses[s];
    if (status.ok()) {
      status = world->shard_map.AddShard(world->shard_dbs[s].get(), ranges[s]);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "shard %zu failed: %s\n", s,
                   status.ToString().c_str());
      return nullptr;
    }
  }
  return StartServer(world.get()) ? std::move(world) : nullptr;
}

bool WriteColdStore(World* world, const std::string& dir,
                    WriteTimings* timings) {
  // Every replay starts from the same state: no earlier store in memory
  // or on disk.
  world->server.reset();
  world->tiered.reset();
  if (!world->tiered_dir.empty()) RemoveDir(world->tiered_dir);
  world->tiered_dir.clear();
  RemoveDir(dir);
  RetentionOptions retention;
  retention.dir = dir;
  retention.memory_budget_bytes = world->cache_budget_bytes;
  retention.hot_buckets = -1;  // demote everything: reads are all cold
  auto store = TieredStore::Create(StorageOptions{}, retention);
  if (!store.ok()) {
    std::fprintf(stderr, "tiered store: %s\n",
                 store.status().ToString().c_str());
    return false;
  }
  auto start = Clock::now();
  Status status = Replay(store->get(), world->replay, timings);
  if (status.ok()) {
    auto demote_start = Clock::now();
    status = (*store)->CompactOnce();
    timings->demote_us += MicrosBetween(demote_start, Clock::now());
  }
  timings->total_us += MicrosBetween(start, Clock::now());
  if (!status.ok()) {
    std::fprintf(stderr, "cold write failed: %s\n",
                 status.ToString().c_str());
    return false;
  }
  RetentionStats stats = (*store)->stats();
  if (stats.hot_partitions != 0 || stats.cold_partitions == 0) {
    std::fprintf(stderr, "cold write left %llu hot / %llu cold partitions\n",
                 static_cast<unsigned long long>(stats.hot_partitions),
                 static_cast<unsigned long long>(stats.cold_partitions));
    return false;
  }
  timings->disk_bytes = DirBytes(dir);
  world->tiered = std::move(*store);
  world->tiered_dir = dir;
  return true;
}

bool StartServer(World* world) {
  ServerOptions options;
  options.max_concurrent_queries =
      std::max(1u, std::thread::hardware_concurrency());
  EngineOptions engine;
  if (world->tiered != nullptr) {
    const ShardMap* no_shards = nullptr;
    world->server = std::make_unique<AiqlServer>(world->tiered.get(),
                                                 no_shards, options, engine);
  } else {
    const AuditDatabase* no_db = nullptr;
    world->server = std::make_unique<AiqlServer>(no_db, &world->shard_map,
                                                 options, engine);
  }
  Status started = world->server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    world->server.reset();
    return false;
  }
  return true;
}

}  // namespace perfbench
