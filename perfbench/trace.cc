// Traced per-layer run: each request goes through the layers' public
// functions in the order AiqlEngine::Dispatch and AiqlEngine::Track call
// them, with a span around each call. No instrumentation inside the
// program is used; spans are taken from here, around the calls.
//
// Span names (children of the per-request root "request"):
//   parse    ParseAiql
//   view     AuditDatabase/TieredStore::OpenReadView, ShardMap::OpenReadViews
//   analyze  RewriteDependency + AnalyzeMultievent
//   select   ReadView::SelectPartitions over the analyzed window and agents
//            (on tiered views this is where cold partitions reopen)
//   execute  MultieventExecutor/AnomalyExecutor::Execute, or
//            ShardedExecutor::Execute on a shard map
//   track    root lookup + TrackProvenance / TrackProvenanceSharded
//   encode   EncodeQueryOk / EncodeTrackOk (with the reply table)
//   decode   DecodeResponse
//
// On a shard map the sharded executor opens its own views and analyzes the
// query again inside "execute"; the separate view/analyze/select spans call
// the same functions it calls, so they show those layers' cost and the
// duplicated work shows up as tracing overhead.

#include <algorithm>
#include <thread>

#include "bench.h"
#include "common/like_matcher.h"
#include "common/time_utils.h"
#include "engine/anomaly.h"
#include "engine/dependency.h"
#include "engine/executor.h"
#include "engine/provenance.h"
#include "engine/shard_exec.h"
#include "query/analyzer.h"
#include "query/parser.h"

namespace perfbench {

using namespace aiql;

namespace {

/// Spans of the first requests of each session go to the trace file.
constexpr uint64_t kKeptRequests = 64;

/// Records child spans of one request and their total.
class RequestSpans {
 public:
  RequestSpans(Clock::time_point origin, uint64_t request, LayerTotals* totals,
               std::vector<Span>* spans)
      : origin_(origin),
        request_(request),
        totals_(totals),
        spans_((request & 0xffffffffu) < kKeptRequests ? spans : nullptr),
        start_(Clock::now()) {}

  /// Times `fn` as a span named `name`.
  template <typename Fn>
  auto Time(const char* name, Fn&& fn) {
    auto start = Clock::now();
    auto result = fn();
    Close(name, start, Clock::now());
    return result;
  }

  /// Ends the request; returns its in-process time in microseconds.
  double Finish() {
    auto end = Clock::now();
    double total = MicrosBetween(start_, end);
    if (spans_ != nullptr) {
      spans_->push_back(Span{request_, "request", "",
                             MicrosBetween(origin_, start_),
                             MicrosBetween(origin_, end)});
    }
    double children = 0;
    for (double us : child_us_) children += us;
    totals_->span_us["request"] += total - children;
    totals_->request_us += total;
    return total;
  }

 private:
  void Close(const char* name, Clock::time_point start,
             Clock::time_point end) {
    double us = MicrosBetween(start, end);
    child_us_.push_back(us);
    totals_->span_us[name] += us;
    if (spans_ != nullptr) {
      spans_->push_back(Span{request_, name, "request",
                             MicrosBetween(origin_, start),
                             MicrosBetween(origin_, end)});
    }
  }

  Clock::time_point origin_;
  uint64_t request_;
  LayerTotals* totals_;
  std::vector<Span>* spans_;
  Clock::time_point start_;
  std::vector<double> child_us_;
};

std::vector<EntityId> FindRoots(const EntityStore& entities,
                                const TrackRequest& request) {
  LikeMatcher matcher(request.name_like);
  switch (request.type) {
    case EntityType::kProcess:
      return entities.FindProcessesByExe(matcher);
    case EntityType::kFile:
      return entities.FindFilesByPath(matcher);
    case EntityType::kNetwork:
      return entities.FindNetworksByIp(matcher, /*use_src=*/false);
  }
  return {};
}

/// Builds the TrackReply the server would send for `result`.
TrackReply RenderTrack(const ProvenanceResult& result,
                       const Backend& backend) {
  TrackReply reply;
  reply.table.columns = {"depth", "type", "entity", "bound"};
  for (const ProvenanceNode& node : result.nodes) {
    reply.table.rows.push_back(
        {std::string(std::to_string(node.depth)),
         std::string(EntityTypeToString(node.type)),
         backend.Entities(node.shard).EntityName(node.type, node.id),
         node.bound == INT64_MAX || node.bound == INT64_MIN
             ? std::string("-")
             : FormatTimestamp(node.bound)});
  }
  reply.summary = "-- " + std::to_string(result.nodes.size()) + " nodes (" +
                  std::to_string(result.num_roots) + " roots), " +
                  std::to_string(result.edges.size()) + " edges in " +
                  std::to_string(result.stats.hops) + " hops";
  return reply;
}

}  // namespace

void LayerTotals::Add(const LayerTotals& other) {
  for (const auto& [name, us] : other.span_us) span_us[name] += us;
  queries += other.queries;
  tracks += other.tracks;
  request_us += other.request_us;
  untraced_us += other.untraced_us;
  wire_us += other.wire_us;
  wire_samples += other.wire_samples;
  reply_bytes += other.reply_bytes;
  partitions_selected += other.partitions_selected;
  events_scanned += other.events_scanned;
  events_matched += other.events_matched;
  join_candidates += other.join_candidates;
  rows += other.rows;
  threads_used += other.threads_used;
  track_hops += other.track_hops;
  track_events_inspected += other.track_events_inspected;
  track_partitions_selected += other.track_partitions_selected;
  mismatches += other.mismatches;
  failures += other.failures;
}

Tracer::Tracer(const Backend& backend, Clock::time_point origin)
    : backend_(backend),
      origin_(origin),
      pool_(std::make_unique<ThreadPool>(
          std::max(1u, std::thread::hardware_concurrency()))) {
  // The same engine configuration the server's engines use.
  if (backend_.shards != nullptr) {
    engine_ = std::make_unique<AiqlEngine>(backend_.shards, options_);
  } else {
    engine_ = std::make_unique<AiqlEngine>(backend_.tiered, options_);
  }
}

Tracer::~Tracer() = default;

double Tracer::Run(const MixRequest& request, const Expected& expected,
                   uint64_t request_id, LayerTotals* totals,
                   std::vector<Span>* spans) {
  double us = request.track
                  ? TraceTrack(request, expected, request_id, totals, spans)
                  : TraceQuery(request, expected, request_id, totals, spans);
  if (us < 0) ++totals->failures;
  return us;
}

double Tracer::RunUntraced(const MixRequest& request) {
  QueryContext ctx{QueryLimits{}};
  ScopedQueryContext bind(&ctx);
  auto start = Clock::now();
  std::string payload;
  if (request.track) {
    auto result = engine_->Track(request.command.request, &ctx);
    if (!result.ok()) return -1;
    payload = EncodeTrackOk(RenderTrack(*result, backend_));
  } else {
    auto result = engine_->Execute(request.text, &ctx);
    if (!result.ok()) return -1;
    QueryReply reply;
    reply.table = std::move(result->table);
    reply.stats = result->stats;
    reply.degraded = result->degraded.ToString();
    payload = EncodeQueryOk(reply);
  }
  auto decoded = DecodeResponse(payload);
  if (!decoded.ok()) return -1;
  return MicrosBetween(start, Clock::now());
}

double Tracer::TraceQuery(const MixRequest& request, const Expected& expected,
                          uint64_t request_id, LayerTotals* totals,
                          std::vector<Span>* spans) {
  // The server always executes under a context bound to the executing
  // thread; do the same so governance checkpoints cost what they cost there.
  QueryContext ctx{QueryLimits{}};
  ScopedQueryContext bind(&ctx);
  RequestSpans trace(origin_, request_id, totals, spans);

  auto parsed = trace.Time("parse", [&] { return ParseAiql(request.text); });
  if (!parsed.ok()) return -1;

  std::vector<ReadView> views = trace.Time("view", [&] {
    std::vector<ReadView> opened;
    if (backend_.shards != nullptr) {
      opened = backend_.shards->OpenReadViews();
    } else {
      opened.push_back(backend_.OpenView());
    }
    return opened;
  });

  std::unique_ptr<MultieventQueryAst> rewritten;
  QueryKind analyzed_kind = parsed->kind;
  auto analyzed = trace.Time("analyze", [&]() -> Result<AnalyzedQuery> {
    if (parsed->kind == QueryKind::kDependency) {
      AIQL_ASSIGN_OR_RETURN(rewritten, RewriteDependency(*parsed->dependency));
      analyzed_kind = QueryKind::kMultievent;
      return AnalyzeMultievent(*rewritten, analyzed_kind);
    }
    return AnalyzeMultievent(*parsed->multievent, analyzed_kind);
  });
  if (!analyzed.ok()) return -1;

  auto selected = trace.Time("select", [&]() -> Result<size_t> {
    size_t partitions = 0;
    for (const ReadView& view : views) {
      AIQL_ASSIGN_OR_RETURN(auto list,
                            view.SelectPartitions(analyzed->time_window,
                                                  analyzed->agent_filter));
      partitions += list.size();
    }
    return partitions;
  });
  if (!selected.ok()) return -1;

  auto result = trace.Time("execute", [&]() -> Result<QueryResult> {
    if (backend_.shards != nullptr) {
      ShardedExecutor executor(backend_.shards, options_, pool_.get());
      return executor.Execute(*parsed, &ctx);
    }
    if (analyzed_kind == QueryKind::kAnomaly) {
      AnomalyExecutor executor(&views.front(), options_, pool_.get());
      return executor.Execute(*analyzed, &ctx);
    }
    MultieventExecutor executor(&views.front(), options_, pool_.get());
    return executor.Execute(*analyzed, &ctx);
  });
  if (!result.ok()) return -1;

  std::string payload = trace.Time("encode", [&] {
    QueryReply reply;
    reply.table = std::move(result->table);
    reply.stats = result->stats;
    reply.degraded = result->degraded.ToString();
    return EncodeQueryOk(reply);
  });
  auto decoded = trace.Time("decode", [&] { return DecodeResponse(payload); });
  double us = trace.Finish();
  views.clear();
  if (!decoded.ok()) return -1;

  ++totals->queries;
  totals->reply_bytes += static_cast<double>(payload.size());
  totals->partitions_selected += *selected;
  const QueryStats& stats = decoded->query.stats;
  totals->events_scanned += stats.events_scanned;
  totals->events_matched += stats.events_matched;
  totals->join_candidates += stats.join_candidates;
  totals->threads_used += static_cast<uint64_t>(stats.threads_used);
  totals->rows += decoded->query.table.num_rows();
  if (!CheckReply(request, expected, *decoded).empty()) ++totals->mismatches;
  return us;
}

double Tracer::TraceTrack(const MixRequest& request, const Expected& expected,
                          uint64_t request_id, LayerTotals* totals,
                          std::vector<Span>* spans) {
  QueryContext ctx{QueryLimits{}};
  ScopedQueryContext bind(&ctx);
  RequestSpans trace(origin_, request_id, totals, spans);
  const TrackRequest& track = request.command.request;

  std::vector<ReadView> views = trace.Time("view", [&] {
    std::vector<ReadView> opened;
    if (backend_.shards != nullptr) {
      opened = backend_.shards->OpenReadViews();
    } else {
      opened.push_back(backend_.OpenView());
    }
    return opened;
  });

  auto result = trace.Time("track", [&]() -> Result<ProvenanceResult> {
    Timestamp anchor =
        track.anchor.value_or(track.options.backward ? INT64_MAX : INT64_MIN);
    if (backend_.shards == nullptr) {
      std::vector<std::pair<EntityType, EntityId>> roots;
      for (EntityId id : FindRoots(views.front().entities(), track)) {
        roots.emplace_back(track.type, id);
      }
      if (roots.empty()) return Status::NotFound("no track roots");
      return TrackProvenance(views.front(), roots, anchor, track.options,
                             pool_.get(), &ctx);
    }
    std::vector<ShardEntity> roots;
    for (size_t s = 0; s < views.size(); ++s) {
      for (EntityId id : FindRoots(views[s].entities(), track)) {
        roots.push_back(ShardEntity{static_cast<uint32_t>(s), track.type, id});
      }
    }
    if (roots.empty()) return Status::NotFound("no track roots");
    // The strict-policy retry knobs AiqlEngine::Track applies.
    ProvenanceOptions sharded = track.options;
    sharded.shard_max_attempts = options_.shard_max_attempts;
    sharded.shard_retry_backoff = options_.shard_retry_backoff;
    sharded.partial_shards = false;
    return TrackProvenanceSharded(views, roots, anchor, sharded, pool_.get(),
                                  &ctx);
  });
  if (!result.ok()) return -1;

  std::string payload = trace.Time(
      "encode", [&] { return EncodeTrackOk(RenderTrack(*result, backend_)); });
  auto decoded = trace.Time("decode", [&] { return DecodeResponse(payload); });
  double us = trace.Finish();
  views.clear();
  if (!decoded.ok()) return -1;

  ++totals->tracks;
  totals->reply_bytes += static_cast<double>(payload.size());
  totals->track_hops += static_cast<uint64_t>(result->stats.hops);
  totals->track_events_inspected += result->stats.events_inspected;
  totals->track_partitions_selected += result->stats.partitions_selected;
  if (!CheckReply(request, expected, *decoded).empty()) ++totals->mismatches;
  return us;
}

}  // namespace perfbench
