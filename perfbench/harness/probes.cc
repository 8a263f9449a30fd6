// Direct calls into each layer's public functions, outside the measured
// window, for the per-layer numbers of a traced run. Every call is wrapped
// in a span; the report carries the raw per-call values and run.py reduces
// them.

#include <utility>

#include "graph/analytics.h"
#include "graph/csr_view.h"
#include "graph/traversal.h"
#include "query/executor.h"
#include "query/explain.h"
#include "query/parser.h"
#include "query/session.h"
#include "runner.h"
#include "server/epoch.h"

namespace perfbench {

namespace {

using frappe::graph::Direction;
using frappe::graph::EdgeFilter;

void GraphProbes(const Kernel& kernel, const frappe::query::Database& db,
                 const Pools& pools, SpanLog* spans, JsonWriter* out) {
  const frappe::graph::GraphView& view = *kernel.store;
  const frappe::graph::TypeId calls =
      kernel.schema.edge_type(frappe::model::EdgeKind::kCalls);

  out->Field("snapshot_load_ms", kernel.load_ms)
      .Field("snapshot_bytes", kernel.file_bytes)
      .Field("indexes_attach_ms", kernel.attach_ms);

  // CSR builds, on the database the query probes then use warm.
  const uint64_t op = SpanLog::NextId();
  const frappe::graph::CsrView* csr = nullptr;
  {
    ScopedSpan span(spans, op, 0, "graph.csr.forward_build");
    csr = &db.csr->Get(view);
    out->Field("csr_forward_build_ms", span.ElapsedMs());
  }
  {
    ScopedSpan span(spans, op, 0, "graph.csr.reverse_build");
    (void)csr->InDegree(0);  // first in-direction use builds the transpose
    out->Field("csr_reverse_build_ms", span.ElapsedMs());
  }
  const frappe::graph::CsrCache::Stats stats = db.csr->GetStats();
  out->Field("csr_bytes", stats.forward_bytes + stats.reverse_bytes);

  // Fig. 5: graph::IsReachable over each instance's (callee, writer) pairs.
  out->Key("reach").BeginArray();
  for (const Instance& instance :
       pools[static_cast<size_t>(Kind::kDebug)]) {
    const uint64_t reach_op = SpanLog::NextId();
    ScopedSpan span(spans, reach_op, 0, "graph.traversal.reach");
    size_t reachable = 0;
    for (auto [from, to] : instance.reach_pairs) {
      ScopedSpan check(spans, reach_op, span.id(),
                       "graph.traversal.is_reachable");
      reachable += frappe::graph::IsReachable(view, from, to,
                                              EdgeFilter::Of({calls}));
    }
    out->BeginObject()
        .Field("checks", static_cast<uint64_t>(instance.reach_pairs.size()))
        .Field("reachable", static_cast<uint64_t>(reachable))
        .Field("ms", span.ElapsedMs())
        .EndObject();
  }
  out->EndArray();

  // Fig. 6 seeds through the parallel closure kernel, at the default lane
  // count (what the executor's fast path uses) and on one lane.
  out->Key("closure").BeginArray();
  for (Kind kind : {Kind::kClosure, Kind::kImpact}) {
    const EdgeFilter filter = EdgeFilter::Of(
        {calls}, kind == Kind::kClosure ? Direction::kOut : Direction::kIn);
    for (const Instance& instance : pools[static_cast<size_t>(kind)]) {
      const uint64_t closure_op = SpanLog::NextId();
      frappe::graph::analytics::Options options;
      options.threads = 0;  // FRAPPE_THREADS / hardware concurrency
      frappe::graph::analytics::Metrics metrics;
      double default_ms = 0, one_lane_ms = 0;
      size_t size = 0;
      {
        ScopedSpan span(spans, closure_op, 0, "graph.analytics.closure");
        auto closure = frappe::graph::analytics::ParallelClosure(
            *csr, {instance.seed}, filter, options, &metrics);
        default_ms = span.ElapsedMs();
        size = closure.ok() ? closure->size() : 0;
      }
      options.threads = 1;
      {
        ScopedSpan span(spans, closure_op, 0,
                        "graph.analytics.closure_1lane");
        (void)frappe::graph::analytics::ParallelClosure(*csr, {instance.seed},
                                                        filter, options);
        one_lane_ms = span.ElapsedMs();
      }
      out->BeginObject()
          .Field("kind", KindName(kind))
          .Field("ms", default_ms)
          .Field("one_lane_ms", one_lane_ms)
          .Field("edges_scanned", metrics.steps)
          .Field("lanes", static_cast<uint64_t>(metrics.lanes_used))
          .Field("size", static_cast<uint64_t>(size))
          .EndObject();
    }
  }
  out->EndArray();
}

// query::Parse / BuildPlan / Execute on every probe instance, then
// query::RunQuery for the obs resource attribution the session adds.
void QueryProbes(const frappe::query::Database& db, const Pools& pools,
                 SpanLog* spans, JsonWriter* out) {
  out->Key("query").BeginArray();
  for (const auto& pool : pools) {
    for (const Instance& instance : pool) {
      const uint64_t op = SpanLog::NextId();
      out->BeginObject().Field("kind", KindName(instance.kind));
      ScopedSpan root(spans, op, 0, "probe.query");
      frappe::Result<frappe::query::Query> parsed =
          frappe::Status::Internal("unparsed");
      {
        ScopedSpan span(spans, op, root.id(), "query.parse");
        parsed = frappe::query::Parse(instance.text);
        out->Field("parse_us", span.ElapsedMs() * 1000);
      }
      if (!parsed.ok()) {
        out->Field("error", parsed.status().ToString()).EndObject();
        continue;
      }
      {
        ScopedSpan span(spans, op, root.id(), "query.plan");
        (void)frappe::query::BuildPlan(db, *parsed);
        out->Field("plan_us", span.ElapsedMs() * 1000);
      }
      {
        ScopedSpan span(spans, op, root.id(), "query.execute");
        auto result = frappe::query::Execute(db, *parsed);
        out->Field("exec_us", span.ElapsedMs() * 1000);
        if (result.ok()) {
          out->Field("steps", result->stats.steps)
              .Field("db_hits", result->stats.db_hits.Total())
              .Field("rows", static_cast<uint64_t>(result->rows.size()))
              .Field("scanned_bytes", result->stats.scanned_bytes)
              .Field("fast_path", result->stats.fast_path_taken);
        }
      }
      {
        ScopedSpan span(spans, op, root.id(), "query.run");
        auto result = frappe::query::RunQuery(db, instance.text);
        if (result.ok()) {
          out->Field("cpu_us", result->stats.cpu_us)
              .Field("alloc_bytes", result->stats.alloc_bytes)
              .Field("peak_bytes", result->stats.peak_bytes);
        }
      }
      out->EndObject();
    }
  }
  out->EndArray();
}

// VersionStore::MaterializeVersion and EpochManager::Publish of the result,
// once per committed version.
void VersionProbes(const Kernel& kernel, uint64_t seed, SpanLog* spans,
                   JsonWriter* out) {
  frappe::temporal::VersionStore versions;
  frappe::Status seeded =
      SeedVersions(kernel, seed, kDeltaCallEdges, &versions);
  if (!seeded.ok()) {
    out->Field("versions_error", seeded.ToString());
    return;
  }
  frappe::server::EpochManager epochs;
  out->Key("publish").BeginArray();
  for (frappe::temporal::Version version : {0u, 1u}) {
    const uint64_t op = SpanLog::NextId();
    ScopedSpan root(spans, op, 0, "probe.publish");
    double materialize_ms = 0, publish_ms = 0;
    frappe::Result<std::unique_ptr<frappe::graph::GraphStore>> store =
        frappe::Status::Internal("unmaterialized");
    {
      ScopedSpan span(spans, op, root.id(), "temporal.materialize");
      store = versions.MaterializeVersion(version);
      materialize_ms = span.ElapsedMs();
    }
    if (!store.ok()) continue;
    {
      ScopedSpan span(spans, op, root.id(), "server.epoch.publish");
      (void)epochs.Publish(std::move(*store), "probe");
      publish_ms = span.ElapsedMs();
    }
    out->BeginObject()
        .Field("materialize_ms", materialize_ms)
        .Field("publish_ms", publish_ms)
        .EndObject();
  }
  out->EndArray();
}

}  // namespace

void RunLayerProbes(const Kernel& kernel, const Pools& probe_pools,
                    uint64_t seed, SpanLog* spans, JsonWriter* report) {
  const frappe::query::Database db = frappe::query::MakeFrappeDatabase(
      *kernel.store, kernel.schema, &kernel.names, &kernel.labels);
  report->Key("probes").BeginObject();
  GraphProbes(kernel, db, probe_pools, spans, report);
  QueryProbes(db, probe_pools, spans, report);
  VersionProbes(kernel, seed, spans, report);
  report->EndObject();
}

}  // namespace perfbench
