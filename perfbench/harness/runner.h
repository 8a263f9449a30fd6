#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

// One benchmark run: load the kernel snapshot, set the query server up
// (timed, several times), compute the answer oracle, drive the workload's
// closed-loop clients for the measured window, check every answer, and
// write the raw measurements as one JSON report for run.py to reduce.

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "graph/graph_store.h"
#include "graph/indexes.h"
#include "model/schema.h"
#include "query/database.h"
#include "spans.h"
#include "temporal/version_store.h"
#include "json.h"
#include "workload.h"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::kInteractive;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string snapshot;  // kernel snapshot written by this build
  std::string report;    // where the JSON report goes
  std::string spans;     // where the traced run's spans go
};

// Exit code: 0 when every answer checked out, 1 on a wrong or failed
// answer, 2 when the run could not be set up.
int RunBenchmark(const RunOptions& options);

// A kernel snapshot loaded straight through the graph layer (no server),
// for drawing query instances and probing layers directly.
struct Kernel {
  std::unique_ptr<frappe::graph::GraphStore> store;
  frappe::graph::NameIndex names;
  frappe::graph::LabelIndex labels;
  frappe::model::Schema schema;
  double load_ms = 0;    // graph::LoadSnapshot: read + CRC + decode
  double attach_ms = 0;  // name index + LabelIndex::Build + schema
  uint64_t file_bytes = 0;

  KernelRefs refs() const {
    return KernelRefs{store.get(), &schema, &labels, &names};
  }
};
frappe::Result<Kernel> LoadKernel(const std::string& path, SpanLog* spans);

// Copies `kernel` into `versions` as version 0 and commits version 1 = v0
// plus `delta_edges` seeded `calls` edges between functions.
inline constexpr size_t kDeltaCallEdges = 2000;
frappe::Status SeedVersions(const Kernel& kernel, uint64_t seed,
                            size_t delta_edges,
                            frappe::temporal::VersionStore* versions);

// The expected answer of one instance, computed in-process.
struct Answer {
  bool ok = false;
  std::string error;
  uint64_t rows = 0;
  uint64_t digest = 0;
};
// query::RunQuery on `db`, plus an independent graph::TransitiveClosure
// check of the closure kinds' sizes.
Answer ComputeAnswer(const frappe::query::Database& db,
                     const Instance& instance);

// Order-independent digest of a result's rows: the sum of one 64-bit hash
// per row over its rendered cells.
uint64_t RowHash(const std::vector<std::string>& cells);

// Direct calls into the graph, query, temporal and server layers, outside
// the measured window (traced runs only). Appends a "probes" object.
void RunLayerProbes(const Kernel& kernel, const Pools& probe_pools,
                    uint64_t seed, SpanLog* spans, JsonWriter* report);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
