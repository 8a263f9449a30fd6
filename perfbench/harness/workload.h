#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Query instances and operation streams of the three workloads, drawn from
// the workload seed over a loaded kernel graph. Everything here is a pure
// function of (graph, workload, seed): the same seed always yields the same
// instance pools and the same per-client operation streams.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/graph_view.h"
#include "graph/indexes.h"
#include "model/schema.h"

namespace perfbench {

using frappe::graph::NodeId;

// Query kinds. Each belongs to one latency class.
enum class Kind : uint8_t {
  kCodeSearch,  // Fig. 3: fields of one name inside one module's files
  kXref,        // Fig. 4: the definition behind one name token
  kGroupLabel,  // Table 6: group-label lookup (container:symbol)
  kWildcard,    // lucene prefix / single-character wildcard lookup
  kLabelCount,  // count(*) over a label scan with a name filter
  kDebug,       // Fig. 5: debugging, one reachability check per row
  kClosure,     // Fig. 6: -[:calls*]-> closure, RETURN distinct
  kImpact,      // <-[:calls*]- impact closure, count(distinct)
  kCount,
};
inline constexpr size_t kKindCount = static_cast<size_t>(Kind::kCount);

enum class Class : uint8_t { kLookup, kReach, kClosure, kCount };
inline constexpr size_t kClassCount = static_cast<size_t>(Class::kCount);

std::string_view KindName(Kind kind);
std::string_view ClassName(Class cls);
Class ClassOf(Kind kind);

enum class Workload : uint8_t { kInteractive, kAnalysis, kChurn };
bool ParseWorkload(std::string_view name, Workload* out);

// The kinds of a workload's read stream, each an equal share.
using Mix = std::vector<Kind>;
Mix MixOf(Workload workload);

struct Instance {
  Kind kind = Kind::kCodeSearch;
  std::string text;  // the FQL sent to /query
  // kClosure / kImpact: the seed, so the graph layer can be asked the same
  // question directly.
  NodeId seed = frappe::graph::kInvalidNode;
  // kDebug: the (callee, writer) pairs the reachability short-cut tests,
  // one per candidate row.
  std::vector<std::pair<NodeId, NodeId>> reach_pairs;
};

// Instance pools per kind; kinds absent from the workload stay empty.
using Pools = std::array<std::vector<Instance>, kKindCount>;

// What the drawing needs from a loaded kernel.
struct KernelRefs {
  const frappe::graph::GraphView* view = nullptr;
  const frappe::model::Schema* schema = nullptr;
  const frappe::graph::LabelIndex* labels = nullptr;
  const frappe::graph::NameIndex* names = nullptr;
};

// Fig. 5 instances by their number of reachability checks, in buckets of
// 1-8, 9-16, 17-32, 33-64 and 65 and up. A pool gives each bucket a fixed
// share, close to the share of drawn candidates that fall in it at scale
// 0.2, so every seed's pool costs about the same. The last bucket's share is
// 0: its candidates (about 5 %) cost seconds per query.
inline constexpr size_t kCheckBuckets = 5;
inline constexpr std::array<double, kCheckBuckets> kDebugBucketShare = {
    0.35, 0.29, 0.25, 0.11, 0.0};
size_t CheckBucket(size_t checks);

// The Fig. 5 candidates DrawPools drew (those with at least one check), by
// bucket.
struct DrawStats {
  std::array<uint64_t, kCheckBuckets> debug_checks{};
};

// Draws `per_kind` distinct instances of every kind in `mix`, and twice as
// many of kDebug.
Pools DrawPools(const KernelRefs& kernel, const Mix& mix, uint64_t seed,
                size_t per_kind, DrawStats* stats = nullptr);

struct Op {
  Kind kind = Kind::kCodeSearch;
  uint32_t instance = 0;
};

// The closed-loop operation stream of one client. Kinds come in rounds that
// hold each kind of the mix once, in shuffled order, and each kind's
// instances in shuffled passes over its pool. A window thus reads every
// kind, and every instance of a pool, equally often: its cost does not
// depend on which kinds or instances chance would have repeated.
class OpStream {
 public:
  OpStream(const Pools& pools, const Mix& mix, uint64_t seed, size_t client);
  Op Next();

 private:
  const Pools& pools_;
  Mix mix_;  // the mix's kinds that have instances
  frappe::Rng rng_;
  std::vector<Kind> round_;  // kinds left in this round
  std::array<std::vector<uint32_t>, kKindCount> passes_;  // instances left
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
