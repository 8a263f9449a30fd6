#include "workload.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <set>

#include "graph/traversal.h"

namespace perfbench {

namespace {

using frappe::Rng;
using frappe::graph::Direction;
using frappe::graph::EdgeId;
using frappe::graph::GraphView;
using frappe::graph::TypeId;
using frappe::model::EdgeKind;
using frappe::model::NodeKind;
using frappe::model::PropKey;

// Independent sub-streams of one seed (SplitMix64 of seed and a tag).
uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  return Rng(seed ^ (0x9e3779b97f4a7c15ULL * (tag + 1))).Next();
}

template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Uniform(i)]);
  }
}

class Drawer {
 public:
  Drawer(const KernelRefs& k, uint64_t seed, Kind kind)
      : k_(k),
        view_(*k.view),
        rng_(SubSeed(seed, static_cast<uint64_t>(kind))),
        calls_(k.schema->edge_type(EdgeKind::kCalls)) {}

  std::string Name(NodeId node) const {
    return std::string(view_.GetNodeString(node, Key(PropKey::kShortName)));
  }

  bool UniqueName(NodeId node) const {
    std::string name = Name(node);
    return !name.empty() &&
           k_.names->Lookup("short_name", name).size() == 1;
  }

  // A uniformly drawn node of one of `kinds`, or kInvalidNode.
  NodeId RandomNode(std::initializer_list<NodeKind> kinds) {
    size_t total = 0;
    for (NodeKind kind : kinds) total += Nodes(kind).size();
    if (total == 0) return frappe::graph::kInvalidNode;
    size_t pick = rng_.Uniform(total);
    for (NodeKind kind : kinds) {
      const auto& nodes = Nodes(kind);
      if (pick < nodes.size()) return nodes[pick];
      pick -= nodes.size();
    }
    return frappe::graph::kInvalidNode;
  }

  // A uniformly drawn live `calls` edge.
  EdgeId RandomCallEdge() {
    const EdgeId upper = view_.EdgeIdUpperBound();
    for (int attempt = 0; attempt < 10000; ++attempt) {
      EdgeId e = static_cast<EdgeId>(rng_.Uniform(upper));
      if (view_.EdgeExists(e) && view_.GetEdge(e).type == calls_) return e;
    }
    return frappe::graph::kInvalidEdge;
  }

  std::vector<std::pair<EdgeId, NodeId>> Edges(NodeId node, Direction dir,
                                               TypeId type) const {
    std::vector<std::pair<EdgeId, NodeId>> out;
    view_.ForEachEdge(node, dir, [&](EdgeId e, NodeId n) {
      if (view_.GetEdge(e).type == type) out.emplace_back(e, n);
      return true;
    });
    return out;
  }

  const DrawStats& stats() const { return stats_; }

  std::optional<Instance> Draw(Kind kind) {
    switch (kind) {
      case Kind::kCodeSearch: return CodeSearch();
      case Kind::kXref: return Xref();
      case Kind::kGroupLabel: return GroupLabel();
      case Kind::kWildcard: return Wildcard();
      case Kind::kLabelCount: return LabelCount();
      case Kind::kDebug: return Debug();
      case Kind::kClosure: return Closure(Direction::kOut);
      case Kind::kImpact: return Closure(Direction::kIn);
      case Kind::kCount: break;
    }
    return std::nullopt;
  }

 private:
  frappe::graph::KeyId Key(PropKey key) const { return k_.schema->key(key); }
  TypeId Type(NodeKind kind) const { return k_.schema->node_type(kind); }
  TypeId Type(EdgeKind kind) const { return k_.schema->edge_type(kind); }
  const std::vector<NodeId>& Nodes(NodeKind kind) const {
    return k_.labels->Nodes(Type(kind));
  }
  int64_t EdgeInt(EdgeId e, PropKey key) const {
    return view_.GetEdgeProperty(e, Key(key)).AsInt();
  }
  static std::string StartBy(std::string_view var, std::string_view name) {
    return std::string(var) + "=node:node_auto_index('short_name: " +
           std::string(name) + "')";
  }

  // Fig. 3: a module, and the name of a field declared in one of the files
  // it is built from.
  std::optional<Instance> CodeSearch() {
    NodeId module = RandomNode({NodeKind::kModule});
    if (module == frappe::graph::kInvalidNode || !UniqueName(module)) {
      return std::nullopt;
    }
    auto files = frappe::graph::TransitiveClosure(
        view_, module,
        frappe::graph::EdgeFilter::Of({Type(EdgeKind::kCompiledFrom),
                                       Type(EdgeKind::kLinkedFrom)}));
    std::vector<NodeId> fields;
    for (NodeId file : files) {
      for (auto [e, entity] :
           Edges(file, Direction::kOut, Type(EdgeKind::kFileContains))) {
        if (view_.NodeType(entity) == Type(NodeKind::kField)) {
          fields.push_back(entity);
        }
      }
    }
    if (fields.empty()) return std::nullopt;
    NodeId field = fields[rng_.Uniform(fields.size())];
    Instance out;
    out.kind = Kind::kCodeSearch;
    out.text = "START " + StartBy("m", Name(module)) +
               " MATCH m -[:compiled_from|linked_from*]-> f WITH distinct f"
               " MATCH f -[:file_contains]-> (n:field{short_name: '" +
               Name(field) + "'}) RETURN n";
    return out;
  }

  // Fig. 4: the callee behind one call site's name token.
  std::optional<Instance> Xref() {
    EdgeId e = RandomCallEdge();
    if (e == frappe::graph::kInvalidEdge) return std::nullopt;
    Instance out;
    out.kind = Kind::kXref;
    out.text = "START " + StartBy("n", Name(view_.GetEdge(e).dst)) +
               " WHERE (n) <-[{NAME_FILE_ID: " +
               std::to_string(EdgeInt(e, PropKey::kNameFileId)) +
               ", NAME_START_LINE: " +
               std::to_string(EdgeInt(e, PropKey::kNameStartLine)) +
               ", NAME_START_COLUMN: " +
               std::to_string(EdgeInt(e, PropKey::kNameStartCol)) +
               "}]- () RETURN n";
    return out;
  }

  // Table 6: a container:symbol group-label lookup by name.
  std::optional<Instance> GroupLabel() {
    NodeId node = RandomNode({NodeKind::kStruct, NodeKind::kUnion});
    if (node == frappe::graph::kInvalidNode) return std::nullopt;
    Instance out;
    out.kind = Kind::kGroupLabel;
    out.text = "MATCH (n:container:symbol {short_name: '" + Name(node) +
               "'}) RETURN n";
    return out;
  }

  // Lucene wildcard: a name with its last character replaced by '*' (a
  // prefix scan) or one character of its second half replaced by '?'.
  std::optional<Instance> Wildcard() {
    NodeId node = RandomNode(
        {NodeKind::kFunction, NodeKind::kField, NodeKind::kStruct});
    std::string name = Name(node);
    if (name.size() < 4) return std::nullopt;
    if (rng_.Bernoulli(0.5)) {
      name.back() = '*';
    } else {
      name[name.size() / 2 + rng_.Uniform(name.size() - name.size() / 2)] =
          '?';
    }
    Instance out;
    out.kind = Kind::kWildcard;
    out.text = "START " + StartBy("n", name) + " RETURN n";
    return out;
  }

  // count(*) over one label's scan, filtered by a name of that label. The
  // labels take turns: their sizes differ 25-fold, so drawing them at random
  // would make a pool's cost depend on the seed.
  std::optional<Instance> LabelCount() {
    static constexpr NodeKind kLabels[] = {
        NodeKind::kFunction, NodeKind::kField,  NodeKind::kStruct,
        NodeKind::kGlobal,   NodeKind::kMacro,  NodeKind::kTypedef};
    NodeId node = RandomNode({kLabels[label_turn_++ % std::size(kLabels)]});
    if (node == frappe::graph::kInvalidNode) return std::nullopt;
    std::string name = Name(node);
    if (name.empty()) return std::nullopt;
    Instance out;
    out.kind = Kind::kLabelCount;
    out.text = "MATCH (n:" +
               std::string(frappe::model::NodeKindName(
                   k_.schema->node_kind(view_.NodeType(node)))) +
               ") WHERE n.short_name = '" + name + "' RETURN count(*)";
    return out;
  }

  // Fig. 5: which writers of a struct field can execution reach between
  // two call sites of one function? The executor answers each candidate
  // row's `direct -[:calls*]-> writer` predicate with one reachability
  // check. Every drawn candidate with at least one check is counted in
  // `stats_` by its number of checks, before DrawPools decides whether its
  // bucket still has room.
  std::optional<Instance> Debug() {
    EdgeId call = RandomCallEdge();
    if (call == frappe::graph::kInvalidEdge) return std::nullopt;
    const NodeId from = view_.GetEdge(call).src;
    const NodeId to = view_.GetEdge(call).dst;
    if (!UniqueName(from) || !UniqueName(to)) return std::nullopt;
    NodeId field = RandomNode({NodeKind::kField});
    if (field == frappe::graph::kInvalidNode) return std::nullopt;
    auto owners = Edges(field, Direction::kIn, Type(EdgeKind::kContains));
    if (owners.empty() || !UniqueName(owners.front().second)) {
      return std::nullopt;
    }
    const NodeId record = owners.front().second;
    const std::string field_name = Name(field);
    const int64_t line = EdgeInt(call, PropKey::kUseStartLine);

    // Rows of `writer -[write:writes_member]-> ({SHORT_NAME: f})
    // <-[:contains]- b`: one per write edge.
    std::vector<NodeId> writers;
    for (auto [e, member] :
         Edges(record, Direction::kOut, Type(EdgeKind::kContains))) {
      if (Name(member) != field_name) continue;
      for (auto [w, writer] :
           Edges(member, Direction::kIn, Type(EdgeKind::kWritesMember))) {
        writers.push_back(writer);
      }
    }
    // Rows of `direct <-[s:calls]- from -[r:calls{use_start_line: L}]-> to`
    // passing `r.use_start_line >= s.use_start_line` (s and r distinct).
    auto out_calls = Edges(from, Direction::kOut, calls_);
    std::vector<NodeId> directs;
    for (auto [r, r_dst] : out_calls) {
      if (r_dst != to || EdgeInt(r, PropKey::kUseStartLine) != line) continue;
      for (auto [s, s_dst] : out_calls) {
        if (s != r && EdgeInt(s, PropKey::kUseStartLine) <= line) {
          directs.push_back(s_dst);
        }
      }
    }
    const size_t checks = writers.size() * directs.size();
    if (checks == 0) return std::nullopt;
    ++stats_.debug_checks[CheckBucket(checks)];
    Instance out;
    out.kind = Kind::kDebug;
    for (NodeId writer : writers) {
      for (NodeId direct : directs) {
        out.reach_pairs.emplace_back(direct, writer);
      }
    }
    out.text = "START " + StartBy("from", Name(from)) + ", " +
               StartBy("to", Name(to)) + ", " + StartBy("b", Name(record)) +
               " MATCH writer -[write:writes_member]-> ({SHORT_NAME:'" +
               field_name +
               "'}) <-[:contains]- b WITH to, from, writer, write"
               " MATCH direct <-[s:calls]- from -[r:calls{use_start_line: " +
               std::to_string(line) +
               "}]-> to WHERE r.use_start_line >= s.use_start_line AND"
               " direct -[:calls*]-> writer"
               " RETURN distinct writer, write.use_start_line";
    return out;
  }

  // Fig. 6 (forward, every row returned) and its reverse impact question
  // (how many functions can reach this one; one counted row).
  std::optional<Instance> Closure(Direction dir) {
    NodeId fn = RandomNode({NodeKind::kFunction});
    if (fn == frappe::graph::kInvalidNode || !UniqueName(fn) ||
        Edges(fn, dir, calls_).empty()) {
      return std::nullopt;
    }
    Instance out;
    out.seed = fn;
    if (dir == Direction::kOut) {
      out.kind = Kind::kClosure;
      out.text = "START " + StartBy("n", Name(fn)) +
                 " MATCH n -[:calls*]-> m RETURN distinct m";
    } else {
      out.kind = Kind::kImpact;
      out.text = "START " + StartBy("n", Name(fn)) +
                 " MATCH n <-[:calls*]- m RETURN count(distinct m)";
    }
    return out;
  }

  const KernelRefs& k_;
  const GraphView& view_;
  Rng rng_;
  TypeId calls_;
  size_t label_turn_ = 0;
  DrawStats stats_;
};

}  // namespace

std::string_view KindName(Kind kind) {
  static constexpr std::array<std::string_view, kKindCount> kNames = {
      "code_search", "xref",  "group_label", "wildcard",
      "label_count", "debug", "closure",     "impact"};
  return kNames[static_cast<size_t>(kind)];
}

std::string_view ClassName(Class cls) {
  static constexpr std::array<std::string_view, kClassCount> kNames = {
      "lookup", "reach", "closure"};
  return kNames[static_cast<size_t>(cls)];
}

Class ClassOf(Kind kind) {
  switch (kind) {
    case Kind::kDebug: return Class::kReach;
    case Kind::kClosure:
    case Kind::kImpact: return Class::kClosure;
    default: return Class::kLookup;
  }
}

bool ParseWorkload(std::string_view name, Workload* out) {
  if (name == "interactive") *out = Workload::kInteractive;
  else if (name == "analysis") *out = Workload::kAnalysis;
  else if (name == "churn") *out = Workload::kChurn;
  else return false;
  return true;
}

Mix MixOf(Workload workload) {
  // Every kind of a workload gets the same share. This is an assumption:
  // neither the paper nor a measured trace gives the frequency of each
  // query kind in code-graph traffic.
  switch (workload) {
    case Workload::kInteractive:
      return {Kind::kCodeSearch, Kind::kXref, Kind::kGroupLabel,
              Kind::kWildcard, Kind::kLabelCount};
    case Workload::kAnalysis:
      return {Kind::kDebug, Kind::kClosure, Kind::kImpact};
    case Workload::kChurn:
      return {Kind::kCodeSearch, Kind::kXref,       Kind::kGroupLabel,
              Kind::kWildcard,   Kind::kLabelCount, Kind::kClosure};
  }
  return {};
}

size_t CheckBucket(size_t checks) {
  size_t bucket = 0;
  for (size_t upper = 8; checks > upper && bucket + 1 < kCheckBuckets;
       upper *= 2) {
    ++bucket;
  }
  return bucket;
}

// How many of a Fig. 5 pool's `size` instances each bucket gets.
std::array<size_t, kCheckBuckets> DebugQuotas(size_t size) {
  std::array<size_t, kCheckBuckets> quotas{};
  size_t total = 0;
  for (size_t b = 1; b < kCheckBuckets; ++b) {
    quotas[b] = static_cast<size_t>(kDebugBucketShare[b] * size + 0.5);
    total += quotas[b];
  }
  quotas[0] = size - std::min(total, size);
  return quotas;
}

Pools DrawPools(const KernelRefs& kernel, const Mix& mix, uint64_t seed,
                size_t per_kind, DrawStats* stats) {
  Pools pools;
  for (Kind kind : mix) {
    const size_t k = static_cast<size_t>(kind);
    Drawer drawer(kernel, seed, kind);
    std::set<std::string> seen;
    // Fig. 5 instances differ most in cost (1 to 64 reachability checks,
    // each a search of its own depth), so their pool is twice as large, and
    // one seed's pool costs about what another's does. The pool fills each
    // check bucket to its quota; other kinds take every new instance.
    const size_t size = kind == Kind::kDebug ? 2 * per_kind : per_kind;
    std::array<size_t, kCheckBuckets> room = DebugQuotas(size);
    for (size_t attempt = 0; pools[k].size() < size && attempt < size * 200;
         ++attempt) {
      std::optional<Instance> instance = drawer.Draw(kind);
      if (!instance) continue;
      size_t* bucket_room = nullptr;
      if (kind == Kind::kDebug) {
        bucket_room = &room[CheckBucket(instance->reach_pairs.size())];
        if (*bucket_room == 0) continue;
      }
      if (seen.insert(instance->text).second) {
        if (bucket_room != nullptr) --*bucket_room;
        pools[k].push_back(std::move(*instance));
      }
    }
    if (stats != nullptr && kind == Kind::kDebug) *stats = drawer.stats();
  }
  return pools;
}

OpStream::OpStream(const Pools& pools, const Mix& mix, uint64_t seed,
                   size_t client)
    : pools_(pools), rng_(SubSeed(seed, 1000 + client)) {
  for (Kind kind : mix) {
    if (!pools[static_cast<size_t>(kind)].empty()) mix_.push_back(kind);
  }
}

Op OpStream::Next() {
  if (round_.empty()) {
    round_ = mix_;
    Shuffle(&round_, &rng_);
  }
  Op op;
  op.kind = round_.back();
  round_.pop_back();
  const size_t k = static_cast<size_t>(op.kind);
  std::vector<uint32_t>& pass = passes_[k];
  if (pass.empty()) {
    pass.resize(pools_[k].size());
    for (uint32_t i = 0; i < pass.size(); ++i) pass[i] = i;
    Shuffle(&pass, &rng_);
  }
  op.instance = pass.back();
  pass.pop_back();
  return op;
}

}  // namespace perfbench
