#include "runner.h"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/snapshot.h"
#include "graph/traversal.h"
#include "model/code_graph.h"
#include "obs/http_listener.h"
#include "query/session.h"
#include "server/epoch.h"
#include "server/query_server.h"

namespace perfbench {

namespace {

using frappe::Result;
using frappe::Status;
using frappe::graph::Direction;
using frappe::graph::EdgeFilter;
using frappe::model::EdgeKind;
using Clock = std::chrono::steady_clock;

// Timed set-ups per run (setup_s is their median), closed-loop clients (also
// the oracle's threads, so that its transient memory is no more than the
// window's), and the churn writer's publish period. A publish costs a few
// hundred milliseconds of CPU beside the clients; at a shorter period the
// writer's share of the machine, and with it the clients' throughput, swings
// with how fast the machine happens to be.
constexpr size_t kSetupReps = 9;
constexpr size_t kClients = 2;
constexpr auto kPublishPeriod = std::chrono::milliseconds(2000);

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec / 1e6 +
         usage.ru_stime.tv_sec + usage.ru_stime.tv_usec / 1e6;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec / 1e9;
}

// Peak resident set of the process so far.
int64_t PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// Resident set of the process now (0 when /proc is not mounted).
int64_t RssKb() {
  std::ifstream statm("/proc/self/statm");
  int64_t size = 0, resident = 0;
  if (!(statm >> size >> resident)) return 0;
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

}  // namespace

Answer ComputeAnswer(const frappe::query::Database& db,
                     const Instance& instance) {
  Answer answer;
  auto result = frappe::query::RunQuery(db, instance.text);
  if (!result.ok()) {
    answer.error = result.status().ToString();
    return answer;
  }
  answer.ok = true;
  answer.rows = result->rows.size();
  std::vector<std::string> cells;
  for (const auto& row : result->rows) {
    cells.clear();
    for (const auto& value : row) cells.push_back(value.ToString(db));
    answer.digest += RowHash(cells);
  }
  // The graph layer answers the closure kinds independently: the forward
  // closure's row count and the impact query's count must both equal the
  // size of graph::TransitiveClosure from the same seed.
  if (instance.kind == Kind::kClosure || instance.kind == Kind::kImpact) {
    const bool forward = instance.kind == Kind::kClosure;
    auto calls = db.resolve_edge_type("calls");
    const size_t expected =
        frappe::graph::TransitiveClosure(
            *db.view, instance.seed,
            EdgeFilter::Of({*calls}, forward ? Direction::kOut
                                             : Direction::kIn))
            .size();
    const uint64_t got =
        forward ? answer.rows
        : result->rows.size() == 1 && result->rows[0].size() == 1
            ? static_cast<uint64_t>(result->rows[0][0].value.AsInt())
            : UINT64_MAX;
    if (got != expected) {
      answer.ok = false;
      answer.error = "RunQuery says " + std::to_string(got) +
                     " but graph::TransitiveClosure says " +
                     std::to_string(expected);
    }
  }
  return answer;
}

namespace {

using Oracle = std::array<std::vector<Answer>, kKindCount>;

// Answers every pool instance in-process on `db`, on kClients threads.
Oracle ComputeOracle(const frappe::query::Database& db, const Pools& pools) {
  Oracle oracle;
  std::vector<std::pair<size_t, size_t>> work;
  for (size_t k = 0; k < kKindCount; ++k) {
    oracle[k].resize(pools[k].size());
    for (size_t i = 0; i < pools[k].size(); ++i) work.emplace_back(k, i);
  }
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t w = next++; w < work.size(); w = next++) {
      auto [k, i] = work[w];
      oracle[k][i] = ComputeAnswer(db, pools[k][i]);
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < kClients; ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
  return oracle;
}

// --- Responses -------------------------------------------------------------

// One POST /query over a fresh HTTP/1.0 connection to 127.0.0.1:`port`;
// returns the raw response, empty on a connect, send or read failure. Like
// obs::HttpFetch, except that the socket is closed with a reset once the
// server's end-of-response arrives: a closed-loop client opens thousands of
// connections a second, and TIME_WAIT entries left behind by a normal close
// pile up across runs on one machine and slow later runs down.
std::string PostQuery(uint16_t port, std::string_view fql, int timeout_ms) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  timeval tv{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const linger abort_on_close{1, 0};
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_on_close,
             sizeof(abort_on_close));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string request =
        "POST /query HTTP/1.0\r\nContent-Length: " +
        std::to_string(fql.size()) + "\r\n\r\n" + std::string(fql);
    size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    char buf[1 << 16];
    while (sent == request.size()) {
      const ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;  // EOF: HTTP/1.0 close delimits the response
      response.append(buf, static_cast<size_t>(n));
    }
  }
  close(fd);
  return response;
}

// FNV-1a over the cells, each followed by a unit separator, then spread by
// SplitMix64 so that summing row hashes mixes well.
constexpr uint64_t kRowHashSeed = 0xcbf29ce484222325ULL;

uint64_t HashCell(uint64_t h, std::string_view cell) {
  for (unsigned char c : cell) h = (h ^ c) * 0x100000001b3ULL;
  return (h ^ 0x1f) * 0x100000001b3ULL;
}

uint64_t FinishRow(uint64_t h) { return frappe::Rng(h).Next(); }

// One read as the client saw it: fixed size, so the clients' storage is
// reserved before the window and never reallocated in it. Field order of
// the report matches kRecordFields.
struct Record {
  uint8_t kind = 0;
  uint8_t client = 0;
  uint16_t status = 0;
  bool decoded = false;  // a 200 whose body parsed
  bool fast_path = false;
  bool ok = false;  // set by verification
  uint32_t instance = 0;
  uint32_t rtt_us = 0;
  uint32_t decode_us = 0;
  uint32_t start_us = 0;  // since the window started
  uint32_t response_bytes = 0;
  uint32_t queue_us = 0, parse_us = 0, plan_us = 0, exec_us = 0,
           serialize_us = 0, total_us = 0;
  uint64_t epoch = 0;
  uint64_t rows = 0;
  uint64_t digest = 0;
  uint64_t steps = 0, db_hits = 0, cpu_us = 0, alloc_bytes = 0,
           peak_bytes = 0, scanned_bytes = 0;
};

// Reads a client's storage is reserved for, per second of window. Pages of
// the reservation the client does not reach are never touched, so they add
// nothing to the resident set; past it the vector grows as usual.
constexpr size_t kReservedReadsPerSecond = 20000;

constexpr const char* kRecordFields[] = {
    "kind",        "client",       "rtt_us",        "status",
    "ok",          "rows",         "queue_us",      "parse_us",
    "plan_us",     "exec_us",      "serialize_us",  "total_us",
    "steps",       "db_hits",      "cpu_us",        "alloc_bytes",
    "peak_bytes",  "scanned_bytes", "fast_path",    "response_bytes",
    "epoch",       "decode_us",    "start_us"};

void WriteRecord(const Record& r, JsonWriter* out) {
  out->BeginArray()
      .Value(KindName(static_cast<Kind>(r.kind)))
      .Value(static_cast<int>(r.client))
      .Value(static_cast<uint64_t>(r.rtt_us))
      .Value(static_cast<int>(r.status))
      .Value(r.ok)
      .Value(r.rows)
      .Value(static_cast<uint64_t>(r.queue_us))
      .Value(static_cast<uint64_t>(r.parse_us))
      .Value(static_cast<uint64_t>(r.plan_us))
      .Value(static_cast<uint64_t>(r.exec_us))
      .Value(static_cast<uint64_t>(r.serialize_us))
      .Value(static_cast<uint64_t>(r.total_us))
      .Value(r.steps)
      .Value(r.db_hits)
      .Value(r.cpu_us)
      .Value(r.alloc_bytes)
      .Value(r.peak_bytes)
      .Value(r.scanned_bytes)
      .Value(r.fast_path)
      .Value(static_cast<uint64_t>(r.response_bytes))
      .Value(r.epoch)
      .Value(static_cast<uint64_t>(r.decode_us))
      .Value(static_cast<uint64_t>(r.start_us))
      .EndArray();
}

uint64_t U64(const Json* object, std::string_view key) {
  return object == nullptr
             ? 0
             : static_cast<uint64_t>(std::max(0.0, object->Number(key)));
}

uint32_t U32(const Json* object, std::string_view key) {
  return static_cast<uint32_t>(std::min<uint64_t>(U64(object, key),
                                                  UINT32_MAX));
}

uint32_t MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return static_cast<uint32_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

// Digests result rows as the parser streams them (same hash as RowHash).
class RowDigest final : public RowSink {
 public:
  void Cell(std::string_view cell) override { hash_ = HashCell(hash_, cell); }
  void EndRow() override {
    digest += FinishRow(hash_);
    hash_ = kRowHashSeed;
    ++rows;
  }

  uint64_t digest = 0;
  uint64_t rows = 0;

 private:
  uint64_t hash_ = kRowHashSeed;
};

// Fills the record from a 200 response body; false (and why in `error`)
// when it does not parse.
bool DecodeResponse(std::string_view body, Record* r, std::string* error) {
  Json doc;
  RowDigest digest;
  if (!ParseJson(body, &doc, error, "rows", &digest)) return false;
  if (doc.Get("rows") == nullptr) {
    *error = "response without rows";
    return false;
  }
  r->digest = digest.digest;
  r->rows = digest.rows;
  r->epoch = static_cast<uint64_t>(doc.Number("epoch"));
  const Json* t = doc.Get("timeline");
  r->queue_us = U32(t, "queue_us");
  r->parse_us = U32(t, "parse_us");
  r->plan_us = U32(t, "plan_us");
  r->exec_us = U32(t, "exec_us");
  r->serialize_us = U32(t, "serialize_us");
  r->total_us = U32(t, "total_us");
  const Json* s = doc.Get("stats");
  r->steps = U64(s, "steps");
  r->db_hits = U64(s, "db_hits");
  r->cpu_us = U64(s, "cpu_us");
  r->alloc_bytes = U64(s, "alloc_bytes");
  r->peak_bytes = U64(s, "peak_bytes");
  r->scanned_bytes = U64(s, "scanned_bytes");
  const Json* fast = s != nullptr ? s->Get("fast_path") : nullptr;
  r->fast_path = fast != nullptr && fast->boolean;
  return true;
}

// Spans of one traced read, rebuilt from the client clock and the timeline
// the server returned: client.http covers the round trip, server.request
// the server's total, and its children the stages it reports. A span's
// self time (its duration minus its children's) is then the wire time for
// client.http and the unattributed server time for server.request.
void TraceRead(const Record& r, int64_t start_us, SpanLog* log) {
  const uint64_t op = SpanLog::NextId();
  const int64_t rtt = static_cast<int64_t>(r.rtt_us);
  const uint64_t root = log->Add(op, 0, "client.op", start_us,
                                 rtt + static_cast<int64_t>(r.decode_us));
  const uint64_t http = log->Add(op, root, "client.http", start_us, rtt);
  log->Add(op, root, "client.decode", start_us + rtt,
           static_cast<int64_t>(r.decode_us));
  if (r.status != 200) return;
  const int64_t total = static_cast<int64_t>(r.total_us);
  int64_t at = start_us + std::max<int64_t>(0, rtt - total) / 2;
  const uint64_t server = log->Add(op, http, "server.request", at, total);
  const std::pair<const char*, uint64_t> stages[] = {
      {"server.queue", r.queue_us},       {"query.parse", r.parse_us},
      {"query.plan", r.plan_us},          {"query.exec", r.exec_us},
      {"server.serialize", r.serialize_us}};
  for (const auto& [name, us] : stages) {
    log->Add(op, server, name, at, static_cast<int64_t>(us));
    at += static_cast<int64_t>(us);
  }
}

// --- Churn writer ----------------------------------------------------------

struct Publish {
  double due_s = 0;  // since the window started
  double lateness_ms = 0;
  double total_ms = 0;  // EpochManager::PublishVersion
  uint64_t sequence = 0;
  int version = 0;
  std::string error;
};

// Shared state of one run.
struct Context {
  explicit Context(Workload workload) : mix(MixOf(workload)) {}

  Pools pools;
  Mix mix;
  uint16_t port = 0;
  frappe::server::EpochManager* epochs = nullptr;
  frappe::temporal::VersionStore* versions = nullptr;  // churn only
  int next_version = 1;
  // Epoch sequence -> oracle version. Written before the window and by the
  // writer thread during it; read only after the window's threads joined.
  std::map<uint64_t, int> sequence_version;
};

struct Window {
  bool traced = false;
  double elapsed_s = 0;
  double process_cpu_s = 0;
  double client_cpu_s = 0;
  int64_t rss_peak_kb = 0;    // read as soon as the window's threads joined
  uint64_t record_bytes = 0;  // of the clients' records
  std::vector<Record> records;
  std::vector<std::string> errors;  // the first failed reads, described
  std::vector<Publish> publishes;
  SpanLog spans;
};

// Failed reads described per client, at most this many.
constexpr size_t kErrorsKept = 20;

void ClientLoop(Context& ctx, OpStream& stream, size_t client, bool traced,
                Clock::time_point start, Clock::time_point deadline,
                std::vector<Record>* records, std::vector<std::string>* errors,
                SpanLog* spans, double* cpu_s) {
  const double cpu_start = ThreadCpuSeconds();
  std::string error;
  while (Clock::now() < deadline) {
    const Op op = stream.Next();
    const Instance& instance =
        ctx.pools[static_cast<size_t>(op.kind)][op.instance];
    Record r;
    r.kind = static_cast<uint8_t>(op.kind);
    r.client = static_cast<uint8_t>(client);
    r.instance = op.instance;
    const int64_t start_us = SpanLog::Now();
    const Clock::time_point t0 = Clock::now();
    r.start_us = MicrosBetween(start, t0);
    const std::string raw = PostQuery(ctx.port, instance.text, 60000);
    const Clock::time_point t1 = Clock::now();
    r.rtt_us = MicrosBetween(t0, t1);
    const int status = frappe::obs::HttpStatusOf(raw);
    r.status = static_cast<uint16_t>(std::max(0, status));
    const std::string_view body = frappe::obs::HttpBodyOf(raw);
    r.response_bytes = static_cast<uint32_t>(body.size());
    error.clear();
    if (status == 200) {
      r.decoded = DecodeResponse(body, &r, &error);
    } else {
      error = "HTTP " + std::to_string(status) + ": " +
              std::string(body.substr(0, 200));
    }
    if (!error.empty() && errors->size() < kErrorsKept) {
      errors->push_back(std::string(KindName(op.kind)) + ": " + error);
    }
    r.decode_us = MicrosBetween(t1, Clock::now());
    if (traced) TraceRead(r, start_us, spans);
    records->push_back(r);
  }
  *cpu_s = ThreadCpuSeconds() - cpu_start;
}

void WriterLoop(Context& ctx, Clock::time_point start,
                Clock::time_point deadline, std::vector<Publish>* out) {
  for (int k = 1;; ++k) {
    const Clock::time_point due = start + k * kPublishPeriod;
    if (due >= deadline) break;
    std::this_thread::sleep_until(due);
    Publish p;
    p.due_s = std::chrono::duration<double>(due - start).count();
    p.lateness_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    p.version = ctx.next_version;
    ctx.next_version = 1 - ctx.next_version;
    const Clock::time_point t0 = Clock::now();
    auto epoch = ctx.epochs->PublishVersion(*ctx.versions, p.version);
    p.total_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (epoch.ok()) {
      p.sequence = (*epoch)->sequence;
      ctx.sequence_version[p.sequence] = p.version;
    } else {
      p.error = epoch.status().ToString();
    }
    out->push_back(std::move(p));
  }
}

Window RunWindow(Context& ctx, std::vector<OpStream>& streams, double seconds,
                 bool traced) {
  Window window;
  window.traced = traced;
  const size_t clients = streams.size();
  std::vector<std::vector<Record>> records(clients);
  std::vector<std::vector<std::string>> errors(clients);
  for (auto& r : records) {
    r.reserve(static_cast<size_t>(seconds * kReservedReadsPerSecond) + 1);
  }
  std::vector<SpanLog> spans(clients);
  std::vector<double> client_cpu(clients, 0.0);
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLoop(ctx, streams[c], c, traced, start, deadline, &records[c],
                 &errors[c], &spans[c], &client_cpu[c]);
    });
  }
  if (ctx.versions != nullptr) {
    threads.emplace_back([&] {
      WriterLoop(ctx, start, deadline, &window.publishes);
    });
  }
  for (auto& t : threads) t.join();
  window.elapsed_s = SecondsSince(start);
  window.process_cpu_s = ProcessCpuSeconds() - cpu_start;
  window.rss_peak_kb = PeakRssKb();
  for (size_t c = 0; c < clients; ++c) {
    window.client_cpu_s += client_cpu[c];
    window.record_bytes += records[c].size() * sizeof(Record);
    window.records.insert(window.records.end(), records[c].begin(),
                          records[c].end());
    window.errors.insert(window.errors.end(), errors[c].begin(),
                         errors[c].end());
  }
  for (const SpanLog& log : spans) window.spans.Append(log);
  return window;
}

// Checks every read against the oracle of the version its epoch served.
// Returns the number of failed reads; the first few failures are described.
size_t Verify(Context& ctx, const std::vector<Oracle>& oracles,
              std::vector<Window>& windows, std::vector<std::string>* notes) {
  size_t failed = 0;
  auto note = [&](std::string text) {
    if (notes->size() < 20) notes->push_back(std::move(text));
  };
  for (Window& window : windows) {
    // Reads that failed or did not decode were described by their client.
    for (const std::string& error : window.errors) note(error);
    for (Record& r : window.records) {
      const Instance& instance = ctx.pools[r.kind][r.instance];
      r.ok = false;
      if (!r.decoded) {
        ++failed;
        continue;
      }
      if (auto it = ctx.sequence_version.find(r.epoch);
          it == ctx.sequence_version.end()) {
        note("answer from unknown epoch " + std::to_string(r.epoch));
      } else {
        const Answer& expected = oracles[it->second][r.kind][r.instance];
        if (!expected.ok) {
          note("oracle failed for " + instance.text + ": " + expected.error);
        } else if (expected.rows != r.rows || expected.digest != r.digest) {
          note("wrong answer (" + std::to_string(r.rows) + " rows, " +
               std::to_string(expected.rows) + " expected) on epoch " +
               std::to_string(r.epoch) + " for " + instance.text);
        } else {
          r.ok = true;
        }
      }
      if (!r.ok) ++failed;
    }
    for (const Publish& p : window.publishes) {
      if (!p.error.empty()) {
        ++failed;
        note("publish of version " + std::to_string(p.version) + ": " +
             p.error);
      }
    }
  }
  return failed;
}

// The warm-up read of a kind: its instance with the fewest reachability
// checks (the first, for kinds without checks), so that setup_s pays the
// lazy builds, not a seed-dependent share of Fig. 5 work.
const Instance& WarmUpInstance(const std::vector<Instance>& pool) {
  return *std::min_element(pool.begin(), pool.end(),
                           [](const Instance& a, const Instance& b) {
                             return a.reach_pairs.size() <
                                    b.reach_pairs.size();
                           });
}

void WriteSpans(const std::string& path, const SpanLog& log) {
  std::ofstream out(path);
  out << "[";
  bool first = true;
  for (const Span& s : log.spans()) {
    out << (first ? "\n" : ",\n") << "[" << s.op << "," << s.id << ","
        << s.parent << ",\"" << s.name << "\"," << s.start_us << ","
        << s.dur_us << "]";
    first = false;
  }
  out << "\n]\n";
}

}  // namespace

uint64_t RowHash(const std::vector<std::string>& cells) {
  uint64_t h = kRowHashSeed;
  for (const std::string& cell : cells) h = HashCell(h, cell);
  return FinishRow(h);
}

Result<Kernel> LoadKernel(const std::string& path, SpanLog* spans) {
  Kernel kernel;
  const uint64_t op = SpanLog::NextId();
  {
    ScopedSpan span(spans, op, 0, "graph.snapshot.load");
    auto loaded = frappe::graph::LoadSnapshot(path);
    if (!loaded.ok()) return loaded.status();
    kernel.load_ms = span.ElapsedMs();
    kernel.store = std::move(loaded->store);
    if (loaded->index.has_value()) kernel.names = std::move(*loaded->index);
  }
  {
    ScopedSpan span(spans, op, 0, "graph.indexes.attach");
    kernel.schema = frappe::model::Schema::Install(kernel.store.get());
    if (kernel.names.fields().empty()) {
      frappe::model::CodeGraph scratch;  // index field specs only
      kernel.names =
          frappe::graph::NameIndex::Build(*kernel.store, scratch.IndexFields());
    }
    kernel.labels = frappe::graph::LabelIndex::Build(*kernel.store);
    kernel.attach_ms = span.ElapsedMs();
  }
  std::error_code error;
  kernel.file_bytes = std::filesystem::file_size(path, error);
  return kernel;
}

Status SeedVersions(const Kernel& kernel, uint64_t seed, size_t delta_edges,
                    frappe::temporal::VersionStore* versions) {
  const frappe::graph::GraphStore& src = *kernel.store;
  frappe::graph::GraphStore& dst = versions->raw_store();
  // Vocabularies in id order, so type, key and string ids carry over and
  // property maps copy verbatim.
  for (uint16_t i = 0; i < src.node_types().size(); ++i) {
    dst.InternNodeType(src.node_types().Name(i));
  }
  for (uint16_t i = 0; i < src.edge_types().size(); ++i) {
    dst.InternEdgeType(src.edge_types().Name(i));
  }
  for (uint16_t i = 0; i < src.keys().size(); ++i) {
    dst.InternKey(src.keys().Name(i));
  }
  for (uint32_t i = 0; i < src.strings().size(); ++i) {
    dst.InternString(src.strings().Resolve(frappe::graph::StringRef{i}));
  }
  // Entities in id order. Their first properties are written to the raw
  // store: no committed version sees them change, which is exactly when
  // VersionStore keeps no property history.
  for (NodeId id = 0; id < src.NodeIdUpperBound(); ++id) {
    if (!src.NodeExists(id)) {
      return Status::FailedPrecondition("kernel has a deleted node slot");
    }
    versions->AddNode(src.NodeType(id));
    dst.SetNodeProperties(id, src.NodeProperties(id));
  }
  for (frappe::graph::EdgeId id = 0; id < src.EdgeIdUpperBound(); ++id) {
    if (!src.EdgeExists(id)) {
      return Status::FailedPrecondition("kernel has a deleted edge slot");
    }
    const frappe::graph::Edge e = src.GetEdge(id);
    versions->AddEdge(e.src, e.dst, e.type);
    dst.SetEdgeProperties(id, src.EdgeProperties(id));
  }
  versions->CommitVersion();
  // Version 1: seeded new calls between functions.
  const auto& functions = kernel.labels.Nodes(
      kernel.schema.node_type(frappe::model::NodeKind::kFunction));
  if (functions.empty()) return Status::FailedPrecondition("no functions");
  const frappe::graph::TypeId calls =
      kernel.schema.edge_type(EdgeKind::kCalls);
  frappe::Rng rng(seed ^ 0x5eedde17aULL);
  for (size_t i = 0; i < delta_edges; ++i) {
    versions->AddEdge(functions[rng.Uniform(functions.size())],
                      functions[rng.Uniform(functions.size())], calls);
  }
  versions->CommitVersion();
  return Status::OK();
}

int RunBenchmark(const RunOptions& options) {
  SpanLog main_spans;
  Context ctx(options.workload);
  JsonWriter report;
  report.BeginObject();

  // 1. Load the kernel through the graph layer and draw the workload.
  Result<Kernel> kernel = LoadKernel(options.snapshot, &main_spans);
  if (!kernel.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", kernel.status().ToString().c_str());
    return 2;
  }
  constexpr size_t kPerKind = 128;
  DrawStats draw_stats;
  ctx.pools = DrawPools(kernel->refs(), ctx.mix, options.seed, kPerKind,
                        &draw_stats);
  for (Kind kind : ctx.mix) {
    if (ctx.pools[static_cast<size_t>(kind)].empty()) {
      std::fprintf(stderr, "perfbench: no %s instances in the kernel\n",
                   std::string(KindName(kind)).c_str());
      return 2;
    }
  }
  std::unique_ptr<frappe::temporal::VersionStore> versions;
  if (options.workload == Workload::kChurn) {
    versions = std::make_unique<frappe::temporal::VersionStore>();
    Status seeded = SeedVersions(*kernel, options.seed, kDeltaCallEdges,
                                 versions.get());
    if (!seeded.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", seeded.ToString().c_str());
      return 2;
    }
    ctx.versions = versions.get();
  }
  report.Key("kernel").BeginObject()
      .Field("nodes", static_cast<uint64_t>(kernel->store->NodeCount()))
      .Field("edges", static_cast<uint64_t>(kernel->store->EdgeCount()))
      .Field("file_bytes", kernel->file_bytes)
      .Field("load_ms", kernel->load_ms)
      .Field("attach_ms", kernel->attach_ms)
      .EndObject();
  report.Key("pools").BeginObject();
  for (size_t k = 0; k < kKindCount; ++k) {
    if (!ctx.pools[k].empty()) {
      report.Field(KindName(static_cast<Kind>(k)),
                   static_cast<uint64_t>(ctx.pools[k].size()));
    }
  }
  report.EndObject();
  if (!ctx.pools[static_cast<size_t>(Kind::kDebug)].empty()) {
    report.Key("debug_draw").BeginObject();
    report.Key("candidates_by_checks").BeginArray();
    for (uint64_t n : draw_stats.debug_checks) report.Value(n);
    report.EndArray();
    report.Key("pool_share").BeginArray();
    for (double share : kDebugBucketShare) report.Value(share);
    report.EndArray().EndObject();
  }
  // The process's resident set at each phase, to show which phase sets the
  // peak and how much of it is the harness's own.
  std::vector<std::pair<const char*, int64_t>> rss_phases;
  rss_phases.emplace_back("kernel_loaded", RssKb());
  // The plain run measures the server without the harness's own copy of
  // the kernel resident, nor its freed pages; the traced run keeps it for
  // the layer probes.
  Pools probe_pools;
  if (options.trace) {
    Mix all;
    for (size_t k = 0; k < kKindCount; ++k) all.push_back(static_cast<Kind>(k));
    probe_pools = DrawPools(kernel->refs(), all, options.seed ^ 0xfeed, 16);
  } else {
    kernel->store.reset();
    kernel->names = {};
    kernel->labels = {};
    malloc_trim(0);
    rss_phases.emplace_back("kernel_released", RssKb());
  }

  // 2. Set-up, timed, several times: snapshot open (load + CRC), index
  //    attach, epoch publish, server start, one warm-up read per kind.
  std::unique_ptr<frappe::server::EpochManager> epochs;
  std::unique_ptr<frappe::server::QueryServer> server;
  report.Key("setup").BeginArray();
  // Later set-ups reuse the heap earlier ones freed, as a server re-opening
  // a snapshot would.
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    epochs.reset();
    const Clock::time_point t0 = Clock::now();
    epochs = std::make_unique<frappe::server::EpochManager>();
    auto published = epochs->PublishSnapshotFile(options.snapshot);
    if (!published.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   published.status().ToString().c_str());
      return 2;
    }
    const double publish_s = SecondsSince(t0);
    auto started = frappe::server::QueryServer::Start({}, epochs.get());
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   started.status().ToString().c_str());
      return 2;
    }
    server = std::move(*started);
    const double start_s = SecondsSince(t0) - publish_s;
    for (size_t k = 0; k < kKindCount; ++k) {
      if (ctx.pools[k].empty()) continue;
      const std::string raw =
          PostQuery(server->port(), WarmUpInstance(ctx.pools[k]).text, 60000);
      if (frappe::obs::HttpStatusOf(raw) != 200) {
        std::fprintf(stderr, "perfbench: warm-up %s failed: %s\n",
                     std::string(KindName(static_cast<Kind>(k))).c_str(),
                     raw.substr(0, 300).c_str());
        return 2;
      }
    }
    const double total_s = SecondsSince(t0);
    report.BeginObject()
        .Field("total_s", total_s)
        .Field("publish_s", publish_s)
        .Field("server_start_s", start_s)
        .Field("warmup_s", total_s - publish_s - start_s)
        .EndObject();
  }
  report.EndArray();
  ctx.port = server->port();
  ctx.epochs = epochs.get();
  rss_phases.emplace_back("set_up", RssKb());
  rss_phases.emplace_back("set_up_peak", PeakRssKb());

  // 3. The oracle: every instance answered in-process on the epoch it will
  //    be served from (per version on churn).
  const Clock::time_point oracle_start = Clock::now();
  std::vector<Oracle> oracles(versions != nullptr ? 2 : 1);
  if (versions != nullptr) {
    for (int version : {1, 0}) {
      auto epoch = epochs->PublishVersion(*versions, version);
      if (!epoch.ok()) {
        std::fprintf(stderr, "perfbench: %s\n",
                     epoch.status().ToString().c_str());
        return 2;
      }
      ctx.sequence_version[(*epoch)->sequence] = version;
      oracles[version] = ComputeOracle((*epoch)->db, ctx.pools);
    }
  } else {
    auto epoch = epochs->Current();
    ctx.sequence_version[epoch->sequence] = 0;
    oracles[0] = ComputeOracle(epoch->db, ctx.pools);
  }
  const double oracle_s = SecondsSince(oracle_start);
  rss_phases.emplace_back("oracle", RssKb());
  rss_phases.emplace_back("oracle_peak", PeakRssKb());
  std::vector<std::string> notes;
  size_t oracle_failures = 0;
  for (const Oracle& oracle : oracles) {
    for (size_t k = 0; k < kKindCount; ++k) {
      for (size_t i = 0; i < oracle[k].size(); ++i) {
        if (!oracle[k][i].ok) {
          ++oracle_failures;
          if (notes.size() < 20) {
            notes.push_back("oracle: " + ctx.pools[k][i].text + ": " +
                            oracle[k][i].error);
          }
        }
      }
    }
  }

  // 4. The measured window(s). A traced run measures half its time plain
  //    and half traced, so the tracing overhead is a same-process difference.
  std::vector<OpStream> streams;
  for (size_t c = 0; c < kClients; ++c) {
    streams.emplace_back(ctx.pools, ctx.mix, options.seed, c);
  }
  std::vector<Window> windows;
  if (options.trace) {
    windows.push_back(RunWindow(ctx, streams, options.seconds / 2, false));
    windows.push_back(RunWindow(ctx, streams, options.seconds / 2, true));
  } else {
    windows.push_back(RunWindow(ctx, streams, options.seconds, false));
  }
  rss_phases.emplace_back("window_end", RssKb());
  server->Stop();
  const size_t failed = Verify(ctx, oracles, windows, &notes);

  // 5. Direct layer probes (traced runs).
  if (options.trace) {
    RunLayerProbes(*kernel, probe_pools, options.seed, &main_spans, &report);
  }

  // 6. The report.
  size_t attempted = 0;
  report.Key("windows").BeginArray();
  for (const Window& window : windows) {
    attempted += window.records.size() + window.publishes.size();
    report.BeginObject()
        .Field("traced", window.traced)
        .Field("elapsed_s", window.elapsed_s)
        .Field("process_cpu_s", window.process_cpu_s)
        .Field("client_cpu_s", window.client_cpu_s)
        .Field("rss_peak_kb", window.rss_peak_kb)
        .Field("record_bytes", window.record_bytes);
    report.Key("records").BeginArray();
    for (const Record& r : window.records) WriteRecord(r, &report);
    report.EndArray();
    report.Key("publishes").BeginArray();
    for (const Publish& p : window.publishes) {
      report.BeginObject()
          .Field("due_s", p.due_s)
          .Field("lateness_ms", p.lateness_ms)
          .Field("total_ms", p.total_ms)
          .Field("version", p.version)
          .Field("ok", p.error.empty())
          .EndObject();
    }
    report.EndArray();
    report.EndObject();
    main_spans.Append(window.spans);
  }
  report.EndArray();
  report.Key("kind_class").BeginObject();
  for (size_t k = 0; k < kKindCount; ++k) {
    report.Field(KindName(static_cast<Kind>(k)),
                 ClassName(ClassOf(static_cast<Kind>(k))));
  }
  report.EndObject();
  report.Key("record_fields").BeginArray();
  for (const char* field : kRecordFields) report.Value(field);
  report.EndArray();
  report.Key("rss_kb").BeginObject();
  for (const auto& [phase, kb] : rss_phases) report.Field(phase, kb);
  report.EndObject();
  report.Field("oracle_s", oracle_s)
      .Field("oracle_failures", static_cast<uint64_t>(oracle_failures))
      .Field("attempted", static_cast<uint64_t>(attempted))
      .Field("failed", static_cast<uint64_t>(failed + oracle_failures))
      .Field("lanes", static_cast<uint64_t>(
                          frappe::ThreadPool::ResolveThreads(0)))
      .Field("hardware_concurrency",
             static_cast<uint64_t>(std::thread::hardware_concurrency()))
      .Field("build_type", PERFBENCH_BUILD_TYPE)
      .Field("server_workers",
             static_cast<uint64_t>(
                 frappe::server::QueryServer::Options{}.workers))
      .Field("clients", static_cast<uint64_t>(kClients));
  report.Key("notes").BeginArray();
  for (const std::string& n : notes) report.Value(n);
  report.EndArray();
  report.EndObject();

  std::ofstream out(options.report);
  out << report.str() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.report.c_str());
    return 2;
  }
  if (options.trace && !options.spans.empty()) {
    WriteSpans(options.spans, main_spans);
  }
  return failed + oracle_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
