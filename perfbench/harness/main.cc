// perfbench_harness: the benchmark's measuring program. perfbench/run.py
// builds it, then calls it in three modes:
//
//   perfbench_harness generate --scale S --out PATH
//       Writes the synthetic kernel snapshot (with its name index) that
//       every run of this build opens.
//   perfbench_harness run --workload W --seed N --seconds S --trace 0|1
//                         --snapshot PATH --report PATH [--spans PATH]
//       One benchmark run; raw measurements go to the JSON report.
//   perfbench_harness plan --workload W --seed N --snapshot PATH [--ops N]
//       Prints the instance pools, the first N operations of every client
//       and the expected answer of each, for the determinism tests.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "extractor/synthetic.h"
#include "graph/snapshot.h"
#include "json.h"
#include "model/code_graph.h"
#include "query/session.h"
#include "runner.h"

namespace {

using perfbench::JsonWriter;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness generate --scale S --out PATH\n"
               "       perfbench_harness run --workload W --seed N --seconds S"
               " --trace 0|1 --snapshot PATH --report PATH [--spans PATH]\n"
               "       perfbench_harness plan --workload W --seed N"
               " --snapshot PATH [--ops N]\n");
  return 2;
}

int Generate(double scale, const std::string& out) {
  const auto start = std::chrono::steady_clock::now();
  frappe::model::CodeGraph graph(frappe::model::CodeGraph::Validation::kOff);
  frappe::extractor::GraphScale graph_scale;
  graph_scale.factor = scale;
  frappe::extractor::GenerateKernelGraph(graph_scale, &graph);
  frappe::graph::NameIndex index = graph.BuildNameIndex();
  auto sizes = frappe::graph::SaveSnapshot(graph.view(), out, &index);
  if (!sizes.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", sizes.status().ToString().c_str());
    return 2;
  }
  JsonWriter json;
  json.BeginObject()
      .Field("nodes", static_cast<uint64_t>(graph.view().NodeCount()))
      .Field("edges", static_cast<uint64_t>(graph.view().EdgeCount()))
      .Field("bytes", sizes->total())
      .Field("seconds", std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count())
      .EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

int Plan(perfbench::Workload workload, uint64_t seed,
         const std::string& snapshot, size_t ops) {
  auto kernel = perfbench::LoadKernel(snapshot, nullptr);
  if (!kernel.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", kernel.status().ToString().c_str());
    return 2;
  }
  const perfbench::Mix mix = perfbench::MixOf(workload);
  const perfbench::Pools pools =
      perfbench::DrawPools(kernel->refs(), mix, seed, 128);
  const frappe::query::Database db = frappe::query::MakeFrappeDatabase(
      *kernel->store, kernel->schema, &kernel->names, &kernel->labels);
  JsonWriter json;
  json.BeginObject().Key("pools").BeginObject();
  for (size_t k = 0; k < perfbench::kKindCount; ++k) {
    if (pools[k].empty()) continue;
    json.Key(perfbench::KindName(static_cast<perfbench::Kind>(k)))
        .BeginArray();
    for (const auto& instance : pools[k]) json.Value(instance.text);
    json.EndArray();
  }
  json.EndObject().Key("clients").BeginArray();
  std::map<std::string, std::string> answers;  // text -> "rows:digest"
  for (size_t client = 0; client < 2; ++client) {
    perfbench::OpStream stream(pools, mix, seed, client);
    json.BeginArray();
    for (size_t i = 0; i < ops; ++i) {
      const perfbench::Op op = stream.Next();
      const auto& instance = pools[static_cast<size_t>(op.kind)][op.instance];
      json.Value(instance.text);
      if (answers.count(instance.text)) continue;
      const perfbench::Answer answer = perfbench::ComputeAnswer(db, instance);
      answers[instance.text] =
          answer.ok ? std::to_string(answer.rows) + ":" +
                          std::to_string(answer.digest)
                    : "error: " + answer.error;
    }
    json.EndArray();
  }
  json.EndArray().Key("answers").BeginObject();
  for (const auto& [text, answer] : answers) json.Field(text, answer);
  json.EndObject().EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  auto flag = [&](const char* name, const char* fallback = "") {
    auto it = flags.find(name);
    return it == flags.end() ? std::string(fallback) : it->second;
  };

  if (mode == "generate") {
    const double scale = std::atof(flag("scale", "0.2").c_str());
    if (scale <= 0 || flag("out").empty()) return Usage();
    return Generate(scale, flag("out"));
  }
  perfbench::Workload workload;
  if (!perfbench::ParseWorkload(flag("workload"), &workload) ||
      flag("snapshot").empty()) {
    return Usage();
  }
  const uint64_t seed = std::strtoull(flag("seed", "1").c_str(), nullptr, 10);
  if (mode == "plan") {
    return Plan(workload, seed, flag("snapshot"),
                std::strtoul(flag("ops", "50").c_str(), nullptr, 10));
  }
  if (mode != "run" || flag("report").empty()) return Usage();
  perfbench::RunOptions options;
  options.workload = workload;
  options.seed = seed;
  options.seconds = std::atof(flag("seconds", "10").c_str());
  options.trace = flag("trace", "0") == "1";
  options.snapshot = flag("snapshot");
  options.report = flag("report");
  options.spans = flag("spans");
  if (options.seconds <= 0) return Usage();
  return perfbench::RunBenchmark(options);
}
