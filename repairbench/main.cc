// End-to-end repair benchmark. One run generates one workload's inputs
// from its seeds, then either times ReadCsvString + Repairer::Repair on
// the dirty CSV text (--trace 0, the end-to-end metrics) or replays the
// pipeline layer by layer (--trace 1, the per-layer metrics). Every
// output is checked. The last line of standard output is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the line before it is a stamp with the build type, CPU count,
// threads, seeds, samples, quality and load averages.
//
// Usage: repairbench --workload NAME [--seed N] [--gen-seed N]
//                    [--seconds S] [--trace 0|1]
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check.h"
#include "common/budget.h"
#include "common/timer.h"
#include "core/repairer.h"
#include "data/csv.h"
#include "eval/quality.h"
#include "replay.h"
#include "workload.h"

#ifndef REPAIRBENCH_BUILD_TYPE
#define REPAIRBENCH_BUILD_TYPE ""
#endif

namespace repairbench {
namespace {

using ftrepair::RepairOptions;
using ftrepair::RepairResult;
using ftrepair::Table;
using ftrepair::Timer;

// Metric names and units; run.py checks them against BENCHMARK.json.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"repair_s", "s"},
    {"setup_s", "s"},
    {"repair_rss_mb", "MB"},
    {"cell_accuracy", "fraction"},
};
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"data.read_csv_ms", "ms"},
    {"detect.count_before_ms", "ms"},
    {"detect.graph_ms", "ms"},
    {"detect.patterns", "count"},
    {"detect.candidates_generated", "count"},
    {"detect.candidates_verified", "count"},
    {"detect.edges", "count"},
    {"detect.edge_yield", "fraction"},
    {"solve.greedy_multi_ms", "ms"},
    {"solve.appro_multi_ms", "ms"},
    {"solve.chosen", "count"},
    {"solve.wall_ms", "ms"},
    {"solve.busy_ms", "ms"},
    {"targets.assign_ms", "ms"},
    {"targets.nodes_visited", "count"},
    {"targets.nodes_pruned", "count"},
    {"apply.ms", "ms"},
    {"apply.cells", "count"},
    {"stats.recount_ms", "ms"},
    {"budget.units_charged", "count"},
    {"budget.degradations", "count"},
    {"budget.first_degradation_ms", "ms"},
    {"memory.peak_charged_mb", "MB"},
    {"replay.untraced_ms", "ms"},
    {"replay.stage_sum_ms", "ms"},
    {"replay.ratio", "fraction"},
    {"share.detect", "fraction"},
    {"share.solve", "fraction"},
    {"share.targets", "fraction"},
};

struct Args {
  std::string workload;
  uint64_t noise_seed = 42;
  uint64_t gen_seed = 7;
  double seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->noise_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--gen-seed") {
      args->gen_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string LoadAverage() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) return "null";
  return "[" + Num(load[0]) + ", " + Num(load[1]) + ", " + Num(load[2]) + "]";
}

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

// Resets the process's peak resident set size to the current one
// (Linux clear_refs "5"), so that the next PeakRssMb covers one call.
void ResetPeakRss() {
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// Peak resident set size (VmHWM) since the last reset, in MiB.
double PeakRssMb() {
  double kib = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

// One timed call: CSV text to repaired table, as a user of the library
// runs it. The deadline budget starts after the read, right before
// Repair, like the CLI's --deadline-ms.
struct Call {
  Table input;
  ftrepair::Result<RepairResult> result = ftrepair::Status::Internal("unset");
  double seconds = 0;
  uint64_t budget_units = 0;
};

Call TimedRepair(const std::string& csv, const Inputs& in,
                 const Workload& workload, const RepairOptions& base) {
  Call call;
  Timer timer;
  auto table = ftrepair::ReadCsvString(csv);
  if (!table.ok()) {
    call.result = table.status();
    return call;
  }
  RepairOptions options = base;
  std::unique_ptr<ftrepair::Budget> budget;
  if (workload.deadline_ms > 0) {
    budget = std::make_unique<ftrepair::Budget>(workload.deadline_ms);
    options.budget = budget.get();
  }
  call.result =
      ftrepair::Repairer(options).Repair(table.value(), in.dataset.fds);
  call.seconds = timer.Seconds();
  if (budget != nullptr) call.budget_units = budget->units_charged();
  call.input = std::move(table).value();
  return call;
}

// Bit-identical changes and repair cost.
bool SameRepair(const RepairResult& a, const RepairResult& b) {
  if (a.changes.size() != b.changes.size()) return false;
  for (size_t i = 0; i < a.changes.size(); ++i) {
    const ftrepair::CellChange& x = a.changes[i];
    const ftrepair::CellChange& y = b.changes[i];
    if (x.row != y.row || x.col != y.col || x.old_value != y.old_value ||
        x.new_value != y.new_value) {
      return false;
    }
  }
  return std::memcmp(&a.stats.repair_cost, &b.stats.repair_cost,
                     sizeof(double)) == 0;
}

void PrintResult(bool correct, int attempted, int failed,
                 const std::vector<std::pair<const char*, const char*>>& names,
                 const std::map<std::string, double>& values) {
  std::string metrics;
  for (const auto& [name, unit] : names) {
    auto it = values.find(name);
    if (it == values.end()) continue;
    if (!metrics.empty()) metrics += ", ";
    metrics += Quote(name) + ": {\"value\": " + Num(it->second) +
               ", \"unit\": " + Quote(unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  const std::string build_type = REPAIRBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr,
                 "refused: build type '%s' is not optimized; build with "
                 "Release or RelWithDebInfo\n",
                 build_type.c_str());
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string load_before = LoadAverage();
  const std::string self_test = SelfTestChecker();
  if (!self_test.empty()) {
    std::fprintf(stderr, "checker self-test failed: %s\n", self_test.c_str());
  }

  // Set-up five times; the median is setup_s.
  std::vector<double> setup_s;
  std::unique_ptr<Inputs> in;
  for (int i = 0; i < 5; ++i) {
    Timer timer;
    auto made = MakeInputs(workload->rows, args.gen_seed, args.noise_seed,
                           kInstances);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(timer.Seconds());
    in = std::make_unique<Inputs>(std::move(made).value());
  }
  const RepairOptions options = MakeOptions(*workload, in->dataset);
  const Table clean_text = AsText(in->dataset.clean);

  int attempted = 0;
  int failed = 0;
  bool fidelity = true;
  std::vector<double> repair_s;
  std::vector<double> repair_rss_mb;
  std::map<std::string, std::vector<double>> layer_samples;
  // Per dirty instance, from its first checked call; the stamp shows
  // instance 0, which at the default seeds is the ROADMAP baseline input.
  std::vector<double> accuracy(in->dirty_csv.size(), -1);
  ftrepair::Quality quality;
  int cells_changed = 0;
  size_t degradations = 0;
  auto note_failure = [&](const std::string& what) {
    ++failed;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  };

  // Calls are repeated until their summed time reaches --seconds, and
  // untraced runs until every instance was repaired once; a traced
  // iteration is one untraced reference call plus one replay.
  double measured = 0;
  while (attempted == 0 || measured < args.seconds ||
         (args.trace == 0 && repair_s.size() < in->dirty_csv.size())) {
    const size_t instance = repair_s.size() % in->dirty_csv.size();
    const std::string& csv = in->dirty_csv[instance];
    // Each call starts from a trimmed heap, as in a fresh process. Its
    // memory is the peak resident set it adds to what the benchmark
    // already holds, whose size depends on the harness's own heap.
    malloc_trim(0);
    ResetPeakRss();
    const double resident_mb = PeakRssMb();
    Call call = TimedRepair(csv, *in, *workload, options);
    repair_rss_mb.push_back(PeakRssMb() - resident_mb);
    ++attempted;
    measured += call.seconds;
    repair_s.push_back(call.seconds);
    std::string verdict =
        call.result.ok() ? CheckRepair(call.input, in->dataset.fds, options,
                                       call.result.value())
                         : call.result.status().ToString();
    if (!verdict.empty()) {
      note_failure(verdict);
      continue;
    }
    const RepairResult& reference = call.result.value();
    if (accuracy[instance] < 0) {
      accuracy[instance] = CellAccuracy(reference.repaired, clean_text);
    }
    degradations = reference.stats.degradations.size();
    if (instance == 0) {
      quality = ftrepair::EvaluateRepair(
          AsText(call.input), AsText(reference.repaired), clean_text);
      cells_changed = reference.stats.cells_changed;
    }
    if (args.trace == 0) continue;

    Timer replay_timer;
    auto replayed = ReplayPipeline(csv, in->dataset.fds, options,
                                   workload->deadline_ms);
    measured += replay_timer.Seconds();
    ++attempted;
    if (!replayed.ok()) {
      note_failure("replay: " + replayed.status().ToString());
      continue;
    }
    Replay& replay = replayed.value();
    verdict = CheckRepair(call.input, in->dataset.fds, options, replay.result);
    if (!verdict.empty()) {
      note_failure("replay: " + verdict);
      continue;
    }
    // Without a deadline the replay must reproduce Repair exactly.
    if (workload->deadline_ms == 0 && replay.mismatch.empty() &&
        !SameRepair(replay.result, reference)) {
      replay.mismatch = "changes or cost differ from Repair";
    }
    if (workload->deadline_ms == 0 && !replay.mismatch.empty()) {
      fidelity = false;
      note_failure("replay fidelity: " + replay.mismatch);
      continue;
    }
    std::map<std::string, double>& m = replay.metrics;
    const double untraced_ms = call.seconds * 1000.0;
    m["budget.units_charged"] = static_cast<double>(call.budget_units);
    m["budget.degradations"] = static_cast<double>(degradations);
    m["budget.first_degradation_ms"] =
        degradations > 0 ? reference.stats.degradations.front().elapsed_ms
                         : 0.0;
    m["replay.untraced_ms"] = untraced_ms;
    m["replay.ratio"] = m["replay.stage_sum_ms"] / untraced_ms;
    m["share.detect"] =
        (m["detect.count_before_ms"] + m["detect.graph_ms"]) / untraced_ms;
    m["share.solve"] =
        (m["solve.greedy_multi_ms"] + m["solve.appro_multi_ms"]) /
        untraced_ms;
    m["share.targets"] = m["targets.assign_ms"] / untraced_ms;
    for (const auto& [name, value] : m) layer_samples[name].push_back(value);
  }

  const bool correct = failed == 0 && self_test.empty() && fidelity;
  std::map<std::string, double> values;
  if (args.trace == 0) {
    values["repair_s"] = Median(repair_s);
    values["setup_s"] = Median(setup_s);
    values["repair_rss_mb"] = Median(repair_rss_mb);
    double sum = 0;
    for (double a : accuracy) sum += a;
    values["cell_accuracy"] = sum / static_cast<double>(accuracy.size());
  } else if (fidelity) {
    for (const auto& [name, samples] : layer_samples) {
      values[name] = Median(samples);
    }
  }

  const int nproc = AffinityCpus();
  const std::string load_after = LoadAverage();
  double load_now[1] = {0};
  std::string load_guard = "ok";
  if (getloadavg(load_now, 1) == 1 && load_now[0] > nproc) {
    load_guard = "load average " + Num(load_now[0]) + " exceeds nproc " +
                 std::to_string(nproc) + "; figures are not recordable";
  }
  std::string samples;
  for (double s : repair_s) samples += (samples.empty() ? "" : ", ") + Num(s);
  std::printf(
      "stamp: {\"workload\": %s, \"rows\": %d, \"build_type\": %s, "
      "\"nproc\": %d, \"threads\": %d, \"gen_seed\": %llu, "
      "\"noise_seed\": %llu, \"trace\": %d, \"repair_s_samples\": [%s], "
      "\"cells_changed\": %d, \"degradations\": %zu, \"precision\": %s, "
      "\"recall\": %s, \"f1\": %s, \"load_before\": %s, "
      "\"load_after\": %s, \"load_guard\": %s}\n",
      Quote(workload->name).c_str(), workload->rows,
      Quote(build_type).c_str(), nproc, options.threads,
      static_cast<unsigned long long>(args.gen_seed),
      static_cast<unsigned long long>(args.noise_seed), args.trace,
      samples.c_str(), cells_changed, degradations,
      Num(quality.precision).c_str(), Num(quality.recall).c_str(),
      Num(quality.f1).c_str(), load_before.c_str(), load_after.c_str(),
      Quote(load_guard).c_str());
  PrintResult(correct, attempted, failed,
              args.trace == 0 ? kEndToEnd : kPerLayer, values);
  return 0;
}

}  // namespace
}  // namespace repairbench

int main(int argc, char** argv) {
  repairbench::Args args;
  if (!repairbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: repairbench --workload NAME [--seed N] "
                 "[--gen-seed N] [--seconds S] [--trace 0|1]\n");
    return 2;
  }
  return repairbench::Run(args);
}
