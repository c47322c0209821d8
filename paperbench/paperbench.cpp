// Paper-pipeline benchmark: times the nestflow entry points the way the
// figure and table drivers run them, checks every cell it produces, and
// prints one JSON result line.
//
// Workloads (see README.md for why each was chosen):
//   fig-solve      run_simulation_sweep, N=1024: unstructured-app,
//                  unstructured-hr, bisection, flood
//   fig-events     run_simulation_sweep, N=1024: nbodies, unstructured-mgnt,
//                  allreduce, nearneighbors, sweep3d, reduce
//   fig-shuffle    run_simulation_sweep, N=512: mapreduce
//   table1-routes  run_distance_analysis, N=131072, 1M sampled pairs
// Every sweep uses bench/figure_common.hpp's options (quantum 0.01, batch
// 1e-3, hop latency 1e-6, adaptive routing on) and leaves solver threads to
// arbitrate_thread_budget, exactly as fig4_heavy / fig5_light do.
//
// --trace 0 measures the end-to-end metrics: set-up (serial build_point of
// every matrix point plus generate for every cell, repeated, median), then
// the workload's one entry call repeated until --seconds have passed
// (median wall and CPU time), then the process peak RSS.
// --trace 1 makes one untraced entry call, then replays every cell serially
// through build_point / generate / FlowEngine::run / sampled_routed_report
// with a span around each call, and derives the per-layer metrics from the
// spans' self times and the engine's phase timers.
//
// Every cell of every call is checked: exactly against the golden file for
// (workload, nodes, seed) when one exists, and always against invariants
// that hold for any seed (see check_fig_cells / check_table_rows).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/prng.hpp"

namespace {

using namespace nestflow;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------- workloads

struct BenchWorkload {
  std::string name;
  std::uint64_t nodes = 0;
  /// Figure panels run by one run_simulation_sweep call; empty for the
  /// Table 1 workload, which calls run_distance_analysis instead.
  std::vector<std::string> panels;
  [[nodiscard]] bool is_table() const { return panels.empty(); }
};

constexpr std::uint64_t kTablePairs = 1'000'000;
/// Set-up samples taken before the first entry call, and the least time one
/// sample spends repeating the set-up.
constexpr int kSetupSamples = 3;
constexpr double kSetupSampleSeconds = 0.25;
/// Seed whose golden file supplies the seed-independent columns (validity,
/// exactness, diameter) that every other seed is checked against.
constexpr std::uint64_t kPatternSeed = 42;

const std::vector<BenchWorkload>& bench_workloads() {
  static const std::vector<BenchWorkload> workloads = {
      {"fig-solve", 1024,
       {"unstructured-app", "unstructured-hr", "bisection", "flood"}},
      {"fig-events", 1024,
       {"nbodies", "unstructured-mgnt", "allreduce", "nearneighbors",
        "sweep3d", "reduce"}},
      {"fig-shuffle", 512, {"mapreduce"}},
      {"table1-routes", 131072, {}},
  };
  return workloads;
}

SimulationSweepConfig sweep_config(const BenchWorkload& w, std::uint64_t seed,
                                   std::uint32_t threads) {
  SimulationSweepConfig config;
  config.num_nodes = w.nodes;
  config.workloads = w.panels;
  config.seed = seed;
  config.threads = threads;
  config.engine.rate_quantum_rel = 0.01;
  config.engine.completion_batch_rel = 1e-3;
  config.engine.hop_latency_seconds = 1e-6;
  return config;
}

DistanceAnalysisConfig table_config(const BenchWorkload& w, std::uint64_t seed,
                                    std::uint32_t threads) {
  DistanceAnalysisConfig config;
  config.num_nodes = w.nodes;
  config.sample_pairs = kTablePairs;
  config.seed = seed;
  config.threads = threads;
  return config;
}

/// The per-cell workload context run_simulation_sweep derives, so the
/// serial set-up and the traced replay generate the identical programs.
WorkloadContext cell_context(const BenchWorkload& w, std::uint64_t seed,
                             const std::string& panel) {
  WorkloadContext context;
  context.num_tasks = static_cast<std::uint32_t>(w.nodes);
  context.seed = hash_combine(seed, std::hash<std::string>{}(panel));
  return context;
}

// ------------------------------------------------------------ measuring

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    unsigned long long kib = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %llu kB", &kib) == 1) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::string exact(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// --------------------------------------------------------- golden rows

/// One cell's physical results, formatted exactly (%.17g) so golden rows
/// compare as strings.
struct Row {
  std::string key;
  std::vector<std::string> values;
};

const std::vector<std::string> kFigColumns = {
    "valid", "makespan", "events", "num_flows", "total_bytes",
    "normalized_time"};
const std::vector<std::string> kTableColumns = {"valid", "average", "diameter",
                                                "exact"};

std::string cell_key(const SimulationCell& cell) {
  return cell.point.config_name() + "/" + cell.workload;
}

std::vector<Row> fig_rows(const std::vector<SimulationCell>& cells) {
  std::vector<Row> rows;
  for (const auto& cell : cells) {
    const auto& r = cell.result;
    rows.push_back({cell_key(cell),
                    {cell.valid ? "1" : "0", exact(r.makespan),
                     std::to_string(r.events), std::to_string(r.num_flows),
                     exact(r.total_bytes), exact(cell.normalized_time)}});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.key < b.key; });
  return rows;
}

std::vector<Row> table_rows(const std::vector<DistanceRow>& distance) {
  std::vector<Row> rows;
  for (const auto& d : distance) {
    rows.push_back({d.point.config_name(),
                    {d.valid ? "1" : "0", exact(d.average),
                     std::to_string(d.diameter), d.exact ? "1" : "0"}});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.key < b.key; });
  return rows;
}

std::string golden_path(const std::string& dir, const BenchWorkload& w,
                        std::uint64_t seed) {
  return dir + "/" + w.name + "-n" + std::to_string(w.nodes) + "-seed" +
         std::to_string(seed) + ".csv";
}

/// Reads a golden file; nullopt when it does not exist. Lines starting with
/// '#' carry provenance and are skipped; the first other line is the header.
/// Keys are quoted because point names contain commas.
std::optional<std::map<std::string, Row>> load_golden(const std::string& path,
                                                      std::size_t columns) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::map<std::string, Row> rows;
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (header) {
      header = false;
      continue;
    }
    const auto close = line.find("\",", 1);
    if (line[0] != '"' || close == std::string::npos) {
      throw std::runtime_error("malformed golden row in " + path + ": " + line);
    }
    Row row{line.substr(1, close - 1), {}};
    std::stringstream rest(line.substr(close + 2));
    for (std::string field; std::getline(rest, field, ',');) row.values.push_back(field);
    if (row.values.size() != columns) {
      throw std::runtime_error("wrong column count in " + path + ": " + line);
    }
    rows[row.key] = std::move(row);
  }
  return rows;
}

// ---------------------------------------------------------- provenance

struct Provenance {
  std::string git_sha;
  std::uint64_t seed = 0;
  std::uint32_t threads = 0;

  [[nodiscard]] std::vector<std::pair<std::string, std::string>> fields() const {
    return {{"git_sha", git_sha},
            {"compiler", std::string("gcc ") + __VERSION__},
            {"build_type", PAPERBENCH_BUILD_TYPE},
            {"nproc", std::to_string(std::thread::hardware_concurrency())},
            {"seed", std::to_string(seed)},
            {"threads", std::to_string(threads)}};
  }
};

void write_golden(const std::string& path, const BenchWorkload& w,
                  const Provenance& provenance, const std::vector<Row>& rows) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "#";
  for (const auto& [key, value] : provenance.fields()) out << " " << key << "=" << value;
  out << " workload=" << w.name << " nodes=" << w.nodes << "\n";
  out << "key";
  for (const auto& column : w.is_table() ? kTableColumns : kFigColumns) out << "," << column;
  out << "\n";
  for (const auto& row : rows) {
    out << '"' << row.key << '"';
    for (const auto& value : row.values) out << "," << value;
    out << "\n";
  }
}

// -------------------------------------------------------------- checks

/// Counts checked and failed cells and explains the first failures.
class Checker {
 public:
  /// `pinned` false ignores existing golden files (used to rewrite them).
  Checker(const BenchWorkload& w, const std::string& golden_dir,
          std::uint64_t seed, bool pinned)
      : workload_(w) {
    if (pinned) {
      const auto columns = (w.is_table() ? kTableColumns : kFigColumns).size();
      golden_ = load_golden(golden_path(golden_dir, w, seed), columns);
      pattern_ = load_golden(golden_path(golden_dir, w, kPatternSeed), columns);
    }
  }

  [[nodiscard]] bool has_golden() const { return golden_.has_value(); }

  /// Offered load of a figure panel: data flows and bytes of its program,
  /// recorded wherever the benchmark generates one.
  void offer(const std::string& panel, const TrafficProgram& program) {
    offered_[panel] = {program.num_data_flows(), program.total_bytes()};
  }

  /// Checks one call's cells. Every call must reproduce the first call's
  /// rows exactly: results are deterministic at any thread count.
  void check_fig_cells(const std::vector<SimulationCell>& cells) {
    const auto rows = fig_rows(cells);
    std::map<std::string, const SimulationCell*> by_key;
    for (const auto& cell : cells) by_key[cell_key(cell)] = &cell;
    for (const auto& row : rows) {
      const auto& cell = *by_key.at(row.key);
      std::string why = common_checks(row);
      if (why.empty()) why = fig_invariants(cell);
      record(row.key, why);
    }
    expect_cell_count(rows.size(),
                      paper_topology_matrix().size() * workload_.panels.size());
  }

  void check_table_rows(const std::vector<DistanceRow>& distance) {
    const auto rows = table_rows(distance);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::string why = common_checks(rows[i]);
      if (why.empty()) why = table_invariants(rows[i]);
      record(rows[i].key, why);
    }
    expect_cell_count(rows.size(), paper_topology_matrix().size());
  }

  [[nodiscard]] std::size_t cells_per_call() const {
    return paper_topology_matrix().size() * std::max<std::size_t>(1, workload_.panels.size());
  }

  /// A call that threw: every cell it would have produced failed.
  void fail_call(const std::string& what) {
    for (std::size_t i = 0; i < cells_per_call(); ++i) record("call", what);
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<Row>& first_rows() const { return first_rows_; }

 private:
  void record(const std::string& key, const std::string& why) {
    ++attempted_;
    if (why.empty()) return;
    if (++failed_ <= 10) {
      std::fprintf(stderr, "paperbench: cell %s failed: %s\n", key.c_str(), why.c_str());
    }
  }

  void expect_cell_count(std::size_t got, std::size_t want) {
    for (std::size_t i = got; i < want; ++i) record("missing", "cell not produced");
  }

  std::string common_checks(const Row& row) {
    if (golden_) {
      const auto it = golden_->find(row.key);
      if (it == golden_->end()) return "no golden row";
      if (it->second.values != row.values) return "differs from golden row";
    }
    const auto first = std::find_if(first_rows_.begin(), first_rows_.end(),
                                    [&](const Row& r) { return r.key == row.key; });
    if (first == first_rows_.end()) {
      first_rows_.push_back(row);
    } else if (first->values != row.values) {
      return "differs from this run's first call";
    }
    if (pattern_) {
      const auto it = pattern_->find(row.key);
      if (it == pattern_->end()) return "no pattern row";
      if (it->second.values[0] != row.values[0]) return "validity differs from pattern";
    }
    return {};
  }

  std::string fig_invariants(const SimulationCell& cell) const {
    if (!cell.valid) return {};
    const auto& r = cell.result;
    if (!(std::isfinite(r.makespan) && r.makespan > 0.0)) return "makespan not positive";
    if (r.events == 0) return "no events";
    if (r.stranded_flows != 0 || r.cancelled_flows != 0) return "stranded or cancelled flows";
    if (cell.point.label == "Fattree" && cell.normalized_time != 1.0) {
      return "reference fat-tree not normalised to 1";
    }
    const auto it = offered_.find(cell.workload);
    if (it != offered_.end()) {
      const auto [flows, bytes] = it->second;
      if (r.num_flows != flows) return "executed flows differ from the program";
      if (std::abs(r.total_bytes - bytes) > 1e-9 * bytes) {
        return "delivered bytes differ from the program";
      }
    }
    return {};
  }

  /// Sampled averages converge to the topology's routed mean: with 1M pairs
  /// the standard error is about 0.002 hops, so 0.05 is a 25-sigma band.
  std::string table_invariants(const Row& row) const {
    if (row.values[0] != "1") return {};
    const double average = std::stod(row.values[1]);
    const double diameter = std::stod(row.values[2]);
    if (!(average >= 1.0 && average <= diameter)) return "average outside [1, diameter]";
    if (pattern_) {
      const auto& p = pattern_->at(row.key).values;
      if (p[2] != row.values[2]) return "diameter differs from pattern";
      if (p[3] != row.values[3]) return "exactness differs from pattern";
      if (std::abs(std::stod(p[1]) - average) > 0.05) return "average far from pattern";
    }
    return {};
  }

  const BenchWorkload& workload_;
  std::optional<std::map<std::string, Row>> golden_;
  std::optional<std::map<std::string, Row>> pattern_;
  std::map<std::string, std::pair<std::uint64_t, double>> offered_;
  std::vector<Row> first_rows_;
  // Atomic because the watchdog reads them while a call is running.
  std::atomic<std::uint64_t> attempted_ = 0;
  std::atomic<std::uint64_t> failed_ = 0;
};

/// Ends the run when a library call does not return. Such a call cannot be
/// cancelled, and a run must still end in bounded time with the failure
/// counted. The watchdog is armed only while a library call runs (see
/// Watchdog::Call); when one runs longer than `seconds`, `on_expiry`
/// reports it and exits the process. Arming is one atomic store, cheap
/// enough to wrap each of the set-up's short calls.
class Watchdog {
 public:
  Watchdog(double seconds, std::function<void()> on_expiry)
      : limit_(seconds), on_expiry_(std::move(on_expiry)), thread_([this] { watch(); }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Arms the watchdog for the lifetime of one library call.
  class Call {
   public:
    explicit Call(Watchdog& watchdog) : watchdog_(watchdog) {
      watchdog_.deadline_ = seconds_since(watchdog_.origin_) + watchdog_.limit_;
    }
    ~Call() { watchdog_.deadline_ = kDisarmed; }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    Watchdog& watchdog_;
  };

 private:
  static constexpr double kDisarmed = std::numeric_limits<double>::infinity();

  void watch() {
    std::unique_lock lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(50), [this] { return done_; })) {
      if (seconds_since(origin_) >= deadline_) on_expiry_();
    }
  }

  const Clock::time_point origin_ = Clock::now();
  const double limit_;
  const std::function<void()> on_expiry_;
  std::atomic<double> deadline_ = kDisarmed;  // seconds since origin_
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mutex_
  std::thread thread_;
};

// ------------------------------------------------------ the entry call

struct CallSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// One untraced entry call, timed and checked.
CallSample entry_call(const BenchWorkload& w, std::uint64_t seed,
                      std::uint32_t threads, Checker& checker, Watchdog& watchdog) {
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  try {
    if (w.is_table()) {
      std::vector<DistanceRow> rows;
      {
        const Watchdog::Call call(watchdog);
        rows = run_distance_analysis(table_config(w, seed, threads));
      }
      const CallSample sample{seconds_since(start), cpu_seconds() - cpu0};
      checker.check_table_rows(rows);
      return sample;
    }
    std::vector<SimulationCell> cells;
    {
      const Watchdog::Call call(watchdog);
      cells = run_simulation_sweep(sweep_config(w, seed, threads));
    }
    const CallSample sample{seconds_since(start), cpu_seconds() - cpu0};
    checker.check_fig_cells(cells);
    return sample;
  } catch (const std::exception& e) {
    checker.fail_call(e.what());
    return {seconds_since(start), cpu_seconds() - cpu0};
  }
}

/// Serial set-up of one call: build_point for every matrix point and
/// generate for every cell whose point can be built.
void setup_once(const BenchWorkload& w, std::uint64_t seed, Checker& checker,
                Watchdog& watchdog) {
  for (const auto& point : paper_topology_matrix()) {
    try {
      const Watchdog::Call call(watchdog);
      const auto topology = build_point(point, w.nodes);
    } catch (const std::invalid_argument&) {
      continue;
    }
    for (const auto& panel : w.panels) {
      const Watchdog::Call call(watchdog);
      const auto program = make_workload(panel)->generate(cell_context(w, seed, panel));
      checker.offer(panel, program);
    }
  }
}

// -------------------------------------------------------------- tracing

/// Spans of the traced replay, kept in memory and written out at the end.
/// `timers` are engine- or callback-measured phases inside the span; they
/// count as children when self times are derived.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int cell = -1;
  std::vector<std::pair<std::string, double>> timers;
};

class Tracer {
 public:
  int open(std::string name, int parent, int cell) {
    spans_.push_back({std::move(name), now(), 0.0, parent, cell, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, std::vector<std::pair<std::string, double>> timers = {}) {
    spans_[static_cast<std::size_t>(id)].end = now();
    spans_[static_cast<std::size_t>(id)].timers = std::move(timers);
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] double now() const { return seconds_since(origin_); }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Per-layer counters recorded at the span boundaries.
struct LayerCounts {
  double flows = 0.0;          // data flows generated
  double routed = 0.0;         // flows routed by the engine, or pairs routed
  double events = 0.0;
  double solver_rounds = 0.0;
  double advance_s = 0.0, select_s = 0.0, complete_s = 0.0;  // dispatch phases
  double peak_active_flows = 0.0;
  double route_cache_hits = 0.0, route_cache_attempts = 0.0;
  double solve_cache_hits = 0.0, solve_cache_attempts = 0.0;
  double pairs = 0.0;
};

void replay_figure(const BenchWorkload& w, std::uint64_t seed, Tracer& tracer,
                   int root, LayerCounts& counts, Checker& checker, Watchdog& watchdog) {
  auto config = sweep_config(w, seed, 1);
  config.engine.time_solver = true;
  std::vector<SimulationCell> cells;
  int cell_id = 0;
  for (const auto& point : paper_topology_matrix()) {
    const int build = tracer.open("topo.build", root, -1);
    std::unique_ptr<Topology> topology;
    try {
      const Watchdog::Call call(watchdog);
      topology = build_point(point, w.nodes);
    } catch (const std::invalid_argument&) {
    }
    tracer.close(build);
    for (const auto& panel : w.panels) {
      const int id = cell_id++;
      SimulationCell& cell = cells.emplace_back();
      cell.point = point;
      cell.workload = panel;
      if (!topology) {
        cell.valid = false;
        continue;
      }
      const int span = tracer.open("core.cell", root, id);
      const int gen = tracer.open("workloads.generate", span, id);
      const auto program = [&] {
        const Watchdog::Call call(watchdog);
        return make_workload(panel)->generate(cell_context(w, seed, panel));
      }();
      tracer.close(gen);
      checker.offer(panel, program);
      counts.flows += program.num_data_flows();

      const int run = tracer.open("flowsim.run", span, id);
      {
        const Watchdog::Call call(watchdog);
        FlowEngine engine(*topology, config.engine);
        cell.result = engine.run(program);
      }
      const auto& r = cell.result;
      tracer.close(run, {{"topo.route", r.route_seconds},
                         {"flowsim.solve", r.solve_seconds},
                         {"flowsim.dispatch", r.dispatch_seconds},
                         {"flowsim.audit", r.audit_seconds}});
      tracer.close(span);
      counts.routed += static_cast<double>(r.num_flows);
      counts.events += static_cast<double>(r.events);
      counts.solver_rounds += static_cast<double>(r.solver_rounds);
      counts.advance_s += r.advance_seconds;
      counts.select_s += r.select_seconds;
      counts.complete_s += r.complete_seconds;
      counts.peak_active_flows =
          std::max(counts.peak_active_flows, static_cast<double>(r.peak_active_flows));
      counts.route_cache_hits += static_cast<double>(r.route_cache_hits);
      counts.route_cache_attempts +=
          static_cast<double>(r.route_cache_hits + r.route_cache_misses);
      counts.solve_cache_hits += static_cast<double>(r.solve_cache_hits);
      counts.solve_cache_attempts +=
          static_cast<double>(r.solve_cache_hits + r.solve_cache_misses);
    }
  }
  // Normalise to the reference fat-tree, as run_simulation_sweep does.
  for (const auto& panel : w.panels) {
    double fattree = 0.0;
    for (const auto& c : cells) {
      if (c.workload == panel && c.valid && c.point.label == "Fattree") fattree = c.result.makespan;
    }
    for (auto& c : cells) {
      if (c.workload == panel && c.valid && fattree > 0.0) {
        c.normalized_time = c.result.makespan / fattree;
      }
    }
  }
  checker.check_fig_cells(cells);
}

void replay_table(const BenchWorkload& w, std::uint64_t seed, Tracer& tracer,
                  int root, LayerCounts& counts, Checker& checker, Watchdog& watchdog) {
  const auto config = table_config(w, seed, 1);
  std::vector<DistanceRow> rows;
  int cell_id = 0;
  for (const auto& point : paper_topology_matrix()) {
    const int id = cell_id++;
    DistanceRow& row = rows.emplace_back();
    row.point = point;
    const int span = tracer.open("core.cell", root, id);
    const int build = tracer.open("topo.build", span, id);
    std::unique_ptr<Topology> topology;
    try {
      const Watchdog::Call call(watchdog);
      topology = build_point(point, config.num_nodes);
    } catch (const std::invalid_argument&) {
      row.valid = false;
    }
    tracer.close(build);
    if (topology) {
      // Each route call is timed: a span per call would not fit in memory.
      double route_s = 0.0;
      const auto route_len = [&](std::uint32_t s, std::uint32_t d) {
        const auto start = Clock::now();
        const auto hops = topology->route_distance(s, d);
        route_s += seconds_since(start);
        return hops;
      };
      const int sample = tracer.open("graph.sample", span, id);
      const auto report = [&] {
        const Watchdog::Call call(watchdog);
        return sampled_routed_report(topology->num_endpoints(), route_len,
                                     config.sample_pairs, config.seed,
                                     topology->adversarial_pairs());
      }();
      tracer.close(sample, {{"topo.route", route_s}});
      row.average = report.average;
      row.diameter = report.diameter;
      row.exact = report.exact;
      counts.pairs += static_cast<double>(report.pairs);
      counts.routed += static_cast<double>(report.pairs);
    }
    tracer.close(span);
  }
  checker.check_table_rows(rows);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Self time of every span: its duration minus its child spans and timers.
/// Returns the summed self time per span name and per timer name.
std::map<std::string, double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].end - spans[i].start;
    for (const auto& [name, seconds] : spans[i].timers) {
      self[i] -= seconds;
      by_name[name] += seconds;
    }
    if (spans[i].parent >= 0) {
      self[static_cast<std::size_t>(spans[i].parent)] -= spans[i].end - spans[i].start;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] += self[i];
  return by_name;
}

double total_duration(const std::vector<Span>& spans, const std::string& name) {
  double total = 0.0;
  for (const auto& s : spans) {
    if (s.name == name) total += s.end - s.start;
  }
  return total;
}

/// JSON lines: the provenance first, then one line per span.
void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const Provenance& provenance) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"provenance\": {";
  const auto fields = provenance.fields();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out << (i ? ", " : "") << json_string(fields[i].first) << ": " << json_string(fields[i].second);
  }
  out << "}}\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": " << json_string(s.name)
        << ", \"start\": " << exact(s.start) << ", \"end\": " << exact(s.end)
        << ", \"parent\": " << s.parent << ", \"cell\": " << s.cell << ", \"timers\": {";
    for (std::size_t t = 0; t < s.timers.size(); ++t) {
      out << (t ? ", " : "") << json_string(s.timers[t].first) << ": "
          << exact(s.timers[t].second);
    }
    out << "}}\n";
  }
}

std::vector<Metric> traced_metrics(const BenchWorkload& w, const Provenance& provenance,
                                   Checker& checker, Watchdog& watchdog,
                                   const std::string& spans_path) {
  const std::uint64_t seed = provenance.seed;
  const std::uint32_t threads = provenance.threads;
  const CallSample untraced = entry_call(w, seed, threads, checker, watchdog);

  Tracer tracer;
  LayerCounts counts;
  const int root = tracer.open("bench.replay", -1, -1);
  if (w.is_table()) {
    replay_table(w, seed, tracer, root, counts, checker, watchdog);
  } else {
    replay_figure(w, seed, tracer, root, counts, checker, watchdog);
  }
  tracer.close(root);
  const auto& spans = tracer.spans();
  if (!spans_path.empty()) write_spans(spans_path, spans, provenance);

  const auto self = self_times(spans);
  const auto get = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  std::vector<double> cell_s;
  for (const auto& s : spans) {
    if (s.name == "core.cell") cell_s.push_back(s.end - s.start);
  }
  const double traced_wall = spans[static_cast<std::size_t>(root)].end -
                             spans[static_cast<std::size_t>(root)].start;
  const double run_s = total_duration(spans, "flowsim.run");
  const double sample_total = total_duration(spans, "graph.sample");
  const double attributed = get("topo.build") + get("topo.route") +
                            get("workloads.generate") + get("flowsim.solve") +
                            get("flowsim.dispatch") + get("flowsim.audit") +
                            get("flowsim.run") + get("graph.sample");
  return {
      {"topo.build_s", get("topo.build"), "s"},
      {"topo.route_s", get("topo.route"), "s"},
      {"topo.route_us_per_flow", 1e6 * ratio(get("topo.route"), counts.routed), "us"},
      {"workloads.generate_s", get("workloads.generate"), "s"},
      {"workloads.flows", counts.flows, "count"},
      {"flowsim.run_s", run_s, "s"},
      {"flowsim.solve_s", get("flowsim.solve"), "s"},
      {"flowsim.solver_rounds", counts.solver_rounds, "count"},
      {"flowsim.dispatch_s", get("flowsim.dispatch"), "s"},
      {"flowsim.advance_s", counts.advance_s, "s"},
      {"flowsim.select_s", counts.select_s, "s"},
      {"flowsim.complete_s", counts.complete_s, "s"},
      {"flowsim.other_s", get("flowsim.run"), "s"},
      {"flowsim.events", counts.events, "count"},
      {"flowsim.us_per_event", 1e6 * ratio(run_s, counts.events), "us"},
      {"flowsim.peak_active_flows", counts.peak_active_flows, "count"},
      {"flowsim.route_cache_hit_ratio",
       ratio(counts.route_cache_hits, counts.route_cache_attempts), "frac"},
      {"flowsim.route_cache_attempts", counts.route_cache_attempts, "count"},
      {"flowsim.solve_cache_hit_ratio",
       ratio(counts.solve_cache_hits, counts.solve_cache_attempts), "frac"},
      {"flowsim.solve_cache_attempts", counts.solve_cache_attempts, "count"},
      {"graph.sample_s", get("graph.sample"), "s"},
      {"graph.pairs", counts.pairs, "count"},
      {"graph.ns_per_pair", 1e9 * ratio(sample_total, counts.pairs), "ns"},
      {"core.cell_s.p50", median(cell_s), "s"},
      {"core.cell_s.max", cell_s.empty() ? 0.0 : *std::max_element(cell_s.begin(), cell_s.end()), "s"},
      {"core.pool_efficiency",
       ratio(std::accumulate(cell_s.begin(), cell_s.end(), 0.0), threads * untraced.wall_s),
       "frac"},
      {"trace.wall_s", traced_wall, "s"},
      {"trace.overhead_frac", ratio(traced_wall - untraced.cpu_s, untraced.cpu_s), "frac"},
      {"trace.unattributed_frac", ratio(traced_wall - attributed, traced_wall), "frac"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("paperbench",
                "Paper-pipeline benchmark: times the figure/table entry "
                "points and checks every cell");
  cli.add_option("workload", "fig-solve | fig-events | fig-shuffle | table1-routes", std::nullopt);
  cli.add_option("seed", "workload and sampling seed", "42");
  cli.add_option("seconds", "measure entry calls until this many seconds pass", "10");
  cli.add_option("trace", "0: end-to-end metrics; 1: traced per-layer metrics", "0");
  cli.add_option("threads", "cross-cell thread budget (0 = min(4, nproc))", "0");
  cli.add_option("nodes", "override the workload's machine size (0 = its own)", "0");
  cli.add_option("golden-dir", "directory of golden per-cell files", "paperbench/golden");
  cli.add_flag("write-golden", "make one call and write its rows as the golden file");
  cli.add_option("out", "write the stamped result JSON to this path", "");
  cli.add_option("spans", "write the traced run's spans (JSON lines) to this path", "");
  cli.add_option("deadline", "seconds after which a library call that has not "
                 "returned ends the run, counted as failed", "150");
  cli.add_option("git-sha", "provenance: commit of the sources", "unknown");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;
  set_log_level(LogLevel::kError);

  const auto name = cli.get_string("workload");
  const auto& all = bench_workloads();
  const auto found = std::find_if(all.begin(), all.end(),
                                  [&](const BenchWorkload& w) { return w.name == name; });
  if (found == all.end()) {
    std::fprintf(stderr, "paperbench: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  BenchWorkload workload = *found;
  if (cli.get_uint("nodes") != 0) workload.nodes = cli.get_uint("nodes");

  Provenance provenance;
  provenance.git_sha = cli.get_string("git-sha");
  provenance.seed = cli.get_uint("seed");
  provenance.threads = static_cast<std::uint32_t>(cli.get_uint("threads"));
  if (provenance.threads == 0) {
    provenance.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  }
  const std::uint64_t seed = provenance.seed;
  const std::uint32_t threads = provenance.threads;
  const bool trace = cli.get_bool("trace");
  const auto golden_dir = cli.get_string("golden-dir");
  const bool write = cli.get_bool("write-golden");
  Checker checker(workload, golden_dir, seed, !write);
  const double deadline = cli.get_double("deadline");
  Watchdog watchdog(deadline, [&] {
    // Cells are recorded after their call returns, so the running call's
    // cells are not yet counted; they all failed.
    const auto cells = checker.cells_per_call();
    std::fprintf(stderr, "paperbench: a library call did not return within %g s\n", deadline);
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {}}\n",
                static_cast<unsigned long long>(checker.attempted() + cells),
                static_cast<unsigned long long>(checker.failed() + cells));
    std::fflush(stdout);
    std::_Exit(0);
  });

  if (write) {
    (void)entry_call(workload, seed, threads, checker, watchdog);
    if (checker.failed() != 0) return 1;
    const auto path = golden_path(golden_dir, workload, seed);
    write_golden(path, workload, provenance, checker.first_rows());
    std::printf("wrote %s\n", path.c_str());
    return 0;
  }

  std::vector<Metric> metrics;
  std::vector<double> setup_samples, wall_samples, cpu_samples;
  if (trace) {
    metrics = traced_metrics(workload, provenance, checker, watchdog, cli.get_string("spans"));
  } else {
    // A set-up sample is the mean pass time over at least
    // kSetupSampleSeconds (one pass when a pass is longer). Short set-ups
    // also take a sample after every entry call, so the median spans the
    // whole run rather than the few seconds of host noise at its start.
    const auto setup_sample = [&] {
      const auto start = Clock::now();
      double passes = 0.0;
      do {
        setup_once(workload, seed, checker, watchdog);
        ++passes;
      } while (seconds_since(start) < kSetupSampleSeconds);
      setup_samples.push_back(seconds_since(start) / passes);
    };
    for (int i = 0; i < kSetupSamples; ++i) setup_sample();
    // Entry calls repeat while the next one is predicted to end within the
    // budget, so a run lasts about --seconds whatever the call time.
    const auto start = Clock::now();
    const double budget = cli.get_double("seconds");
    do {
      const auto sample = entry_call(workload, seed, threads, checker, watchdog);
      wall_samples.push_back(sample.wall_s);
      cpu_samples.push_back(sample.cpu_s);
      if (median(setup_samples) < kSetupSampleSeconds) setup_sample();
    } while (seconds_since(start) + median(wall_samples) <= budget);
    const double fail_frac =
        static_cast<double>(checker.failed()) / static_cast<double>(checker.attempted());
    metrics = {
        {"wall_s", median(wall_samples), "s"},
        {"cpu_s", median(cpu_samples), "s"},
        {"setup_s", median(setup_samples), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"pass_frac", 1.0 - fail_frac, "frac"},
    };
  }

  const bool correct = checker.failed() == 0 && checker.attempted() > 0;

  std::printf("paperbench %s: seed %llu, threads %u, nodes %llu, golden %s, "
              "%s, %llu/%llu cells failed\n",
              workload.name.c_str(), static_cast<unsigned long long>(seed), threads,
              static_cast<unsigned long long>(workload.nodes),
              checker.has_golden() ? "exact" : "invariants only",
              trace ? "traced replay"
                    : (std::to_string(wall_samples.size()) + " timed calls").c_str(),
              static_cast<unsigned long long>(checker.failed()),
              static_cast<unsigned long long>(checker.attempted()));
  for (const auto& m : metrics) {
    std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << checker.attempted() << ", \"failed\": " << checker.failed()
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": "
         << exact(metrics[i].value) << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  line << "}}";

  const auto out_path = cli.get_string("out");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << "{\"workload\": " << json_string(workload.name)
        << ", \"nodes\": " << workload.nodes << ", \"trace\": " << (trace ? 1 : 0);
    for (const auto& [key, value] : provenance.fields()) {
      out << ", " << json_string(key) << ": " << json_string(value);
    }
    const auto list = [&](const char* key, const std::vector<double>& values) {
      out << ", \"" << key << "\": [";
      for (std::size_t i = 0; i < values.size(); ++i) out << (i ? ", " : "") << exact(values[i]);
      out << "]";
    };
    list("setup_samples_s", setup_samples);
    list("wall_samples_s", wall_samples);
    list("cpu_samples_s", cpu_samples);
    out << ", \"result\": " << line.str() << "}\n";
    if (!out) throw std::runtime_error("cannot write " + out_path);
  }
  std::printf("%s\n", line.str().c_str());
  return 0;
}
