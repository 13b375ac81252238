// renoc_perfbench: runs one workload of the repository benchmark.
//
//   renoc_perfbench --workload stream|study|noc_load --seed N --seconds S
//                   --trace 0|1 [--out-dir DIR] [--git-sha SHA]
//
// --trace 0 times the untraced program (the library called the way a user
// calls it) and reports the end-to-end metrics; --trace 1 runs the
// untraced and the traced program and reports the per-layer metrics. The
// last line on stdout is one JSON object with the keys correct, attempted,
// failed and metrics. The run also writes a result record stamped with a
// machine fingerprint (and, traced, a Chrome trace-event file) into
// --out-dir. perfbench/run.py builds this program and is the entry point.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "trace.hpp"
#include "util/json.hpp"
#include "util/simd.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
};

struct Metric {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json lists; every run prints all of them.
// Times are corrected to the reference kernel's nominal speed (see
// run_untraced).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"sim_mcycles_per_s", "Mcycles/s"},
    {"peak_rss_mb", "MB"},
};

// Uncorrected host-time figures of the same passes (medians), printed and
// recorded.
constexpr Metric kHostTime[] = {
    {"host_wall_s", "s"},
    {"host_sim_mcycles_per_s", "Mcycles/s"},
    {"reference_s", "s"},
};

// Self time of each span name as a share of one traced setup plus one
// traced pass.
constexpr Metric kSpanShares[] = {
    {"noc.decode_block.pct", "%"},
    {"core.migrate.pct", "%"},
    {"ldpc.golden_decode.pct", "%"},
    {"ldpc.build_chip.pct", "%"},
    {"mapping.place.pct", "%"},
    {"thermal.build_rc_network.pct", "%"},
    {"thermal.steady_factor.pct", "%"},
    {"power.power_map.pct", "%"},
    {"core.thermal_run_first.pct", "%"},
    {"core.thermal_run_warm.pct", "%"},
    {"noc.scenario_pristine.pct", "%"},
    {"noc.scenario_degraded.pct", "%"},
};

// Simulated per-layer counts the traced pass reports.
constexpr Metric kCounts[] = {
    {"noc.block_cycles", "cycles"},
    {"noc.link_flits_per_cycle", "flits/cycle"},
    {"core.migration_cycles", "cycles"},
    {"core.state_flits", "flits"},
    {"mapping.improving_moves", "count"},
    {"thermal.nodes", "count"},
    {"core.thermal_orbits", "count"},
    {"noc.accepted_flit_rate", "flits/node/cyc"},
    {"noc.avg_latency_cycles", "cycles"},
    {"noc.retried", "count"},
    {"noc.unreachable", "count"},
};

const char* const kUsage =
    "usage: renoc_perfbench --workload stream|study|noc_load --seed N "
    "--seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]\n";

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value, &used);
        if (used != value.size()) return false;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value, &used);
        if (used != value.size() || !(args.seconds > 0)) return false;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else if (flag == "--git-sha") {
        args.git_sha = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return args.workload == "stream" || args.workload == "study" ||
         args.workload == "noc_load";
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "stream") return make_stream_workload(args.seed);
  if (args.workload == "study") return make_study_workload(args.seed);
  return make_noc_load_workload(args.seed);
}

double fastest(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Process high-water resident set (VmHWM) in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

struct Fingerprint {
  int nproc = 0;
  std::string simd_tier;
  std::string compiler = PERFBENCH_COMPILER;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string git_sha;
  bool release = false;

  void write(renoc::JsonWriter& json) const {
    json.key("nproc").integer(nproc);
    json.key("simd_tier").string(simd_tier);
    json.key("compiler").string(compiler);
    json.key("build_type").string(build_type);
    json.key("git_sha").string(git_sha);
    json.key("release").boolean(release);
  }
};

Fingerprint fingerprint(const Args& args) {
  Fingerprint fp;
  cpu_set_t cpus;
  fp.nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                 ? CPU_COUNT(&cpus)
                 : 0;
  fp.simd_tier = renoc::simd::active_tier_name();
  fp.git_sha = args.git_sha;
#ifdef NDEBUG
  fp.release = fp.build_type == "Release";
#endif
  return fp;
}

/// The correctness gate: failed operations plus any simulated result that
/// does not repeat.
class Gate {
 public:
  /// A pass of the untraced program; its simulated integers must equal
  /// those of the first such pass.
  void untraced(const PassResult& r) {
    count(r);
    if (!reference_) {
      reference_ = r;
      return;
    }
    fail(r.attempted, "untraced pass repeated with different simulated "
                      "integers",
         int_mismatches(r, *reference_));
  }

  /// A pass of the traced program; it must reproduce the untraced one.
  void traced(const PassResult& r) {
    count(r);
    fail(r.attempted, "traced program differs from the untraced one",
         int_mismatches(r, *reference_) + real_mismatches(r, *reference_));
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && problems_.empty(); }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  static int int_mismatches(const PassResult& a, const PassResult& b) {
    if (a.ints.size() != b.ints.size()) return 1;
    int n = 0;
    for (std::size_t i = 0; i < a.ints.size(); ++i) n += a.ints[i] != b.ints[i];
    return n;
  }

  void count(const PassResult& r) {
    attempted_ += r.attempted;
    failed_ += r.failed;
  }

  // util/json's golden tolerance for reals.
  static int real_mismatches(const PassResult& a, const PassResult& b) {
    if (a.reals.size() != b.reals.size()) return 1;
    int n = 0;
    for (std::size_t i = 0; i < a.reals.size(); ++i)
      n += !(std::abs(a.reals[i] - b.reals[i]) <=
             std::max(1e-6, 5e-4 * std::abs(b.reals[i])));
    return n;
  }

  void fail(int attempted, const char* what, int mismatches) {
    if (mismatches == 0) return;
    failed_ += std::min(attempted, mismatches);
    problems_.push_back(std::string(what) + " (" +
                        std::to_string(mismatches) + " values)");
  }

  std::optional<PassResult> reference_;
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<std::string> problems_;
};

/// Runs `body` until `seconds` have elapsed and at least twice; returns
/// each repetition's wall time.
template <class Body>
std::vector<double> repeat_for(double seconds, Body&& body) {
  std::vector<double> walls;
  const Clock::time_point t0 = Clock::now();
  while (walls.size() < 2 || seconds_since(t0) < seconds) {
    const Clock::time_point start = Clock::now();
    body();
    walls.push_back(seconds_since(start));
  }
  return walls;
}

constexpr int kMinPasses = 3;
// Set-up runs again before every pass, for about this share of the
// previous pass's time (at most kMaxSetupBurst times), so its samples,
// like the passes', are spread over the whole run and its noise.
constexpr double kSetupShare = 0.1;
constexpr int kMaxSetupBurst = 1000;

// A fixed kernel owned by the benchmark, never by the library: a branchy
// integer sweep like the fabric's stepping and a dependent floating-point
// sweep like the thermal solves, all in L1/L2. Timed right before and
// after every pass, on as many threads as the pass uses, it measures how
// fast the host runs at that moment.
class ReferenceKernel {
 public:
  ReferenceKernel() : words_(1 << 14), field_(1 << 13, 1.0) {
    std::uint64_t x = 88172645463325252ull;
    for (std::uint32_t& w : words_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      w = static_cast<std::uint32_t>(x);
    }
  }

  void run() {
    std::uint64_t a = 0, b = 0, c = 0, d = 0;
    for (int it = 0; it < 100; ++it)
      for (std::size_t i = 0; i < words_.size(); i += 4) {
        const std::uint32_t v0 = words_[i], v1 = words_[i + 1];
        const std::uint32_t v2 = words_[i + 2], v3 = words_[i + 3];
        if (v0 & 1u) a += v0 >> 3; else b ^= v0;
        if ((v1 >> 5) & 1u) c += v1; else d += v1 >> 2;
        if (v2 % 3u == 0) a ^= v2; else b += v2 >> 1;
        if (v3 & 0x10u) words_[i + 3] = v3 * 2654435761u; else d ^= v3;
        words_[i] = v0 + static_cast<std::uint32_t>(a & 7u);
      }
    double acc = 0.0;
    for (int it = 0; it < 100; ++it)
      for (std::size_t i = 1; i + 1 < field_.size(); ++i) {
        field_[i] = 0.25 * (field_[i - 1] + 2.0 * field_[i] + field_[i + 1]) +
                    1e-9 * static_cast<double>(i & 7u);
        acc += field_[i];
      }
    sink_ = acc + static_cast<double>(a + b + c + d);
  }

 private:
  std::vector<std::uint32_t> words_;
  std::vector<double> field_;
  volatile double sink_ = 0.0;
};

/// Wall time of one kernel run on each of `threads` threads at once.
double reference_seconds(std::vector<ReferenceKernel>& kernels) {
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::jthread> others;
    for (std::size_t t = 1; t < kernels.size(); ++t)
      others.emplace_back([&kernels, t] { kernels[t].run(); });
    kernels[0].run();
  }
  return seconds_since(t0);
}

// The reference kernel's typical time on a 4-vCPU Sapphire Rapids Xeon
// VM. Corrected times are time/reference ratios scaled by it, so they read
// as seconds on such a host at that speed.
constexpr double kReferenceNominalS = 0.0125;

struct Outcome {
  std::vector<std::pair<Metric, double>> metrics;  // the result line
  std::vector<std::pair<Metric, double>> host;     // printed and recorded
  std::map<std::string, double> accuracy;
  std::vector<std::string> notes;  // extra human-readable lines
  std::vector<double> pass_walls;  // every timed pass, in run order
  std::vector<double> ref_walls;   // reference kernel around each pass
};

Outcome run_untraced(Workload& w, const Args& args, Gate& gate) {
  std::vector<ReferenceKernel> kernels(
      static_cast<std::size_t>(w.threads()));
  std::vector<double> setups;  // corrected seconds
  std::vector<double> walls;
  std::vector<double> refs;
  std::vector<double> ratios;
  PassResult first;
  const Clock::time_point t0 = Clock::now();
  while (walls.size() < kMinPasses || seconds_since(t0) < args.seconds) {
    const double ref_before = reference_seconds(kernels);
    const double burst = kSetupShare * (walls.empty() ? 0.0 : walls.back());
    const Clock::time_point b0 = Clock::now();
    for (int rep = 0; rep < kMaxSetupBurst; ++rep) {
      const Clock::time_point s0 = Clock::now();
      w.setup();
      setups.push_back(seconds_since(s0) / ref_before * kReferenceNominalS);
      if (seconds_since(b0) >= burst) break;
    }
    const Clock::time_point p0 = Clock::now();
    PassResult r = w.run_pass();
    walls.push_back(seconds_since(p0));
    refs.push_back(0.5 * (ref_before + reference_seconds(kernels)));
    ratios.push_back(walls.back() / refs.back());
    gate.untraced(r);
    if (first.attempted == 0) first = std::move(r);
  }
  // Co-tenants of a shared host slow whole runs by up to 2x, every pass of
  // a run alike, so no statistic of raw times repeats from run to run. Each
  // set-up and pass is therefore divided by the reference kernel's time
  // around it, on the same host at the same moment, and scaled back to
  // seconds at the kernel's nominal speed; the metrics are medians of
  // those corrected times. The raw host figures are reported beside them.
  const double wall = median(ratios) * kReferenceNominalS;
  const double host_wall = median(walls);
  const double cycles = static_cast<double>(first.sim_cycles);
  Outcome out;
  out.metrics = {{kEndToEnd[0], median(setups)},
                 {kEndToEnd[1], wall},
                 {kEndToEnd[2], cycles / 1e6 / wall},
                 {kEndToEnd[3], peak_rss_mb()}};
  out.host = {{kHostTime[0], host_wall},
              {kHostTime[1], cycles / 1e6 / host_wall},
              {kHostTime[2], median(refs)}};
  out.accuracy = first.accuracy;
  out.pass_walls = walls;
  out.ref_walls = refs;
  std::ostringstream line;
  line << "passes " << walls.size() << " (fastest " << fastest(walls)
       << " s), setups " << setups.size();
  out.notes.push_back(line.str());
  return out;
}

Outcome run_traced(Workload& w, const Args& args, Gate& gate,
                   const Fingerprint& fp) {
  const bool parallel = w.threads() > 1;
  const double slice = args.seconds / (parallel ? 3.0 : 2.0);
  w.setup();
  std::vector<double> parallel_walls;
  if (parallel)
    parallel_walls =
        repeat_for(slice, [&] { gate.untraced(w.run_pass()); });
  const std::vector<double> untraced_walls =
      repeat_for(slice, [&] { gate.untraced(w.run_serial_pass()); });

  Tracer tracer;
  {
    Scope span(tracer, "setup");
    w.setup_traced(tracer);
  }
  PassResult last;
  const std::vector<double> traced_walls = repeat_for(slice, [&] {
    Scope span(tracer, "pass");
    last = w.run_pass_traced(tracer);
    gate.traced(last);
  });
  const double passes = static_cast<double>(traced_walls.size());
  Outcome out;
  out.pass_walls = traced_walls;

  // Self time per span name over one traced setup plus one (mean) pass.
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = tracer.self_seconds();
  std::map<std::string, double> self_by_name;
  std::map<std::string, double> layer_self;
  double cycle_seconds = 0.0, cycles = 0.0, router_cycles = 0.0;
  std::map<int, std::pair<double, double>> by_mesh;  // routers -> (s, rc)
  std::map<int, double> scenario_seconds;  // traced pass root -> seconds
  double total = 0.0;  // one traced setup plus one (mean) traced pass
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    int root = static_cast<int>(i);
    while (spans[static_cast<std::size_t>(root)].parent >= 0)
      root = spans[static_cast<std::size_t>(root)].parent;
    const double weight =
        spans[static_cast<std::size_t>(root)].name == "pass" ? 1.0 / passes
                                                             : 1.0;
    if (s.parent < 0) total += weight * s.seconds();
    const std::string name = s.parent < 0 ? "unattributed" : s.name;
    self_by_name[name] += weight * self[i];
    layer_self[name.substr(0, name.find('.'))] += weight * self[i];
    const bool simulates = s.name == "noc.decode_block" ||
                           s.name.rfind("noc.scenario_", 0) == 0;
    if (simulates && s.cycles > 0) {
      const double rc = static_cast<double>(s.cycles) * s.routers;
      cycle_seconds += s.seconds();
      cycles += static_cast<double>(s.cycles);
      router_cycles += rc;
      by_mesh[s.routers].first += s.seconds();
      by_mesh[s.routers].second += rc;
    }
    if (s.name.rfind("noc.scenario_", 0) == 0)
      scenario_seconds[root] += s.seconds();
  }
  const double traced_wall = fastest(traced_walls);
  const double untraced_wall = fastest(untraced_walls);
  double scenario_fastest = 0.0;
  for (const auto& [root, seconds] : scenario_seconds)
    scenario_fastest = scenario_fastest > 0.0
                           ? std::min(scenario_fastest, seconds)
                           : seconds;

  for (const Metric& m : kSpanShares) {
    std::string span_name = m.name;
    span_name.resize(span_name.size() - 4);  // drop ".pct"
    out.metrics.push_back({m, 100.0 * self_by_name[span_name] / total});
  }
  static const Metric kUnattributed{"unattributed.pct", "%"};
  static const Metric kOverhead{"trace.overhead_pct", "%"};
  static const Metric kNsPerCycle{"noc.ns_per_cycle", "ns"};
  static const Metric kNsPerRouterCycle{"noc.ns_per_router_cycle", "ns"};
  static const Metric kParallelEff{"util.sweep.parallel_eff", "ratio"};
  out.metrics.push_back(
      {kUnattributed, 100.0 * self_by_name["unattributed"] / total});
  out.metrics.push_back(
      {kOverhead, 100.0 * (traced_wall - untraced_wall) / untraced_wall});
  out.metrics.push_back({kNsPerCycle, 1e9 * cycle_seconds / cycles});
  out.metrics.push_back(
      {kNsPerRouterCycle, 1e9 * cycle_seconds / router_cycles});
  out.metrics.push_back(
      {kParallelEff, parallel ? scenario_fastest /
                                    (w.threads() * fastest(parallel_walls))
                              : 0.0});
  for (const Metric& m : kCounts) {
    const auto it = last.counts.find(m.name);
    out.metrics.push_back({m, it == last.counts.end() ? 0.0 : it->second});
  }
  out.accuracy = last.accuracy;

  std::ostringstream line;
  line << "fastest traced pass " << traced_wall << " s vs untraced "
       << untraced_wall << " s (tracing overhead "
       << traced_wall - untraced_wall << " s); " << traced_walls.size()
       << " traced passes";
  out.notes.push_back(line.str());
  std::ostringstream layers;
  layers << "self time by layer (s, one setup + one pass):";
  double sum = 0.0;
  for (const auto& [layer, s] : layer_self) {
    layers << " " << layer << "=" << s;
    sum += s;
  }
  layers << "; sum " << sum << " s of " << total << " s";
  out.notes.push_back(layers.str());
  for (const auto& [routers, st] : by_mesh) {
    std::ostringstream mesh;
    mesh << "noc.ns_per_router_cycle at " << routers
         << " routers: " << 1e9 * st.first / st.second;
    out.notes.push_back(mesh.str());
  }

  const std::string trace_path = args.out_dir + "/trace-" + args.workload +
                                 "-seed" + std::to_string(args.seed) + ".json";
  tracer.write_chrome_json(trace_path, [&](renoc::JsonWriter& json) {
    json.key("workload").string(args.workload);
    json.key("seed").uinteger(args.seed);
    fp.write(json);
  });
  out.notes.push_back("chrome trace: " + trace_path);
  return out;
}

void write_record(const Args& args, const Fingerprint& fp, const Gate& gate,
                  const Outcome& out) {
  const std::string path = args.out_dir + "/result-" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  renoc::AtomicFile file(path);
  renoc::JsonWriter json(file.stream());
  json.begin_object();
  json.key("workload").string(args.workload);
  json.key("seed").uinteger(args.seed);
  json.key("seconds").real(args.seconds, 3);
  json.key("trace").boolean(args.trace);
  json.key("fingerprint").begin_object();
  fp.write(json);
  json.end_object();
  json.key("correct").boolean(gate.correct());
  json.key("attempted").integer(gate.attempted());
  json.key("failed").integer(gate.failed());
  json.key("metrics").begin_object();
  for (const auto& [m, v] : out.metrics) json.key(m.name).real(v, 12);
  json.end_object();
  json.key("host").begin_object();
  for (const auto& [m, v] : out.host) json.key(m.name).real(v, 12);
  json.end_object();
  json.key("accuracy").begin_object();
  for (const auto& [name, v] : out.accuracy) json.key(name).real(v, 12);
  json.end_object();
  json.key("pass_walls_s").begin_array();
  for (double v : out.pass_walls) json.real(v, 9);
  json.end_array();
  json.key("ref_walls_s").begin_array();
  for (double v : out.ref_walls) json.real(v, 9);
  json.end_array();
  json.key("problems").begin_array();
  for (const std::string& p : gate.problems()) json.string(p);
  json.end_array();
  json.end_object();
  file.commit();
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const Args& args) {
  const Fingerprint fp = fingerprint(args);
  const std::unique_ptr<Workload> workload = make_workload(args);
  Gate gate;
  const Outcome out = args.trace ? run_traced(*workload, args, gate, fp)
                                 : run_untraced(*workload, args, gate);
  write_record(args, fp, gate, out);

  std::cout << "workload " << args.workload << ", seed " << args.seed
            << ", trace " << args.trace << "\n";
  std::cout << "fingerprint: nproc " << fp.nproc << ", simd " << fp.simd_tier
            << ", compiler " << fp.compiler << ", build " << fp.build_type
            << ", git " << fp.git_sha << "\n";
  if (!fp.release)
    std::cout << "WARNING: not a Release (NDEBUG) build; timings are not "
                 "comparable\n";
  for (const std::string& note : out.notes) std::cout << note << "\n";
  for (const auto& [m, v] : out.metrics)
    std::cout << "  " << m.name << " = " << v << " " << m.unit << "\n";
  for (const auto& [m, v] : out.host)
    std::cout << "  " << m.name << " = " << v << " " << m.unit << "\n";
  for (const auto& [name, v] : out.accuracy)
    std::cout << "  " << name << " = " << v
              << (name.find("_pct") != std::string::npos ? " pp" : " C")
              << "\n";
  std::cout << "  failed_frac = "
            << static_cast<double>(gate.failed()) / gate.attempted() << " ("
            << gate.failed() << "/" << gate.attempted() << ")\n";
  for (const std::string& p : gate.problems())
    std::cout << "FAILED: " << p << "\n";

  // write_record has already refused any metric that is not finite.
  std::ostringstream json;
  json << "{\"correct\": " << (gate.correct() ? "true" : "false")
       << ", \"attempted\": " << gate.attempted()
       << ", \"failed\": " << gate.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [m, v] = out.metrics[i];
    json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
         << number(v) << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::cerr << perfbench::kUsage;
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "renoc_perfbench: " << e.what() << "\n";
    return 1;
  }
}
