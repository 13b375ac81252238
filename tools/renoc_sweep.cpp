// renoc_sweep — crash-safe multi-process sweep driver.
//
// Front end of util/sweep for the command line and CI: picks one of the
// three harness adapters (ldpc/ber_harness, noc/sweep_harness,
// core/experiment_sweep), forks one worker process per shard, supervises
// them (per-attempt timeout with SIGKILL, bounded retries with
// deterministic exponential backoff), and merges the shards' checkpoint
// segments into one JSON artifact.
//
// The determinism contract this tool exists to demonstrate: for a fixed
// (harness, preset, seed), the merged artifact is byte-identical for any
// shard count and any crash/resume schedule — kill a shard at any
// checkpoint boundary, rerun the same command, and the resumed run
// converges to the same bytes. CI's sweep-resume job pins exactly that
// with renoc_golden_diff (skipping the "driver" block, which reports the
// volatile supervision history: attempts, timeouts, observed crashes).
//
// Exit codes: 0 = every scenario resolved (completed or failed-captured),
// 2 = partial results (some scenarios still skipped after retries were
// exhausted), 1 = usage or internal error.
//
// Crash injection (--inject-crash SHARD:SEGMENTS) makes that shard's
// FIRST attempt die via std::_Exit after flushing SEGMENTS checkpoint
// segments — a real process death mid-sweep, used by CI and the bench
// guards to exercise the resume path.

#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <exception>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "core/experiment_sweep.hpp"
#include "ldpc/ber_harness.hpp"
#include "noc/sweep_harness.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/sweep.hpp"

namespace {

using renoc::JsonWriter;
namespace sweep = renoc::sweep;

// Bounds that keep the supervisor's arithmetic in range: attempts count in
// int, and each deadline adds a delay, converted to int64 nanoseconds, to
// steady_clock::now(); the backoff is first shifted left by up to
// kMaxBackoffShift.
constexpr int kMaxRetries = 1000;
constexpr int kMaxBackoffShift = 20;
constexpr long long kMaxTimeoutMs = 7LL * 24 * 60 * 60 * 1000;  // a week
constexpr long long kMaxBackoffMs = 60LL * 60 * 1000;           // an hour
constexpr long long kMaxDelayMs =
    std::chrono::nanoseconds::max().count() / 1'000'000 / 2;
static_assert(kMaxTimeoutMs <= kMaxDelayMs &&
              (kMaxBackoffMs << kMaxBackoffShift) <= kMaxDelayMs);

struct Options {
  std::string harness;          // ber | noc | experiment (required)
  std::string preset = "smoke"; // smoke | full
  std::uint64_t seed = 1;
  int shards = 1;
  int threads_per_shard = 1;
  std::string ckpt_dir = "renoc_sweep_ckpt";
  std::string tag = "sweep";
  int checkpoint_every = 8;
  std::string out = "SWEEP_result.json";
  long long timeout_ms = 60'000;  // per attempt; 0 disables the watchdog
  int retries = 2;                // restarts after the first attempt
  long long backoff_ms = 100;     // retry k waits backoff << min(k, 20)
  int crash_shard = -1;           // --inject-crash SHARD:SEGMENTS
  int crash_segments = -1;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --harness ber|noc|experiment [options]\n"
      "  --preset smoke|full        scenario grid size (default smoke)\n"
      "  --seed N                   master seed (default 1)\n"
      "  --shards N                 worker processes (default 1)\n"
      "  --threads-per-shard N      threads inside each worker (default 1)\n"
      "  --ckpt-dir DIR             checkpoint directory (default "
      "renoc_sweep_ckpt)\n"
      "  --tag TAG                  checkpoint file tag (default sweep)\n"
      "  --checkpoint-every N       scenarios per segment (default 8)\n"
      "  --out PATH                 merged JSON artifact (default "
      "SWEEP_result.json)\n"
      "  --timeout-ms N             per-attempt watchdog, 0 = off (default "
      "60000,\n"
      "                             at most %lld)\n"
      "  --retries N                restarts per shard (default 2, at most "
      "%d)\n"
      "  --backoff-ms N             retry k waits backoff << min(k, %d) ms\n"
      "                             (default 100, at most %lld)\n"
      "  --inject-crash S:K         shard S's first attempt dies after K "
      "segments\n",
      argv0, kMaxTimeoutMs, kMaxRetries, kMaxBackoffShift, kMaxBackoffMs);
  return 1;
}

/// Parses all of `text` as a base-10 integer of type Int. Rejects an empty
/// string, trailing characters, a sign on an unsigned target, and any
/// value that does not fit Int.
template <typename Int>
bool parse_number(std::string_view text, Int& out) {
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && stop == end;
}

bool parse_args(int argc, char** argv, Options& opt) {
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = nullptr;
    bool ok = true;
    if (a == "--harness" && (v = need(i))) opt.harness = v;
    else if (a == "--preset" && (v = need(i))) opt.preset = v;
    else if (a == "--seed" && (v = need(i))) ok = parse_number(v, opt.seed);
    else if (a == "--shards" && (v = need(i))) ok = parse_number(v, opt.shards);
    else if (a == "--threads-per-shard" && (v = need(i))) ok = parse_number(v, opt.threads_per_shard);
    else if (a == "--ckpt-dir" && (v = need(i))) opt.ckpt_dir = v;
    else if (a == "--tag" && (v = need(i))) opt.tag = v;
    else if (a == "--checkpoint-every" && (v = need(i))) ok = parse_number(v, opt.checkpoint_every);
    else if (a == "--out" && (v = need(i))) opt.out = v;
    else if (a == "--timeout-ms" && (v = need(i))) ok = parse_number(v, opt.timeout_ms);
    else if (a == "--retries" && (v = need(i))) ok = parse_number(v, opt.retries);
    else if (a == "--backoff-ms" && (v = need(i))) ok = parse_number(v, opt.backoff_ms);
    else if (a == "--inject-crash" && (v = need(i))) {
      // Both numbers are required: "1:" must not silently inject nothing.
      const std::string_view spec(v);
      const std::size_t colon = spec.find(':');
      ok = colon != std::string_view::npos &&
           parse_number(spec.substr(0, colon), opt.crash_shard) &&
           parse_number(spec.substr(colon + 1), opt.crash_segments) &&
           opt.crash_shard >= 0 && opt.crash_segments >= 1;
    } else {
      return false;
    }
    if (!ok) return false;
  }
  if (opt.harness != "ber" && opt.harness != "noc" &&
      opt.harness != "experiment")
    return false;
  if (opt.preset != "smoke" && opt.preset != "full") return false;
  return opt.shards >= 1 && opt.threads_per_shard >= 1 &&
         opt.checkpoint_every >= 1 && opt.retries >= 0 &&
         opt.retries <= kMaxRetries && opt.backoff_ms >= 0 &&
         opt.backoff_ms <= kMaxBackoffMs && opt.timeout_ms >= 0 &&
         opt.timeout_ms <= kMaxTimeoutMs && !opt.ckpt_dir.empty() &&
         opt.crash_shard < opt.shards;
}

// ---------------------------------------------------------------------------
// Harness contexts: the configs must outlive the SweepSpec, so each context
// owns them and knows how to render merged records into artifact rows.
// ---------------------------------------------------------------------------

struct BerContext {
  renoc::LdpcCode code;
  renoc::LdpcEncoder encoder;
  renoc::BerConfig cfg;

  static BerContext make(const Options& opt) {
    renoc::Rng code_rng(3);
    renoc::LdpcCode code = renoc::LdpcCode::make_regular(510, 3, 6, code_rng);
    renoc::LdpcEncoder encoder(code);
    renoc::BerConfig cfg;
    cfg.seed = opt.seed;
    if (opt.preset == "smoke") {
      cfg.ebn0_db = {1.0, 2.0};
      cfg.blocks_per_point = 24;
      cfg.iterations = 4;
    } else {
      cfg.ebn0_db = {1.0, 1.5, 2.0, 2.5};
      cfg.blocks_per_point = 200;
      cfg.iterations = 10;
    }
    return BerContext{std::move(code), std::move(encoder), cfg};
  }

  sweep::SweepSpec spec() const {
    return renoc::make_ber_sweep_spec(code, encoder, cfg);
  }

  void rows(JsonWriter& w, const sweep::MergeResult& merged) const {
    const std::vector<renoc::BerPoint> points =
        renoc::ber_points_from_records(cfg, merged.records);
    w.key("points").begin_array();
    for (const renoc::BerPoint& p : points) {
      w.begin_object();
      w.key("ebn0_db").real(p.ebn0_db);
      w.key("blocks").integer(p.blocks);
      w.key("bits").integer(p.bits);
      w.key("bit_errors").integer(p.bit_errors);
      w.key("block_errors").integer(p.block_errors);
      w.key("iterations_total").integer(p.iterations_total);
      w.key("ber").real(p.ber(), 9);
      w.key("bler").real(p.bler(), 9);
      w.end_object();
    }
    w.end_array();
  }
};

struct NocContext {
  renoc::SweepConfig cfg;
  std::vector<renoc::SweepScenario> grid;

  static NocContext make(const Options& opt) {
    renoc::SweepConfig cfg;
    cfg.seed = opt.seed;
    if (opt.preset == "smoke") {
      cfg.patterns = {renoc::TrafficPattern::kUniformRandom,
                      renoc::TrafficPattern::kTranspose};
      cfg.mesh_sides = {4};
      cfg.injection_rates = {0.05, 0.10, 0.15};
      cfg.message_words = {4};
      cfg.fault_counts = {0, 2};
      cfg.fault_kinds = {renoc::FaultKind::kLinkDead};
      cfg.retry_budgets = {3};
      cfg.warmup_cycles = 200;
      cfg.measure_cycles = 500;
    } else {
      cfg.patterns = {renoc::TrafficPattern::kUniformRandom,
                      renoc::TrafficPattern::kTranspose,
                      renoc::TrafficPattern::kBitComplement};
      cfg.mesh_sides = {4, 8};
      cfg.injection_rates = {0.05, 0.10, 0.15, 0.20};
      cfg.message_words = {4};
      cfg.fault_counts = {0, 2, 4};
      cfg.fault_kinds = {renoc::FaultKind::kLinkDead,
                         renoc::FaultKind::kRouterDead};
      cfg.retry_budgets = {3};
    }
    std::vector<renoc::SweepScenario> grid = cfg.scenarios();
    return NocContext{std::move(cfg), std::move(grid)};
  }

  sweep::SweepSpec spec() const { return renoc::make_noc_sweep_spec(cfg); }

  void rows(JsonWriter& w, const sweep::MergeResult& merged) const {
    w.key("rows").begin_array();
    for (const sweep::ScenarioRecord& rec : merged.records) {
      if (rec.outcome != sweep::Outcome::kCompleted) continue;
      const renoc::SweepPoint p = renoc::noc_point_from_record(
          grid[static_cast<std::size_t>(rec.scenario)], rec);
      w.begin_object();
      w.key("scenario").integer(rec.scenario);
      w.key("pattern").string(renoc::to_string(p.scenario.pattern));
      w.key("mesh_side").integer(p.scenario.dim.width);
      w.key("injection_rate").real(p.scenario.injection_rate);
      w.key("message_words").integer(p.scenario.message_words);
      w.key("fault_count").integer(p.scenario.fault_count);
      w.key("fault_kind").string(renoc::to_string(p.scenario.fault_kind));
      w.key("retry_budget").integer(p.scenario.retry_budget);
      w.key("messages_sent").uinteger(p.messages_sent);
      w.key("messages_received").uinteger(p.messages_received);
      w.key("messages_skipped").uinteger(p.messages_skipped);
      w.key("packets_delivered").uinteger(p.packets_delivered);
      w.key("flits_delivered").uinteger(p.flits_delivered);
      w.key("offered_flit_rate").real(p.offered_flit_rate);
      w.key("injected_flit_rate").real(p.injected_flit_rate);
      w.key("accepted_flit_rate").real(p.accepted_flit_rate);
      w.key("avg_latency_cycles").real(p.avg_latency_cycles);
      w.key("max_latency_cycles").real(p.max_latency_cycles);
      w.key("cycles").uinteger(p.cycles);
      w.key("packets_retried").uinteger(p.packets_retried);
      w.key("packets_dropped").uinteger(p.packets_dropped);
      w.key("packets_unreachable").uinteger(p.packets_unreachable);
      w.key("duplicates_suppressed").uinteger(p.duplicates_suppressed);
      w.key("route_epochs").integer(p.route_epochs);
      w.end_object();
    }
    w.end_array();
  }
};

struct ExperimentContext {
  renoc::ExperimentSweepConfig cfg;
  std::vector<renoc::ExperimentScenario> grid;

  static ExperimentContext make(const Options& opt) {
    renoc::ExperimentSweepConfig cfg;
    cfg.seed = opt.seed;
    if (opt.preset == "smoke") {
      cfg.schemes = {renoc::MigrationScheme::kNone,
                     renoc::MigrationScheme::kRotation};
      cfg.periods_s = {54.65e-6, 109.3e-6};
      cfg.refines = {1};
      cfg.thermal.min_orbits = 1;
      cfg.thermal.max_orbits = 3;
      cfg.thermal.tol_c = 0.5;
    } else {
      cfg.schemes = renoc::figure1_schemes();
      cfg.periods_s = {54.65e-6, 109.3e-6, 218.6e-6};
      cfg.power_scales = {0.75, 1.0, 1.25};
      cfg.refines = {1, 2};
    }
    std::vector<renoc::ExperimentScenario> grid = cfg.scenarios();
    return ExperimentContext{std::move(cfg), std::move(grid)};
  }

  sweep::SweepSpec spec() const {
    return renoc::make_experiment_sweep_spec(cfg);
  }

  void rows(JsonWriter& w, const sweep::MergeResult& merged) const {
    w.key("rows").begin_array();
    for (const sweep::ScenarioRecord& rec : merged.records) {
      if (rec.outcome != sweep::Outcome::kCompleted) continue;
      const renoc::ExperimentSweepPoint p =
          renoc::experiment_point_from_record(
              grid[static_cast<std::size_t>(rec.scenario)], rec);
      w.begin_object();
      w.key("scenario").integer(rec.scenario);
      w.key("scheme").string(renoc::to_string(p.scenario.scheme));
      w.key("period_s").real(p.scenario.period_s, 9);
      w.key("power_scale").real(p.scenario.power_scale);
      w.key("refine").integer(p.scenario.refine);
      w.key("orbit_length").integer(p.orbit_length);
      w.key("fine_nodes").integer(p.fine_nodes);
      w.key("static_peak_c").real(p.static_peak_c);
      w.key("peak_temp_c").real(p.peak_temp_c);
      w.key("reduction_c").real(p.reduction_c);
      w.key("mean_temp_c").real(p.mean_temp_c);
      w.key("ripple_c").real(p.ripple_c);
      w.key("steady_peak_of_avg_c").real(p.steady_peak_of_avg_c);
      w.key("orbits_run").integer(p.orbits_run);
      w.key("converged").boolean(p.converged);
      w.end_object();
    }
    w.end_array();
  }
};

// ---------------------------------------------------------------------------
// Shard supervision
// ---------------------------------------------------------------------------

struct ShardState {
  pid_t pid = -1;
  int attempts = 0;     ///< launches so far (first attempt counts)
  bool done = false;
  bool success = false;
  bool gave_up = false;
  std::chrono::steady_clock::time_point deadline{};
  std::chrono::steady_clock::time_point next_launch{};
  // Supervision history, reported in the artifact's "driver" block.
  int timeouts = 0;
  int crashes = 0;      ///< exits with sweep::kCrashExitCode
  int failures = 0;     ///< exit 1 / killed by a signal
};

pid_t launch_shard(const sweep::SweepSpec& spec, const Options& opt,
                   int shard_index, bool inject_crash) {
  const pid_t pid = fork();
  RENOC_CHECK_MSG(pid >= 0, "fork failed: " << std::strerror(errno));
  if (pid != 0) return pid;
  // Child. _Exit (never exit/return): the parent's stdio and atexit state
  // must not be flushed or torn down twice.
  int code = 0;
  try {
    sweep::ShardRunOptions run;
    run.shard = sweep::Shard{shard_index, opt.shards};
    run.threads = opt.threads_per_shard;
    run.checkpoint.directory = opt.ckpt_dir;
    run.checkpoint.tag = opt.tag;
    run.checkpoint.every = opt.checkpoint_every;
    run.capture_failures = true;  // scenario failures become kFailed records
    if (inject_crash) run.crash_after_segments = opt.crash_segments;
    sweep::run_sweep_shard(spec, run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[renoc_sweep] shard %d: %s\n", shard_index,
                 e.what());
    code = 1;
  }
  std::_Exit(code);
}

void supervise(const sweep::SweepSpec& spec, const Options& opt,
               std::vector<ShardState>& shards) {
  using clock = std::chrono::steady_clock;
  const int max_attempts = opt.retries + 1;
  int open = static_cast<int>(shards.size());
  while (open > 0) {
    const clock::time_point now = clock::now();

    // Launch (or relaunch) every shard whose backoff has elapsed.
    for (int s = 0; s < static_cast<int>(shards.size()); ++s) {
      ShardState& st = shards[static_cast<std::size_t>(s)];
      if (st.done || st.pid >= 0 || now < st.next_launch) continue;
      if (st.attempts >= max_attempts) {
        st.done = true;
        st.gave_up = true;
        --open;
        continue;
      }
      const bool inject = st.attempts == 0 && s == opt.crash_shard &&
                          opt.crash_segments >= 0;
      st.pid = launch_shard(spec, opt, s, inject);
      ++st.attempts;
      st.deadline = opt.timeout_ms > 0
                        ? now + std::chrono::milliseconds(opt.timeout_ms)
                        : clock::time_point::max();
    }

    // Straggler watchdog: SIGKILL any attempt past its deadline; the death
    // is reaped below and retried like any other failure.
    for (ShardState& st : shards) {
      if (st.pid >= 0 && clock::now() > st.deadline) {
        kill(st.pid, SIGKILL);
        st.deadline = clock::time_point::max();
        ++st.timeouts;
      }
    }

    // Reap exits.
    for (;;) {
      int status = 0;
      const pid_t pid = waitpid(-1, &status, WNOHANG);
      if (pid <= 0) break;
      for (int s = 0; s < static_cast<int>(shards.size()); ++s) {
        ShardState& st = shards[static_cast<std::size_t>(s)];
        if (st.pid != pid) continue;
        st.pid = -1;
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
          st.done = true;
          st.success = true;
          --open;
        } else {
          if (WIFEXITED(status) &&
              WEXITSTATUS(status) == sweep::kCrashExitCode)
            ++st.crashes;
          else
            ++st.failures;
          if (st.attempts >= max_attempts) {
            st.done = true;
            st.gave_up = true;
            --open;
          } else {
            // Deterministic exponential backoff: retry k waits
            // backoff_ms << min(k, kMaxBackoffShift) (k = completed
            // attempts - 1 is 0 for the first retry).
            const int shift = std::min(st.attempts - 1, kMaxBackoffShift);
            st.next_launch = clock::now() + std::chrono::milliseconds(
                                                opt.backoff_ms << shift);
          }
        }
        break;
      }
    }

    if (open > 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// ---------------------------------------------------------------------------
// Artifact
// ---------------------------------------------------------------------------

std::string hex_digest(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

template <typename Context>
int run_with(const Options& opt, const Context& ctx) {
  const sweep::SweepSpec spec = ctx.spec();
  sweep::CheckpointConfig ckpt;
  ckpt.directory = opt.ckpt_dir;
  ckpt.tag = opt.tag;
  ckpt.every = opt.checkpoint_every;

  std::vector<ShardState> shards(static_cast<std::size_t>(opt.shards));
  supervise(spec, opt, shards);

  // Everything any attempt completed reached a checkpoint segment (a
  // successful attempt's tail flush includes its final partial segment),
  // so the merge reads only the checkpoint store — never a pipe from a
  // process that may have died.
  const sweep::MergeResult merged =
      sweep::merge_checkpoints(spec, ckpt, opt.shards);
  RENOC_CHECK_MSG(merged.counts.conserved(),
                  "driver: conservation law violated");

  renoc::write_json_atomic(opt.out, [&](JsonWriter& w) {
    w.begin_object();
    w.key("schema").string("renoc-sweep-artifact");
    w.key("version").integer(1);
    w.key("harness").string(opt.harness);
    w.key("preset").string(opt.preset);
    w.key("seed").uinteger(opt.seed);
    w.key("config_digest").string(hex_digest(spec.config_digest));
    w.key("enumerated").integer(merged.counts.enumerated);
    w.key("completed").integer(merged.counts.completed);
    w.key("failed").integer(merged.counts.failed);
    w.key("skipped").integer(merged.counts.skipped);
    w.key("conserved").boolean(merged.counts.conserved());
    w.key("incomplete_scenarios").begin_array();
    for (const std::int64_t s : merged.incomplete) w.integer(s);
    w.end_array();
    ctx.rows(w, merged);
    // Volatile supervision history — excluded from byte-identity diffs
    // (renoc_golden_diff --skip driver).
    w.key("driver").begin_object();
    w.key("shards").integer(opt.shards);
    w.key("threads_per_shard").integer(opt.threads_per_shard);
    w.key("checkpoint_every").integer(opt.checkpoint_every);
    w.key("shard_attempts").begin_array();
    for (const ShardState& st : shards) w.integer(st.attempts);
    w.end_array();
    int timeouts = 0, crashes = 0, failures = 0, gave_up = 0;
    for (const ShardState& st : shards) {
      timeouts += st.timeouts;
      crashes += st.crashes;
      failures += st.failures;
      gave_up += st.gave_up ? 1 : 0;
    }
    w.key("timeouts").integer(timeouts);
    w.key("crashes_observed").integer(crashes);
    w.key("failures_observed").integer(failures);
    w.key("shards_gave_up").integer(gave_up);
    w.end_object();
    w.end_object();
  });

  std::printf(
      "renoc_sweep: %s/%s seed=%llu shards=%d: %lld/%lld completed, %lld "
      "failed, %lld skipped -> %s\n",
      opt.harness.c_str(), opt.preset.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.shards,
      static_cast<long long>(merged.counts.completed),
      static_cast<long long>(merged.counts.enumerated),
      static_cast<long long>(merged.counts.failed),
      static_cast<long long>(merged.counts.skipped), opt.out.c_str());

  // Partial results are still published (graceful degradation), but the
  // exit code tells CI the sweep did not fully resolve.
  return merged.counts.skipped == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage(argv[0]);
  try {
    if (opt.harness == "ber") {
      const BerContext ctx = BerContext::make(opt);
      return run_with(opt, ctx);
    }
    if (opt.harness == "noc") {
      const NocContext ctx = NocContext::make(opt);
      return run_with(opt, ctx);
    }
    const ExperimentContext ctx = ExperimentContext::make(opt);
    return run_with(opt, ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "renoc_sweep: %s\n", e.what());
    return 1;
  }
}
