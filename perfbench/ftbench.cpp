// ftbench - workload runner of the repository benchmark.
//
//   ftbench --workload tune_cold|tune_resume|serve_hot
//           --seed N --seconds S --trace 0|1 --work-dir DIR
//           [--one-pass] [--span-file FILE]
//
// Runs one workload in this process against the library's public API
// and prints one JSON object as its last line: the measured metrics,
// per-cell result digests and the correctness counters. perfbench/run.py
// builds this binary, runs it, merges the thread-count passes of a
// traced run and prints the benchmark's result line.
//
// A cell is one `ftune tune` run: one (program, architecture,
// algorithm) triple at the paper's 1000-sample budget.
//  * tune_cold     every cache off (the plain `ftune tune` path).
//  * tune_resume   set-up runs every cell once with a fresh disk
//                  eval-cache tier and a checkpoint journal
//                  (`--eval-cache-dir D --checkpoint J`, the store write
//                  path); the timed phase re-runs the cells with a fresh
//                  memory tier over what set-up persisted (`--resume J`,
//                  the read path).
//   Both time their cells at 1 thread on one lane per CPU (up to 4), each
//   a thread pinned to its CPU (run_lanes).
//  * serve_hot     one lane per CPU (up to 4), each an in-process
//                  single-worker ftuned on a unix socket and a closed
//                  loop of 1 client sending 128-request eval_batch frames
//                  in binary-crc32 framing, after a warm-up filled the
//                  daemon's result cache. Every thread of a lane is
//                  pinned to the lane's CPU.
//
// Traced runs (--trace 1) first repeat the untraced measurement, then
// measure again with a TimingBackend on every tuner (a span per frame on
// serve_hot), so their ratio is the tracing overhead.
// --one-pass runs set-up and one traced pass of the cells, one after
// another on the pool FT_THREADS sizes, only; run.py runs it at 1 and at
// nproc threads for the thread-count comparisons.

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/eval_cache.hpp"
#include "core/funcy_tuner.hpp"
#include "core/persistent_cache.hpp"
#include "core/serialization.hpp"
#include "flags/spaces.hpp"
#include "layers.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "service/client.hpp"
#include "service/connect.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace ftbench {
namespace {

namespace fs = std::filesystem;
namespace core = ft::core;
namespace service = ft::service;

constexpr const char* kArchKeys[] = {"opteron", "sandybridge", "broadwell"};
constexpr const char* kAlgorithms[] = {"cfr", "random"};
/// Tail latency is read at the highest percentile with at least this
/// many samples beyond it.
constexpr std::size_t kTailBeyond = 10;
/// tune_resume's one cell: CFR for CL on Broadwell. Its set-up writes
/// every evaluation of the cell with fsync, 1 to 9 ms each on a shared
/// disk; with all 7 programs a set-up took 7-21 s and with 3 up to 27 s,
/// too long for a run's set-ups to stay well inside the time a run may
/// take.
const char* const kResumeProgram = "CL";
/// The tuning workloads and serve_hot run one lane per CPU this process
/// may use, at most this many.
constexpr std::size_t kMaxLanes = 4;
/// serve_hot load shape. Every frame passes client -> event loop ->
/// worker -> event loop -> client. Spread over several CPUs of a shared
/// host, each hand-off can wait for a preempted or halted vCPU: one
/// daemon with 2 workers and 4 clients on 4 vCPUs swung throughput by
/// 20-45% between runs. So serve_hot runs lanes: one single-worker
/// daemon and its one client per CPU, every thread of a lane pinned to
/// that CPU, so a hand-off is a context switch there and a frame costs
/// what the service layer computes for it. A single lane measured one
/// vCPU, whose speed on a shared host drifts by 20% for a minute at a
/// time; one lane per CPU (up to kMaxLanes) averages over them.
/// 128-request frames (what a remote CFR batch splits into is larger
/// still) make codec and cache work, not hand-offs, the bulk of a frame.
constexpr std::size_t kDaemonWorkers = 1;
constexpr std::size_t kBatch = 128;
constexpr std::size_t kRequestPool = 1024;
constexpr std::size_t kBatchesPerClient = 32;
/// serve_hot reports the median over 250-ms windows of each window's
/// rate and latency percentiles, so a stall or a slow spell of the CPU
/// on a shared host moves some windows, not the run.
constexpr double kWindowMs = 250.0;
/// Set-ups per run; setup_s is their median. tune_resume's set-up is
/// bound by fsync latency (3-20 s on a shared disk), so it has fewer,
/// which keeps a traced run well inside the time a run may take.
constexpr int kColdSetups = 5;
constexpr int kResumeSetups = 3;
constexpr int kServeSetups = 9;
const char* const kServeProgram = "CL";
const char* const kServeArch = "broadwell";

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool one_pass = false;
  fs::path work_dir = ".bench_build/work";
  std::string span_file;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ftbench: " << why
            << "\nusage: ftbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--one-pass] "
               "[--span-file FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else if (flag == "--span-file") {
      args.span_file = value();
    } else if (flag == "--one-pass") {
      args.one_pass = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload != "tune_cold" && args.workload != "tune_resume" &&
      args.workload != "serve_hot") {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// JSON number with every digit (%.17g); non-finite values become 0.
std::string num(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double per(double total, double count) {
  return count > 0.0 ? total / count : 0.0;
}

/// Ordered metric sink; printed as one JSON object.
class Metrics {
 public:
  void set(const std::string& name, double value) {
    for (auto& [key, existing] : values_) {
      if (key == name) {
        existing = value;
        return;
      }
    }
    values_.emplace_back(name, value);
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream out;
    out << '{';
    for (std::size_t i = 0; i < values_.size(); ++i) {
      if (i) out << ',';
      out << '"' << values_[i].first << "\":" << num(values_[i].second);
    }
    out << '}';
    return out.str();
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

// --- lanes ---------------------------------------------------------------

/// The CPUs the lanes run on: the first kMaxLanes this process may use.
std::vector<int> lane_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < kMaxLanes; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty()) throw std::runtime_error("no CPU to run on");
  return cpus;
}

/// Restricts the calling thread to `cpu`; threads it starts inherit it.
void pin_thread(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

// --- cells ---------------------------------------------------------------

struct Cell {
  std::string program;
  std::string arch;
  std::string algorithm;
  /// Names the cell's store directory (tune_resume): its position in
  /// the seeded cell list.
  std::size_t index = 0;
  [[nodiscard]] std::string name() const {
    return program + "/" + arch + "/" + algorithm;
  }
};

enum class Mode { kCold, kPersist, kResume };

Mode mode_of(const std::string& workload) {
  return workload == "tune_resume" ? Mode::kResume : Mode::kCold;
}

/// The seeded cell list of a tuning workload. tune_cold runs the whole
/// paper grid (7 programs x 3 archs x {cfr, random}), tune_resume the
/// one cell of kResumeProgram. The seed shuffles the order and seeds
/// every tuner.
std::vector<Cell> make_cells(const std::string& workload,
                             std::uint64_t seed) {
  if (workload != "tune_cold") return {{kResumeProgram, "broadwell", "cfr"}};
  std::vector<Cell> cells;
  for (const ft::ir::Program& program : ft::programs::suite()) {
    for (const char* algorithm : kAlgorithms) {
      for (const char* arch : kArchKeys) {
        cells.push_back({program.name(), arch, algorithm});
      }
    }
  }
  std::mt19937_64 rng(seed ^ 0x5eedce11ull);
  std::shuffle(cells.begin(), cells.end(), rng);
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i].index = i;
  return cells;
}

struct CellRun {
  std::string name;
  std::string json;
  double wall_ms = 0.0;
  double store_open_ms = 0.0;  ///< resume: journal load + cache warm
  std::size_t evaluations = 0;
  std::size_t failed = 0;
  double speedup = 0.0;
  double overhead_s = 0.0;
  std::size_t compiler_hits = 0;
  std::size_t compiler_misses = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  core::PersistentCacheStats disk;
  std::size_t journal_records = 0;
  std::size_t journal_replayed = 0;
  std::uintmax_t journal_bytes = 0;
};

/// A cell's store directory holds its disk tier and its journal.
const char* const kCacheDir = "cache";
const char* const kJournalFile = "journal.jsonl";

/// One tuning cell exactly as `ftune tune` runs it in `mode`, timed
/// from constructing the tuner to destroying it. `store` holds the
/// cell's disk tier and journal (unused when cold).
CellRun run_cell(const Cell& cell, Mode mode, std::uint64_t seed,
                 const fs::path& store, Recorder* recorder) {
  core::FuncyTunerOptions options;
  options.seed = seed;
  if (mode != Mode::kCold) {
    options.eval_cache_dir = (store / kCacheDir).string();
  }
  const std::string journal_path = (store / kJournalFile).string();

  CellRun out;
  out.name = cell.name();
  const std::uint32_t span = recorder ? recorder->next_id() : 0;
  const Clock::time_point t0 = Clock::now();
  {
    core::FuncyTuner tuner(ft::programs::by_name(cell.program),
                           ft::machine::architecture_by_name(cell.arch),
                           options);
    if (recorder) {
      tuner.evaluator().set_backend(std::make_shared<TimingBackend>(
          tuner.engine(), tuner.evaluator().input(), *recorder, span));
    }
    std::shared_ptr<core::EvalJournal> journal;
    if (mode == Mode::kPersist) {
      journal = core::EvalJournal::create(journal_path,
                                          core::options_fingerprint(options));
      tuner.evaluator().set_journal(journal);
    } else if (mode == Mode::kResume) {
      const Clock::time_point s0 = Clock::now();
      journal = core::EvalJournal::resume(journal_path,
                                          core::options_fingerprint(options));
      tuner.evaluator().set_journal(journal);
      tuner.evaluator().warm_cache_from_journal();
      out.store_open_ms = ms_between(s0, Clock::now());
    }
    const core::TuningResult result = tuner.run(cell.algorithm);
    out.json = core::tuning_result_json(result, tuner.space(), tuner.program());

    // Counter reads (atomics) only; the tuner still owns the stores.
    out.speedup = result.speedup;
    out.evaluations = tuner.evaluator().evaluations();
    const core::ResilienceStats resilience =
        tuner.evaluator().resilience_stats();
    out.failed = resilience.failed_evaluations;
    out.overhead_s = tuner.evaluator().modeled_overhead_seconds();
    out.compiler_hits = tuner.engine().compiler().cache_hits();
    out.compiler_misses = tuner.engine().compiler().cache_misses();
    out.cache_hits = resilience.cache_hits;
    out.cache_misses = resilience.cache_misses;
    if (const std::shared_ptr<core::EvalCache>& cache = tuner.eval_cache()) {
      if (const core::PersistentCache* disk = cache->disk()) {
        out.disk = disk->stats();
      }
    }
    if (journal) {
      out.journal_records = journal->appended();
      out.journal_replayed = journal->loaded();
    }
  }
  const Clock::time_point t1 = Clock::now();
  out.wall_ms = ms_between(t0, t1);
  if (recorder) recorder->add_with_id(span, Layer::kCell, 0, t0, t1);
  if (mode == Mode::kPersist) {
    std::error_code ignored;
    out.journal_bytes = fs::file_size(journal_path, ignored);
  }
  return out;
}

/// Compares a cell's result JSON with the reference for that cell,
/// adopting it as the reference when there is none yet. Returns 1 on a
/// mismatch.
std::size_t check(std::map<std::string, std::string>* reference,
                  const CellRun& run) {
  const auto [it, inserted] = reference->emplace(run.name, run.json);
  if (inserted || it->second == run.json) return 0;
  std::cerr << "ftbench: result mismatch on " << run.name << '\n';
  return 1;
}

struct Phase {
  std::vector<CellRun> runs;  ///< every cell run (json dropped)
  /// Index into `runs` where each pass starts.
  std::vector<std::size_t> pass_starts;
  std::size_t pass1_cells = 0;
  std::size_t mismatches = 0;
  double elapsed_s = 0.0;
  /// Lanes that ran passes at the same time (run_lanes), each pass on
  /// one lane.
  std::size_t lanes = 1;

  /// Median over passes of a per-pass rate, times the lanes running at
  /// once: every pass runs the same cells, so pass rates are comparable
  /// and the median drops passes that hit a transient stall. `count`
  /// gives a run's contribution.
  template <typename Count>
  [[nodiscard]] double median_pass_rate(Count count) const {
    std::vector<double> rates;
    for (std::size_t p = 0; p < pass_starts.size(); ++p) {
      const std::size_t end =
          p + 1 < pass_starts.size() ? pass_starts[p + 1] : runs.size();
      double amount = 0.0, ms = 0.0;
      for (std::size_t i = pass_starts[p]; i < end; ++i) {
        amount += count(runs[i]);
        ms += runs[i].wall_ms;
      }
      rates.push_back(per(amount * 1000.0, ms));
    }
    return median(std::move(rates)) * static_cast<double>(lanes);
  }
  [[nodiscard]] double busy_s() const {
    double total = 0.0;
    for (const CellRun& run : runs) total += run.wall_ms;
    return total / 1000.0;
  }
  [[nodiscard]] std::size_t evaluations() const {
    std::size_t total = 0;
    for (const CellRun& run : runs) total += run.evaluations;
    return total;
  }
  [[nodiscard]] std::size_t failed() const {
    std::size_t total = 0;
    for (const CellRun& run : runs) total += run.failed;
    return total;
  }
};

/// Runs whole passes over `cells` - at least one - until `seconds` have
/// elapsed, checking every result against `reference`.
Phase run_phase(const std::vector<Cell>& cells, Mode mode,
                std::uint64_t seed, double seconds, const fs::path& work,
                Recorder* recorder,
                std::map<std::string, std::string>* reference) {
  Phase phase;
  const Clock::time_point start = Clock::now();
  do {
    phase.pass_starts.push_back(phase.runs.size());
    for (const Cell& cell : cells) {
      const fs::path store =
          work / "prefill" / std::to_string(cell.index);
      CellRun run = run_cell(cell, mode, seed, store, recorder);
      phase.mismatches += check(reference, run);
      run.json.clear();
      phase.runs.push_back(std::move(run));
    }
    if (phase.pass_starts.size() == 1) phase.pass1_cells = phase.runs.size();
  } while (ms_between(start, Clock::now()) < seconds * 1000.0);
  phase.elapsed_s = ms_between(start, Clock::now()) / 1000.0;
  return phase;
}

/// The lane directory of lane k under `work`: the work directory of its
/// run_phase, holding its own copy of the cells' stores (tune_resume).
fs::path lane_dir(const fs::path& work, std::size_t k) {
  return work / ("lane" + std::to_string(k));
}

/// A timed tuning phase: run_phase on one lane per CPU in `cpus` at
/// once, each a thread pinned to its CPU, lane k starting its passes at
/// cell k * cells / lanes. Cells run at 1 thread (run.py sets
/// FT_THREADS=1), so no lane waits for another CPU: on a shared host a
/// pool of nproc threads runs each evaluation batch at the pace of its
/// slowest vCPU, and a lane runs at the pace of its own. Returns the
/// lanes' runs and passes as one phase, lane 0 first.
Phase run_lanes(const std::vector<int>& cpus, const std::vector<Cell>& cells,
                Mode mode, std::uint64_t seed, double seconds,
                const fs::path& work, Recorder* recorder,
                std::map<std::string, std::string>* reference) {
  std::vector<Phase> phases(cpus.size());
  std::vector<std::map<std::string, std::string>> references(cpus.size(),
                                                             *reference);
  std::vector<std::exception_ptr> errors(cpus.size());
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < cpus.size(); ++k) {
    threads.emplace_back([&, k] {
      try {
        pin_thread(cpus[k]);
        std::vector<Cell> order = cells;
        std::rotate(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(
                                        k * cells.size() / cpus.size()),
                    order.end());
        phases[k] = run_phase(order, mode, seed, seconds, lane_dir(work, k),
                              recorder, &references[k]);
      } catch (...) {
        errors[k] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  Phase all;
  all.lanes = cpus.size();
  all.pass1_cells = phases.front().pass1_cells;
  for (std::size_t k = 0; k < phases.size(); ++k) {
    Phase& lane = phases[k];
    for (const std::size_t start : lane.pass_starts) {
      all.pass_starts.push_back(all.runs.size() + start);
    }
    std::move(lane.runs.begin(), lane.runs.end(),
              std::back_inserter(all.runs));
    all.mismatches += lane.mismatches;
    all.elapsed_s = std::max(all.elapsed_s, lane.elapsed_s);
    for (const auto& [name, json] : references[k]) {
      const auto [it, inserted] = reference->emplace(name, json);
      if (!inserted && it->second != json) {
        std::cerr << "ftbench: result mismatch on " << name << " in lane "
                  << k << '\n';
        ++all.mismatches;
      }
    }
  }
  return all;
}

/// Commits the pending writes of the filesystem holding `dir` (syncfs),
/// so that a timed section does not pay for earlier, untimed ones.
void flush_filesystem(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open " + dir.string());
  const int rc = ::syncfs(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("syncfs failed on " + dir.string());
}

/// Set-up of a tuning workload: generate the cell list, then warm up.
/// tune_cold runs one fixed cell (CL on Broadwell, CFR) once, so set-up
/// costs the same on every seed; tune_resume persists every
/// cell's disk tier and journal under work/prefill (the store write
/// path), keeping those cell runs in *prefill, then resumes each cell
/// once, untimed, so the timed phase does not start while the files
/// just written are still settling, and gives each of `lanes` lanes its
/// own copy of every journal (a resume rewrites its journal) next to a
/// link to the shared disk tier. Returns the seconds it took; every
/// result is checked against `reference`.
double setup_tune(const Args& args, Mode mode, std::size_t lanes,
                  std::vector<Cell>* cells, std::vector<CellRun>* prefill,
                  std::map<std::string, std::string>* reference) {
  const fs::path root = args.work_dir / "prefill";
  fs::remove_all(root);
  for (std::size_t k = 0; k < lanes; ++k) {
    fs::remove_all(lane_dir(args.work_dir, k));
  }
  prefill->clear();
  flush_filesystem(args.work_dir);  // the removals above
  const Clock::time_point t0 = Clock::now();
  *cells = make_cells(args.workload, args.seed);
  std::size_t mismatches = 0;
  if (mode == Mode::kResume) {
    for (std::size_t i = 0; i < cells->size(); ++i) {
      const fs::path store = root / std::to_string(i);
      fs::create_directories(store);
      prefill->push_back(
          run_cell((*cells)[i], Mode::kPersist, args.seed, store, nullptr));
      mismatches += check(reference, prefill->back());
      prefill->back().json.clear();
    }
    for (std::size_t i = 0; i < cells->size(); ++i) {
      mismatches += check(reference,
                          run_cell((*cells)[i], Mode::kResume, args.seed,
                                   root / std::to_string(i), nullptr));
    }
    for (std::size_t k = 0; k < lanes; ++k) {
      for (std::size_t i = 0; i < cells->size(); ++i) {
        const fs::path from = root / std::to_string(i);
        const fs::path to =
            lane_dir(args.work_dir, k) / "prefill" / std::to_string(i);
        fs::create_directories(to);
        fs::copy_file(from / kJournalFile, to / kJournalFile);
        fs::create_directory_symlink(fs::absolute(from / kCacheDir),
                                     to / kCacheDir);
      }
    }
  } else {
    const Cell warmup{"CL", "broadwell", "cfr"};
    mismatches +=
        check(reference, run_cell(warmup, mode, args.seed, root, nullptr));
  }
  const double seconds = ms_between(t0, Clock::now()) / 1000.0;
  if (mismatches) throw std::runtime_error("set-up results differ");
  return seconds;
}

/// Times CV sampling and decoding the way each cell presamples: 1000
/// CVs from the seed's "presample" stream (the same CVs for every cell
/// of a seed), once per cell.
void time_flags(const std::vector<Cell>& cells, std::uint64_t seed,
                Metrics* m) {
  const ft::flags::FlagSpace space = ft::flags::icc_space();
  const core::FuncyTunerOptions defaults;
  double sample_ns = 0.0;
  double decode_ns = 0.0;
  std::size_t sampled = 0;
  volatile std::size_t sink = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    ft::support::Rng rng = ft::support::Rng(seed).fork("presample");
    const Clock::time_point t0 = Clock::now();
    const std::vector<ft::flags::CompilationVector> cvs =
        space.sample_many(rng, defaults.samples);
    const Clock::time_point t1 = Clock::now();
    for (const ft::flags::CompilationVector& cv : cvs) {
      sink = sink + static_cast<std::size_t>(space.decode(cv).values[0]);
    }
    const Clock::time_point t2 = Clock::now();
    sample_ns += ms_between(t0, t1) * 1e6;
    decode_ns += ms_between(t1, t2) * 1e6;
    sampled += cvs.size();
  }
  m->set("flags.sample_ns", per(sample_ns, static_cast<double>(sampled)));
  m->set("flags.decode_ns", per(decode_ns, static_cast<double>(sampled)));
}

/// Geometric mean of tuned speedup over O3 across the first `count`
/// runs (one pass: every cell once).
double speedup_gm(const std::vector<CellRun>& runs, std::size_t count) {
  double log_sum = 0.0;
  for (std::size_t i = 0; i < count; ++i) log_sum += std::log(runs[i].speedup);
  return count ? std::exp(log_sum / static_cast<double>(count)) : 0.0;
}

/// Cells of one pass whose tuned result is slower than O3.
std::size_t cells_below_o3(const std::vector<CellRun>& runs,
                           std::size_t count) {
  std::size_t below = 0;
  for (std::size_t i = 0; i < count; ++i) below += runs[i].speedup < 1.0;
  return below;
}

std::string digests_json(const std::map<std::string, std::string>& results) {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [name, json] : results) {
    if (!first) out << ',';
    first = false;
    out << '"' << name << "\":\"" << hex64(ft::support::fnv1a64(json))
        << '"';
  }
  out << '}';
  return out.str();
}

struct Output {
  Metrics metrics;
  Metrics info;
  std::string digests = "{}";
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t mismatches = 0;
};

/// op_p50_ms of a tuning phase: the median over cells of each cell's
/// median wall time. Cell times cluster by algorithm and program, so the
/// plain median over every run can fall in a gap between clusters and
/// jump with small shifts; each cell's median moves only with that cell.
double cell_p50_ms(const Phase& phase) {
  std::map<std::string, std::vector<double>> by_cell;
  for (const CellRun& run : phase.runs) {
    by_cell[run.name].push_back(run.wall_ms);
  }
  std::vector<double> medians;
  for (auto& [name, ms] : by_cell) medians.push_back(median(std::move(ms)));
  return median(std::move(medians));
}

void end_to_end_tune(const Phase& phase, const std::vector<double>& setups,
                     Output* out) {
  std::vector<double> cell_ms;
  for (const CellRun& run : phase.runs) cell_ms.push_back(run.wall_ms);
  double percentile = 0.0;
  const double tail_ms = tail(cell_ms, kTailBeyond, &percentile);
  Metrics& m = out->metrics;
  m.set("setup_s", median(setups));
  m.set("evals_per_s", phase.median_pass_rate([](const CellRun& run) {
    return static_cast<double>(run.evaluations);
  }));
  m.set("ops_per_s",
        phase.median_pass_rate([](const CellRun&) { return 1.0; }));
  m.set("op_p50_ms", cell_p50_ms(phase));
  m.set("op_tail_ms", tail_ms);
  m.set("peak_rss_mb", peak_rss_mb());
  m.set("speedup_gm", speedup_gm(phase.runs, phase.pass1_cells));
  out->info.set("lanes", static_cast<double>(phase.lanes));
  out->info.set("tail_percentile", percentile);
  out->info.set("samples", static_cast<double>(cell_ms.size()));
  out->info.set("timed_s", phase.elapsed_s);
}

/// Thread-pool use over a tuning phase (per cell = per op).
void pool_metrics(const ft::support::ThreadPool::Stats& before,
                  const ft::support::ThreadPool::Stats& after,
                  const Phase& phase, Metrics* m) {
  m->set("support.pool.utilization",
         per(after.worker_busy_seconds - before.worker_busy_seconds,
             static_cast<double>(after.threads) * phase.elapsed_s));
  m->set("support.pool.stolen",
         per(static_cast<double>(after.tasks_stolen - before.tasks_stolen),
             static_cast<double>(phase.runs.size())));
  m->set("support.pool.queue_high_water",
         static_cast<double>(after.queue_high_water));
}

/// Per-layer metrics of a traced tuning phase (per cell = per op).
void per_layer_tune(const Phase& traced, const Recorder& recorder,
                    const ft::support::ThreadPool::Stats& pool_before,
                    const ft::support::ThreadPool::Stats& pool_after,
                    Output* out) {
  Metrics& m = out->metrics;
  const double ops = static_cast<double>(traced.runs.size());
  const LayerSummary build = recorder.summary(Layer::kBuild);
  const LayerSummary run = recorder.summary(Layer::kRun);
  const LayerSummary inst = recorder.summary(Layer::kInstrumented);
  m.set("caliper.runs", per(static_cast<double>(inst.calls), ops));
  m.set("caliper.busy_ms", per(inst.busy_ms, ops));
  m.set("caliper.run_us_p50", inst.p50_us);
  m.set("caliper.overhead_ratio", per(inst.p50_us, run.p50_us));
  m.set("compiler.builds", per(static_cast<double>(build.calls), ops));
  m.set("compiler.busy_ms", per(build.busy_ms, ops));
  m.set("compiler.build_us_p50", build.p50_us);
  m.set("compiler.modules_compiled",
        per(static_cast<double>(recorder.modules_compiled()), ops));
  double hits = 0.0, misses = 0.0, overhead = 0.0, cache_hits = 0.0,
         cache_consults = 0.0;
  double disk_hits = 0.0, disk_misses = 0.0, disk_rejected = 0.0,
         store_open_ms = 0.0, replayed = 0.0, evaluations = 0.0;
  for (const CellRun& r : traced.runs) {
    hits += static_cast<double>(r.compiler_hits);
    misses += static_cast<double>(r.compiler_misses);
    overhead += r.overhead_s;
    cache_hits += static_cast<double>(r.cache_hits);
    cache_consults += static_cast<double>(r.cache_hits + r.cache_misses);
    disk_hits += static_cast<double>(r.disk.hits);
    disk_misses += static_cast<double>(r.disk.misses);
    disk_rejected += static_cast<double>(r.disk.rejected);
    store_open_ms += r.store_open_ms;
    replayed += static_cast<double>(r.journal_replayed);
    evaluations += static_cast<double>(r.evaluations);
  }
  m.set("compiler.module_hit_ratio", per(hits, hits + misses));
  std::vector<double> cell_ms;
  for (const CellRun& r : traced.runs) cell_ms.push_back(r.wall_ms);
  m.set("core.cell_tail_ms", tail(std::move(cell_ms), kTailBeyond, nullptr));
  m.set("machine.runs", per(static_cast<double>(run.calls), ops));
  m.set("machine.busy_ms", per(run.busy_ms, ops));
  m.set("machine.run_us_p50", run.p50_us);
  m.set("core.evaluations", per(evaluations, ops));
  m.set("core.modeled_overhead_s", per(overhead, ops));
  m.set("core.eval_cache.hit_ratio", per(cache_hits, cache_consults));
  m.set("core.persistent_cache.hits", per(disk_hits, ops));
  m.set("core.persistent_cache.misses", per(disk_misses, ops));
  m.set("core.persistent_cache.rejected", per(disk_rejected, ops));
  m.set("core.store.read_us_per_eval",
        per(store_open_ms * 1000.0, replayed > 0 ? evaluations : 0.0));
  pool_metrics(pool_before, pool_after, traced, &m);
}

/// Write side of the stores, from tune_resume's prefill (all zero for
/// tune_cold, which has none): disk-tier entries and journal records
/// written per cell, and the write cost per evaluation - the prefill
/// cell's wall time minus the same cell's cold wall time.
void store_writes(const std::vector<CellRun>& prefill,
                  const std::vector<CellRun>& cold, Metrics* m) {
  double writes = 0.0, bytes = 0.0, records = 0.0, journal_bytes = 0.0,
         extra_ms = 0.0, evaluations = 0.0;
  for (std::size_t i = 0; i < prefill.size() && i < cold.size(); ++i) {
    const CellRun& r = prefill[i];
    writes += static_cast<double>(r.disk.insertions);
    bytes += static_cast<double>(r.disk.bytes);
    records += static_cast<double>(r.journal_records);
    journal_bytes += static_cast<double>(r.journal_bytes);
    extra_ms += r.wall_ms - cold[i].wall_ms;
    evaluations += static_cast<double>(r.evaluations);
  }
  const double ops = static_cast<double>(prefill.size());
  m->set("core.persistent_cache.writes", per(writes, ops));
  m->set("core.persistent_cache.bytes", per(bytes, ops));
  m->set("core.checkpoint.records", per(records, ops));
  m->set("core.checkpoint.bytes", per(journal_bytes, ops));
  m->set("core.store.write_us_per_eval", per(extra_ms * 1000.0, evaluations));
}

void zero_service_metrics(Metrics* m) {
  for (const char* name :
       {"service.rtt_us_p50", "service.rtt_us_p99", "service.encode_us",
        "service.decode_us",
        "service.frame_bytes", "service.server_hit_ratio",
        "service.overloads", "service.errors"}) {
    m->set(name, 0.0);
  }
}

void write_spans(const Args& args, const Recorder& recorder,
                 Clock::time_point origin) {
  if (args.span_file.empty()) return;
  std::ofstream out(args.span_file);
  recorder.write_spans(out, origin);
}

// --- tuning workloads ----------------------------------------------------

Output run_tune(const Args& args) {
  const Mode mode = mode_of(args.workload);
  Output out;
  std::map<std::string, std::string> reference;
  std::vector<Cell> cells;
  std::vector<CellRun> prefill;
  const Clock::time_point origin = Clock::now();

  if (args.one_pass) {
    // One traced pass for the thread-count comparisons run.py makes.
    (void)setup_tune(args, mode, 0, &cells, &prefill, &reference);
    Recorder recorder;
    const ft::support::ThreadPool::Stats pool_before =
        ft::support::global_pool().stats();
    const Phase pass = run_phase(cells, mode, args.seed, 0.0,
                                 args.work_dir, &recorder, &reference);
    const ft::support::ThreadPool::Stats pool_after =
        ft::support::global_pool().stats();
    const double ops = static_cast<double>(pass.runs.size());
    double overhead = 0.0;
    for (const CellRun& r : pass.runs) overhead += r.overhead_s;
    const double backend_ms = recorder.summary(Layer::kBuild).busy_ms +
                              recorder.summary(Layer::kRun).busy_ms +
                              recorder.summary(Layer::kInstrumented).busy_ms;
    out.info.set("build_busy_ms", recorder.summary(Layer::kBuild).busy_ms);
    out.info.set("modules_per_op",
                 per(static_cast<double>(recorder.modules_compiled()), ops));
    out.info.set("overhead_per_op_s", per(overhead, ops));
    out.info.set("self_ms_per_op",
                 per(pass.busy_s() * 1000.0 - backend_ms, ops));
    pool_metrics(pool_before, pool_after, pass, &out.info);
    out.mismatches = pass.mismatches;
    out.attempted = pass.evaluations();
    out.failed = pass.failed();
    out.digests = digests_json(reference);
    return out;
  }

  const std::vector<int> cpus = lane_cpus();
  std::vector<double> setups;
  const int setup_reps = mode == Mode::kCold ? kColdSetups : kResumeSetups;
  for (int r = 0; r < setup_reps; ++r) {
    setups.push_back(setup_tune(args, mode, cpus.size(), &cells, &prefill,
                                &reference));
  }
  flush_filesystem(args.work_dir);  // what set-up wrote without fsync

  const auto phase = [&](double seconds, Recorder* recorder) {
    return run_lanes(cpus, cells, mode, args.seed, seconds, args.work_dir,
                     recorder, &reference);
  };
  const Phase timed = phase(args.seconds, nullptr);
  out.mismatches += timed.mismatches;
  out.attempted += timed.evaluations();
  out.failed += timed.failed();
  end_to_end_tune(timed, setups, &out);

  // Reference for tune_resume: the same cells with every cache off.
  Phase cold;
  if (mode == Mode::kResume) {
    cold = run_phase(cells, Mode::kCold, args.seed, 0.0, args.work_dir,
                     nullptr, &reference);
    out.mismatches += cold.mismatches;
  }

  if (args.trace) {
    Metrics& m = out.metrics;
    Recorder recorder;
    const ft::support::ThreadPool::Stats pool_before =
        ft::support::global_pool().stats();
    const Phase traced = phase(args.seconds, &recorder);
    const ft::support::ThreadPool::Stats pool_after =
        ft::support::global_pool().stats();
    out.mismatches += traced.mismatches;
    out.attempted += traced.evaluations();
    out.failed += traced.failed();
    per_layer_tune(traced, recorder, pool_before, pool_after, &out);
    m.set("core.cells_below_o3", static_cast<double>(cells_below_o3(
                                     traced.runs, traced.pass1_cells)));
    const auto cell = [](const CellRun&) { return 1.0; };
    m.set("trace_overhead_ratio", per(traced.median_pass_rate(cell),
                                      timed.median_pass_rate(cell)));
    time_flags(cells, args.seed, &m);
    zero_service_metrics(&m);

    store_writes(prefill, cold.runs, &m);
    write_spans(args, recorder, origin);
  }
  out.digests = digests_json(reference);
  return out;
}

// --- serve_hot -----------------------------------------------------------

core::FuncyTunerOptions serve_options(std::uint64_t seed) {
  core::FuncyTunerOptions options;
  options.seed = seed;
  return options;
}

/// Seeded per-module assignments: every module draws one of the 1000
/// CVs a tuner presamples, the way FR and CFR assemble their variants.
std::vector<core::EvalRequest> make_request_pool(std::uint64_t seed) {
  const ft::flags::FlagSpace space = ft::flags::icc_space();
  const std::size_t loops =
      ft::programs::by_name(kServeProgram).loops().size();
  ft::support::Rng rng = ft::support::Rng(seed).fork("serve_hot");
  const std::vector<ft::flags::CompilationVector> cvs =
      space.sample_many(rng, core::FuncyTunerOptions{}.samples);
  std::mt19937_64 pick(seed ^ 0xba7c4ull);
  std::vector<core::EvalRequest> pool(kRequestPool);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    core::EvalRequest& request = pool[i];
    for (std::size_t j = 0; j < loops; ++j) {
      request.assignment.loop_cvs.push_back(cvs[pick() % cvs.size()]);
    }
    request.assignment.nonloop_cv = cvs[pick() % cvs.size()];
    request.rep_base = core::rep_streams::kCfr;
  }
  return pool;
}

/// Bit-exact equality of two outcomes (the numeric payload of a
/// response; Caliper reports are never served for plain runs).
bool same_outcome(const core::EvalOutcome& a, const core::EvalOutcome& b) {
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  const ft::machine::RunResult& x = a.result;
  const ft::machine::RunResult& y = b.result;
  if (a.error.kind != b.error.kind || a.attempts != b.attempts ||
      !same(x.end_to_end, y.end_to_end) ||
      !same(x.derived_nonloop_seconds, y.derived_nonloop_seconds) ||
      !same(x.stddev, y.stddev) ||
      x.loop_seconds.size() != y.loop_seconds.size() ||
      x.caliper_report != y.caliper_report) {
    return false;
  }
  for (std::size_t i = 0; i < x.loop_seconds.size(); ++i) {
    if (!same(x.loop_seconds[i], y.loop_seconds[i])) return false;
  }
  return true;
}

/// One lane: an in-process ftuned and its connected client. Every thread
/// of the lane (daemon event loop and worker, client) runs on `cpu`.
struct Lane {
  int cpu = 0;
  std::unique_ptr<service::Server> server;
  std::shared_ptr<service::Client> client;
  /// The daemon's answer to every pool request (warm-up); every later
  /// response of this lane must equal it.
  std::vector<core::EvalResponse> warm;
};

struct ServeRig {
  std::vector<Lane> lanes;

  ServeRig() = default;
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;
  ~ServeRig() {
    for (Lane& lane : lanes) {
      lane.client.reset();  // bye before the daemon goes away
      if (lane.server) lane.server->stop();
    }
  }
};

/// Runs body() on a thread pinned to `cpu`, waits for it and rethrows
/// its failure.
template <typename Body>
void on_cpu(int cpu, Body body) {
  std::exception_ptr error;
  std::thread thread([&] {
    try {
      pin_thread(cpu);
      body();
    } catch (...) {
      error = std::current_exception();
    }
  });
  thread.join();
  if (error) std::rethrow_exception(error);
}

std::unique_ptr<ServeRig> start_rig(
    const Args& args, const std::vector<int>& cpus,
    const std::vector<core::EvalRequest>& pool) {
  auto rig = std::make_unique<ServeRig>();
  rig->lanes.resize(cpus.size());
  // Lanes start one after another: their warm-ups do not overlap, so
  // neither do the allocations of the daemons' first evaluations.
  for (std::size_t k = 0; k < cpus.size(); ++k) {
    Lane& lane = rig->lanes[k];
    lane.cpu = cpus[k];
    on_cpu(lane.cpu, [&] {
      const fs::path socket =
          args.work_dir / ("ftuned-" + std::to_string(k) + ".sock");
      fs::remove(socket);
      service::ServerOptions options;
      options.listen = "unix:" + socket.string();
      options.cache_entries = 4 * kRequestPool;
      options.max_inflight = kRequestPool;  // the warm-up is one frame
      options.framings = {service::Framing::kBinaryCrc};
      options.workers = kDaemonWorkers;
      options.chaos = {};
      lane.server = std::make_unique<service::Server>(options);
      lane.server->start();

      service::ConnectOptions connect;
      connect.workspace = service::WorkspaceSpec{
          kServeProgram, kServeArch, ft::compiler::Personality::kIcc,
          serve_options(args.seed)};
      connect.framings = {service::Framing::kBinaryCrc};
      connect.transport.chaos = {};
      lane.client = service::Client::connect(
          service::Endpoint::parse(options.listen), connect);
      if (lane.client->framing() != service::Framing::kBinaryCrc) {
        throw std::runtime_error("daemon did not negotiate binary-crc32");
      }
      lane.warm = lane.client->call_many(pool);
    });
  }
  return rig;
}

/// Daemon counters summed over the lanes.
service::Server::Stats daemon_stats(const ServeRig& rig) {
  service::Server::Stats total;
  for (const Lane& lane : rig.lanes) {
    const service::Server::Stats stats = lane.server->stats();
    total.evaluations += stats.evaluations;
    total.cache_hits += stats.cache_hits;
    total.overloads += stats.overloads;
    total.errors_sent += stats.errors_sent;
  }
  return total;
}

struct LoadResult {
  /// Round-trip times by the whole window their frame completed in.
  std::vector<std::vector<double>> windows;
  std::size_t frames = 0;
  std::size_t evaluations = 0;
  std::size_t failed = 0;
  std::size_t mismatches = 0;
  double elapsed_s = 0.0;
};

/// Seeded frames: kBatchesPerClient lists of kBatch pool indices per
/// client, cycled through by the closed loop.
std::vector<std::vector<std::size_t>> make_batches(std::uint64_t seed,
                                                   std::size_t clients) {
  std::mt19937_64 rng(seed ^ 0xf4a3e5ull);
  std::vector<std::vector<std::size_t>> batches(clients * kBatchesPerClient);
  for (std::vector<std::size_t>& batch : batches) {
    for (std::size_t k = 0; k < kBatch; ++k) {
      batch.push_back(rng() % kRequestPool);
    }
  }
  return batches;
}

/// Closed loop: each lane's client sends its next frame as soon as the
/// previous reply arrived, for `seconds`. The client of lane c cycles
/// through batches c, c + lanes, ...
LoadResult run_load(ServeRig& rig, const std::vector<core::EvalRequest>& pool,
                    const std::vector<std::vector<std::size_t>>& batches,
                    double seconds, Recorder* recorder) {
  struct PerClient {
    std::vector<std::pair<std::size_t, double>> rtt_ms;  ///< (window, ms)
    std::size_t frames = 0, failed = 0, mismatches = 0;
  };
  const std::size_t clients = rig.lanes.size();
  std::vector<PerClient> per_client(clients);
  std::vector<std::exception_ptr> errors(clients);
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false}, halt{false};
  Clock::time_point start;  // written before `go` is released
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const Lane& lane = rig.lanes[c];
      PerClient& mine = per_client[c];
      try {
        pin_thread(lane.cpu);
      } catch (...) {
        errors[c] = std::current_exception();
      }
      // Materialize this client's frames before the clock starts.
      std::vector<const std::vector<std::size_t>*> indices;
      std::vector<std::vector<core::EvalRequest>> frames;
      for (std::size_t b = c; b < batches.size(); b += clients) {
        indices.push_back(&batches[b]);
        frames.emplace_back();
        for (const std::size_t index : batches[b]) {
          frames.back().push_back(pool[index]);
        }
      }
      mine.rtt_ms.reserve(1u << 20);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t f = 0;
           !errors[c] && !halt.load(std::memory_order_acquire);
           f = (f + 1) % frames.size()) {
        const Clock::time_point t0 = Clock::now();
        std::vector<core::EvalResponse> responses;
        try {
          responses = lane.client->call_many(frames[f]);
        } catch (const std::exception& error) {
          std::cerr << "ftbench: frame failed: " << error.what() << '\n';
          mine.failed += frames[f].size();
          continue;
        }
        const Clock::time_point t1 = Clock::now();
        const auto window =
            static_cast<std::size_t>(ms_between(start, t1) / kWindowMs);
        mine.rtt_ms.emplace_back(window, ms_between(t0, t1));
        if (recorder) recorder->add(Layer::kFrame, 0, t0, t1);
        ++mine.frames;
        for (std::size_t k = 0; k < responses.size(); ++k) {
          if (!responses[k].ok()) ++mine.failed;
          const std::size_t index = (*indices[f])[k];
          if (!same_outcome(responses[k].outcome, lane.warm[index].outcome)) {
            ++mine.mismatches;
          }
        }
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  start = Clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  halt.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  LoadResult result;
  result.elapsed_s = ms_between(start, Clock::now()) / 1000.0;
  // Only whole windows count; frames finishing after the last one are
  // dropped from the windowed figures.
  result.windows.resize(std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds * 1000.0 / kWindowMs)));
  for (const PerClient& mine : per_client) {
    for (const auto& [window, ms] : mine.rtt_ms) {
      if (window < result.windows.size()) {
        result.windows[window].push_back(ms);
      }
    }
    result.frames += mine.frames;
    result.failed += mine.failed;
    result.mismatches += mine.mismatches;
  }
  result.evaluations = result.frames * kBatch;
  return result;
}

/// Median over windows of a per-window figure.
template <typename Figure>
double window_median(const LoadResult& load, Figure figure) {
  std::vector<double> values;
  for (const std::vector<double>& rtt_ms : load.windows) {
    values.push_back(figure(rtt_ms));
  }
  return median(std::move(values));
}

/// Encode/decode cost of the frames this workload sends and receives,
/// through the public codec, in microseconds per frame; frame bytes are
/// request plus response payload.
void time_codec(const std::vector<core::EvalRequest>& pool,
                const std::vector<core::EvalResponse>& warm,
                const std::vector<std::vector<std::size_t>>& batches,
                Metrics* m) {
  const service::Framing framing = service::Framing::kBinaryCrc;
  std::string buffer;
  service::AnyFrame frame;
  std::string error;
  double encode_ms = 0.0, decode_ms = 0.0, bytes = 0.0;
  std::size_t frames = 0;
  for (int round = 0; round < 8; ++round) {
    for (const std::vector<std::size_t>& batch : batches) {
      std::vector<core::EvalRequest> requests;
      std::vector<core::EvalResponse> responses;
      for (const std::size_t index : batch) {
        requests.push_back(pool[index]);
        responses.push_back(warm[index]);
      }
      const Clock::time_point t0 = Clock::now();
      service::encode_eval_batch_frame(framing, 1, requests, &buffer);
      const Clock::time_point t1 = Clock::now();
      bytes += static_cast<double>(buffer.size());
      service::encode_result_batch_frame(framing, 1, responses, &buffer);
      bytes += static_cast<double>(buffer.size());
      const Clock::time_point t2 = Clock::now();
      if (service::decode_frame(framing, buffer, &frame, &error) !=
          service::DecodeStatus::kOk) {
        throw std::runtime_error("result_batch frame does not decode: " +
                                 error);
      }
      const Clock::time_point t3 = Clock::now();
      encode_ms += ms_between(t0, t1);
      decode_ms += ms_between(t2, t3);
      ++frames;
    }
  }
  const double n = static_cast<double>(frames);
  m->set("service.encode_us", per(encode_ms * 1000.0, n));
  m->set("service.decode_us", per(decode_ms * 1000.0, n));
  m->set("service.frame_bytes", per(bytes, n));
}

Output run_serve(const Args& args) {
  Output out;
  const std::vector<int> cpus = lane_cpus();
  const Clock::time_point origin = Clock::now();
  std::vector<core::EvalRequest> pool;
  std::vector<std::vector<std::size_t>> batches;
  std::unique_ptr<ServeRig> rig;
  std::vector<double> setups;
  for (int r = 0; r < kServeSetups; ++r) {
    rig.reset();
    const Clock::time_point t0 = Clock::now();
    pool = make_request_pool(args.seed);
    batches = make_batches(args.seed, cpus.size());
    rig = start_rig(args, cpus, pool);
    setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  const LoadResult load = run_load(*rig, pool, batches, args.seconds, nullptr);
  out.attempted += load.evaluations + load.failed;
  out.failed += load.failed;
  out.mismatches += load.mismatches;

  // Reference: the in-process Evaluator answer to every pool request;
  // every timed response already matched its lane's warm-up answer.
  core::FuncyTuner local(ft::programs::by_name(kServeProgram),
                         ft::machine::architecture_by_name(kServeArch),
                         serve_options(args.seed));
  const double o3 = local.baseline_seconds();
  double log_sum = 0.0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const core::EvalResponse expected = local.evaluator().evaluate(pool[i]);
    for (std::size_t k = 0; k < rig->lanes.size(); ++k) {
      if (!same_outcome(expected.outcome, rig->lanes[k].warm[i].outcome)) {
        std::cerr << "ftbench: daemon " << k
                  << " served a different outcome for request " << i
                  << '\n';
        ++out.mismatches;
      }
    }
    log_sum += std::log(o3 / expected.seconds());
  }

  Metrics& m = out.metrics;
  const auto frame_rate = [](const std::vector<double>& rtt_ms) {
    return static_cast<double>(rtt_ms.size()) * 1000.0 / kWindowMs;
  };
  const double frames_per_s = window_median(load, frame_rate);
  m.set("setup_s", median(setups));
  m.set("evals_per_s", frames_per_s * static_cast<double>(kBatch));
  m.set("ops_per_s", frames_per_s);
  m.set("op_p50_ms", window_median(load, [](const auto& rtt_ms) {
          return median(rtt_ms);
        }));
  m.set("op_tail_ms", window_median(load, [](const auto& rtt_ms) {
          return quantile(rtt_ms, 0.99);
        }));
  m.set("peak_rss_mb", peak_rss_mb());
  m.set("speedup_gm",
        std::exp(log_sum / static_cast<double>(pool.size())));
  out.info.set("tail_percentile", 99.0);
  out.info.set("samples", static_cast<double>(load.frames));
  out.info.set("lanes", static_cast<double>(rig->lanes.size()));
  out.info.set("timed_s", load.elapsed_s);

  if (args.trace) {
    Recorder recorder;
    const service::Server::Stats before = daemon_stats(*rig);
    const ft::support::ThreadPool::Stats pool_before =
        ft::support::global_pool().stats();
    const LoadResult traced =
        run_load(*rig, pool, batches, args.seconds, &recorder);
    const ft::support::ThreadPool::Stats pool_after =
        ft::support::global_pool().stats();
    const service::Server::Stats after = daemon_stats(*rig);
    out.attempted += traced.evaluations + traced.failed;
    out.failed += traced.failed;
    out.mismatches += traced.mismatches;

    const double frames = static_cast<double>(traced.frames);
    const double served =
        static_cast<double>(after.evaluations - before.evaluations);
    const double hits =
        static_cast<double>(after.cache_hits - before.cache_hits);
    // Every daemon evaluation that missed its result cache is one
    // Compiler::build plus one plain engine run inside the daemon.
    const double raw_runs = served - hits;
    for (const char* name :
         {"caliper.runs", "caliper.busy_ms", "caliper.run_us_p50",
          "caliper.overhead_ratio", "compiler.busy_ms",
          "compiler.build_us_p50", "compiler.modules_compiled",
          "compiler.module_hit_ratio", "machine.busy_ms",
          "machine.run_us_p50", "flags.sample_ns", "flags.decode_ns",
          "core.evaluations", "core.modeled_overhead_s",
          "core.cell_tail_ms", "core.cells_below_o3",
          "core.eval_cache.hit_ratio",
          "core.persistent_cache.writes", "core.persistent_cache.hits",
          "core.persistent_cache.misses", "core.persistent_cache.rejected",
          "core.persistent_cache.bytes", "core.checkpoint.records",
          "core.checkpoint.bytes", "core.store.write_us_per_eval",
          "core.store.read_us_per_eval"}) {
      m.set(name, 0.0);
    }
    m.set("compiler.builds", per(raw_runs, frames));
    m.set("machine.runs", per(raw_runs, frames));
    m.set("service.rtt_us_p50",
          recorder.summary(Layer::kFrame).p50_us);
    m.set("service.rtt_us_p99", 1000.0 * window_median(traced, [](
                                             const auto& rtt_ms) {
            return quantile(rtt_ms, 0.99);
          }));
    time_codec(pool, rig->lanes.front().warm, batches, &m);
    m.set("service.server_hit_ratio", per(hits, served));
    m.set("service.overloads",
          static_cast<double>(after.overloads - before.overloads));
    m.set("service.errors",
          static_cast<double>(after.errors_sent - before.errors_sent));
    m.set("support.pool.utilization",
          per(pool_after.worker_busy_seconds - pool_before.worker_busy_seconds,
              static_cast<double>(pool_after.threads) * traced.elapsed_s));
    m.set("support.pool.stolen",
          per(static_cast<double>(pool_after.tasks_stolen -
                                  pool_before.tasks_stolen),
              frames));
    m.set("support.pool.queue_high_water",
          static_cast<double>(pool_after.queue_high_water));
    m.set("trace_overhead_ratio",
          per(window_median(traced, frame_rate), frames_per_s));
    write_spans(args, recorder, origin);
  }
  return out;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  fs::create_directories(args.work_dir);
  Output out = args.workload == "serve_hot" ? run_serve(args)
                                            : run_tune(args);
  const std::size_t threads = ft::support::global_pool().thread_count();
  out.info.set("threads", static_cast<double>(threads));
  std::cout << "{\"workload\":\"" << args.workload << "\",\"seed\":"
            << args.seed << ",\"attempted\":" << out.attempted
            << ",\"failed\":" << out.failed
            << ",\"mismatches\":" << out.mismatches
            << ",\"metrics\":" << out.metrics.json()
            << ",\"info\":" << out.info.json()
            << ",\"digests\":" << out.digests << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace ftbench

int main(int argc, char** argv) {
  try {
    return ftbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "ftbench: " << error.what() << '\n';
    return 1;
  }
}
