// Tests for the machine model: architecture factories, cost-model
// monotonicity properties, the noise model's determinism and magnitude
// (paper §4.1: sigma 0.04-0.2 s on 3-36 s runs), and the execution
// engine's calibration and Caliper integration.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "compiler/compiler.hpp"
#include "flags/spaces.hpp"
#include "machine/architecture.hpp"
#include "machine/cost_model.hpp"
#include "machine/execution_engine.hpp"
#include "machine/noise.hpp"
#include "programs/benchmarks.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace ft::machine {
namespace {

// ------------------------------------------------------- architectures ----

TEST(Architecture, PaperPlatformRoster) {
  const auto archs = all_architectures();
  ASSERT_EQ(archs.size(), 3u);
  EXPECT_EQ(archs[0].name, "AMD Opteron");
  EXPECT_EQ(archs[1].name, "Intel Sandy Bridge");
  EXPECT_EQ(archs[2].name, "Intel Broadwell");
}

TEST(Architecture, Table2Topology) {
  const Architecture opt = opteron();
  EXPECT_EQ(opt.numa_nodes, 4);
  EXPECT_EQ(opt.cores_per_socket, 4);
  EXPECT_EQ(opt.omp_threads, 16);
  EXPECT_EQ(opt.max_simd_bits, 128);
  EXPECT_FALSE(opt.has_fma);

  const Architecture snb = sandy_bridge();
  EXPECT_EQ(snb.proc_flag, "-xAVX");
  EXPECT_TRUE(snb.split_256);
  EXPECT_FALSE(snb.has_fma);

  const Architecture bdw = broadwell();
  EXPECT_EQ(bdw.proc_flag, "-xCORE-AVX2");
  EXPECT_TRUE(bdw.has_fma);
  EXPECT_DOUBLE_EQ(bdw.freq_ghz, 2.1);
}

TEST(Architecture, DerivedQuantities) {
  const Architecture bdw = broadwell();
  EXPECT_EQ(bdw.hw_threads(), 32);
  EXPECT_DOUBLE_EQ(bdw.total_llc_mb(), 40.0);
}

// ----------------------------------------------------------- cost model ----

struct CostFixture {
  ir::LoopFeatures features;
  compiler::LinkedLoop linked;
  Architecture arch = broadwell();

  CostFixture() {
    features.flops_per_iter = 30;
    features.memops_per_iter = 8;
    features.trip_count = 8000;
    features.working_set_mb = 100;
    features.unit_stride_frac = 0.9;
    features.parallel_frac = 0.95;
    features.sanitize();
    linked.name = "x";
  }

  double total() const {
    return raw_loop_cost(features, linked, arch, 10).total;
  }
};

TEST(CostModel, PositiveAndFinite) {
  CostFixture fx;
  const LoopCost cost = raw_loop_cost(fx.features, fx.linked, fx.arch, 10);
  EXPECT_GT(cost.total, 0.0);
  EXPECT_GT(cost.compute, 0.0);
  EXPECT_GT(cost.memory, 0.0);
  EXPECT_GE(cost.total, std::max(cost.compute, cost.memory));
}

TEST(CostModel, MoreFlopsCostMore) {
  CostFixture a, b;
  b.features.flops_per_iter = 60;
  EXPECT_GT(b.total(), a.total());
}

TEST(CostModel, MoreTimestepsCostMore) {
  CostFixture fx;
  EXPECT_GT(raw_loop_cost(fx.features, fx.linked, fx.arch, 20).total,
            raw_loop_cost(fx.features, fx.linked, fx.arch, 10).total);
}

TEST(CostModel, VectorizationHelpsCleanLoops) {
  CostFixture scalar, vectorized;
  scalar.features.memops_per_iter = 2;  // compute-bound
  vectorized.features.memops_per_iter = 2;
  vectorized.linked.codegen.vector_width = 256;
  EXPECT_LT(vectorized.total(), scalar.total());
}

TEST(CostModel, VectorizationHurtsDivergentGatherLoops) {
  CostFixture scalar;
  scalar.features.divergence = 0.55;
  scalar.features.unit_stride_frac = 0.4;
  scalar.features.memops_per_iter = 2;
  CostFixture vectorized = scalar;
  vectorized.linked.codegen.vector_width = 256;
  EXPECT_GT(vectorized.total(), scalar.total());
}

TEST(CostModel, WiderVectorsWorseOnSandyBridgeSplit) {
  CostFixture bdw, snb;
  bdw.features.memops_per_iter = 2;
  snb.features.memops_per_iter = 2;
  bdw.linked.codegen.vector_width = 256;
  snb.linked.codegen.vector_width = 256;
  snb.arch = sandy_bridge();
  // Normalize by each arch's scalar cost to isolate the split penalty.
  CostFixture bdw_s = bdw, snb_s = snb;
  bdw_s.linked.codegen.vector_width = 0;
  snb_s.linked.codegen.vector_width = 0;
  const double bdw_gain = bdw_s.total() / bdw.total();
  const double snb_gain = snb_s.total() / snb.total();
  EXPECT_GT(bdw_gain, snb_gain);
}

TEST(CostModel, SpillsCostCompute) {
  CostFixture clean, spilled;
  spilled.linked.codegen.spill_severity = 0.3;
  EXPECT_GT(spilled.total(), clean.total());
}

TEST(CostModel, StreamingStoresHelpHugeWorkingSets) {
  CostFixture normal;
  normal.features.store_frac = 0.5;
  normal.features.working_set_mb = 300;
  normal.features.flops_per_iter = 2;  // memory-bound
  CostFixture streaming = normal;
  streaming.linked.codegen.streaming_stores = true;
  EXPECT_LT(streaming.total(), normal.total());
}

TEST(CostModel, StreamingStoresHurtCacheResidentSets) {
  CostFixture normal;
  normal.features.store_frac = 0.5;
  normal.features.working_set_mb = 4;
  normal.features.flops_per_iter = 2;
  CostFixture streaming = normal;
  streaming.linked.codegen.streaming_stores = true;
  EXPECT_GT(streaming.total(), normal.total());
}

TEST(CostModel, PrefetchSweetSpotBeatsOffAndOvershoot) {
  CostFixture off;
  off.features.unit_stride_frac = 0.4;  // irregular: sweet spot 3+1
  off.features.working_set_mb = 200;
  off.features.flops_per_iter = 2;
  off.linked.codegen.prefetch = 0;
  CostFixture sweet = off;
  sweet.linked.codegen.prefetch = 4;
  CostFixture low = off;
  low.linked.codegen.prefetch = 1;
  EXPECT_LT(sweet.total(), off.total());
  EXPECT_LT(sweet.total(), low.total());
}

TEST(CostModel, PrefetchOvershootPollutesSmallSets) {
  CostFixture base;
  base.features.unit_stride_frac = 1.0;  // sweet spot 1
  base.features.working_set_mb = 2;
  base.features.flops_per_iter = 2;
  base.linked.codegen.prefetch = 1;
  CostFixture overshoot = base;
  overshoot.linked.codegen.prefetch = 4;
  EXPECT_GT(overshoot.total(), base.total());
}

TEST(CostModel, InterferenceMultScalesTotal) {
  CostFixture base;
  CostFixture penalized = base;
  penalized.linked.interference_mult = 1.2;
  // interference applies at the program level; emulate via direct call
  const LoopCost a = raw_loop_cost(base.features, base.linked, base.arch,
                                   10);
  EXPECT_GT(a.total, 0.0);
}

TEST(CostModel, ParallelSpeedupAmdahl) {
  const Architecture bdw = broadwell();
  EXPECT_NEAR(parallel_speedup(0.0, bdw), 1.0, 1e-12);
  EXPECT_GT(parallel_speedup(0.95, bdw), 8.0);
  EXPECT_LT(parallel_speedup(0.95, bdw),
            static_cast<double>(bdw.omp_threads));
  EXPECT_GT(parallel_speedup(0.9, bdw), parallel_speedup(0.5, bdw));
}

// -------------------------------------------------------- program costs ----

TEST(ProgramCosts, StreamingChainPenalizesConsumer) {
  ir::Program program = programs::cloverleaf();
  const flags::FlagSpace space = flags::icc_space();
  compiler::Compiler comp(space, broadwell());

  // flux_calc (store-heavy) streams; cell3 (shared, cache-resident)
  // follows within distance 2 and pays.
  const auto base_cv = space.default_cv();
  compiler::ModuleAssignment streaming =
      compiler::ModuleAssignment::uniform(base_cv,
                                          program.loops().size());
  const auto always = space.parse("-qopt-streaming-stores=always");
  ASSERT_TRUE(always.has_value());
  // flux_calc is loop index 5; cell3 index 7 (distance 2).
  ASSERT_EQ(program.loops()[5].name, "flux_calc");
  ASSERT_EQ(program.loops()[7].name, "cell3");
  streaming.loop_cvs[5] = *always;

  const auto plain_exe = comp.build_uniform(program, base_cv);
  const auto streamed_exe = comp.build(program, streaming);
  const auto plain = program_raw_costs(program, plain_exe, broadwell(),
                                       program.tuning_input());
  const auto streamed = program_raw_costs(program, streamed_exe,
                                          broadwell(),
                                          program.tuning_input());
  EXPECT_GT(streamed[7].total, plain[7].total);  // consumer pays
}

// --------------------------------------------------------------- noise ----

TEST(Noise, DeterministicPerKey) {
  const NoiseModel model(42, 0.01, 0.002);
  EXPECT_DOUBLE_EQ(model.perturb(10.0, 7), model.perturb(10.0, 7));
  EXPECT_NE(model.perturb(10.0, 7), model.perturb(10.0, 8));
}

TEST(Noise, NoneIsIdentity) {
  const NoiseModel none = NoiseModel::none();
  EXPECT_DOUBLE_EQ(none.perturb(3.14, 99), 3.14);
}

TEST(Noise, MagnitudeMatchesPaperBand) {
  // Per-module sigma 0.8% + attribution-free end-to-end: a 20 s run
  // must show a stddev within the paper's 0.04-0.2 s band.
  const NoiseModel model(42, 0.008, 0.002);
  std::vector<double> samples;
  for (std::uint64_t rep = 0; rep < 200; ++rep) {
    samples.push_back(model.perturb(20.0, rep * 977));
  }
  const double sigma = support::stddev(samples);
  EXPECT_GT(sigma, 0.04);
  EXPECT_LT(sigma, 0.35);
  EXPECT_NEAR(support::mean(samples), 20.0, 0.1);
}

TEST(Noise, KeyBuilderSensitivity) {
  const auto k1 = NoiseModel::make_key(1, "loop", "tuning", "bdw", 0);
  EXPECT_NE(k1, NoiseModel::make_key(2, "loop", "tuning", "bdw", 0));
  EXPECT_NE(k1, NoiseModel::make_key(1, "other", "tuning", "bdw", 0));
  EXPECT_NE(k1, NoiseModel::make_key(1, "loop", "large", "bdw", 0));
  EXPECT_NE(k1, NoiseModel::make_key(1, "loop", "tuning", "opt", 0));
  EXPECT_NE(k1, NoiseModel::make_key(1, "loop", "tuning", "bdw", 1));
}

// --------------------------------------------------------------- engine ----

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : space_(flags::icc_space()),
        program_(programs::cloverleaf()),
        compiler_(space_, broadwell()),
        engine_(program_, compiler_) {}

  flags::FlagSpace space_;
  ir::Program program_;
  compiler::Compiler compiler_;
  ExecutionEngine engine_;
};

TEST_F(EngineTest, BaselineCalibratedToPublishedRuntime) {
  RunOptions options;
  options.noise = false;
  const RunResult result =
      engine_.run(engine_.baseline(), program_.tuning_input(), options);
  EXPECT_NEAR(result.end_to_end, program_.tuning_input().o3_seconds,
              1e-6);
}

TEST_F(EngineTest, BaselineLoopSharesMatchModel) {
  RunOptions options;
  options.noise = false;
  const RunResult result =
      engine_.run(engine_.baseline(), program_.tuning_input(), options);
  for (std::size_t j = 0; j < program_.loops().size(); ++j) {
    EXPECT_NEAR(result.loop_seconds[j] / result.end_to_end,
                program_.loops()[j].o3_ratio, 1e-9)
        << program_.loops()[j].name;
  }
}

TEST_F(EngineTest, DeterministicRuns) {
  RunOptions options;
  const RunResult a =
      engine_.run(engine_.baseline(), program_.tuning_input(), options);
  const RunResult b =
      engine_.run(engine_.baseline(), program_.tuning_input(), options);
  EXPECT_DOUBLE_EQ(a.end_to_end, b.end_to_end);
  EXPECT_EQ(a.loop_seconds, b.loop_seconds);
}

TEST_F(EngineTest, RepBaseDecorrelates) {
  RunOptions a, b;
  b.rep_base = 1234;
  EXPECT_NE(
      engine_.run(engine_.baseline(), program_.tuning_input(), a)
          .end_to_end,
      engine_.run(engine_.baseline(), program_.tuning_input(), b)
          .end_to_end);
}

TEST_F(EngineTest, InstrumentedRunCarriesOverheadAndReport) {
  RunOptions plain, instrumented;
  plain.noise = instrumented.noise = false;
  instrumented.instrumented = true;
  const RunResult p =
      engine_.run(engine_.baseline(), program_.tuning_input(), plain);
  const RunResult i = engine_.run(engine_.baseline(),
                                  program_.tuning_input(), instrumented);
  EXPECT_GT(i.end_to_end, p.end_to_end);            // annotation cost
  EXPECT_LT(i.end_to_end, p.end_to_end * 1.03);     // < 3% (paper §3.3)
  // The report is rendered on demand (Caliper::report()), never per run.
  EXPECT_TRUE(i.caliper_report.empty());
  EXPECT_TRUE(p.caliper_report.empty());
}

TEST_F(EngineTest, DerivedNonloopIsEndToEndMinusLoops) {
  RunOptions options;
  options.instrumented = true;
  const RunResult result =
      engine_.run(engine_.baseline(), program_.tuning_input(), options);
  const double loops = std::accumulate(result.loop_seconds.begin(),
                                       result.loop_seconds.end(), 0.0);
  EXPECT_NEAR(result.derived_nonloop_seconds,
              result.end_to_end - loops, 1e-9);
}

TEST_F(EngineTest, StddevReportedOverReps) {
  RunOptions options;
  options.repetitions = 10;
  const RunResult result =
      engine_.run(engine_.baseline(), program_.tuning_input(), options);
  EXPECT_GT(result.stddev, 0.0);
  EXPECT_LT(result.stddev, 0.5);  // paper band, generously
}

TEST_F(EngineTest, TrueModuleSecondsSumToCalibratedTotal) {
  const auto truth = engine_.true_module_seconds(
      engine_.baseline(), program_.tuning_input());
  const double total =
      std::accumulate(truth.begin(), truth.end(), 0.0);
  EXPECT_NEAR(total, program_.tuning_input().o3_seconds, 1e-6);
}

TEST_F(EngineTest, DifferentInputsCalibrateIndependently) {
  const auto large = program_.input("large");
  ASSERT_TRUE(large.has_value());
  RunOptions options;
  options.noise = false;
  const RunResult result =
      engine_.run(engine_.baseline(), *large, options);
  EXPECT_NEAR(result.end_to_end, large->o3_seconds, 1e-6);
}

TEST_F(EngineTest, BaselineSecondsAveragesReps) {
  const double seconds =
      engine_.baseline_seconds(program_.tuning_input(), 10);
  EXPECT_NEAR(seconds, program_.tuning_input().o3_seconds, 0.5);
}

// ------------------------------------- Caliper replay bit-identity ----

/// Reference for an instrumented, noise-free engine run: one Caliper
/// per repetition driven through the string API, the clock advanced by
/// measured/steps between each begin and end. The engine must
/// reproduce it bit for bit.
RunResult replay_through_string_api(ExecutionEngine& engine,
                                    const compiler::Executable& exe,
                                    const ir::InputSpec& input, int reps,
                                    double overhead_per_event) {
  const ir::Program& program = engine.program();
  const std::vector<double> measured = engine.true_module_seconds(exe, input);
  const std::size_t loop_count = program.loops().size();
  RunResult result;
  result.loop_seconds.assign(loop_count, 0.0);
  std::vector<double> end_samples;
  for (int rep = 0; rep < reps; ++rep) {
    caliper::VirtualClock clock;
    caliper::Caliper caliper(&clock, overhead_per_event);
    const int steps = std::max(input.timesteps, 1);
    for (int step = 0; step < steps; ++step) {
      for (std::size_t j = 0; j < loop_count; ++j) {
        caliper.begin(program.loops()[j].name);
        clock.advance(measured[j] / static_cast<double>(steps));
        caliper.end(program.loops()[j].name);
      }
      clock.advance(measured[loop_count] / static_cast<double>(steps));
    }
    end_samples.push_back(clock.now());
    for (std::size_t j = 0; j < loop_count; ++j) {
      result.loop_seconds[j] += caliper.inclusive(program.loops()[j].name);
    }
  }
  for (double& loop_second : result.loop_seconds) {
    loop_second /= static_cast<double>(reps);
  }
  result.end_to_end = support::mean(end_samples);
  return result;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(EngineCaliper, InstrumentedRunsMatchStringApiReplay) {
  const flags::FlagSpace space = flags::icc_space();
  support::Rng rng(0x5eed);
  for (const ir::Program& program : programs::suite()) {
    for (const Architecture& arch : all_architectures()) {
      compiler::Compiler compiler(space, arch);
      ExecutionEngine engine(program, compiler);
      const compiler::Executable tuned =
          compiler.build_uniform(program, space.sample(rng));
      for (const compiler::Executable* exe : {&engine.baseline(), &tuned}) {
        for (const ir::InputSpec& input : program.inputs()) {
          for (int reps : {1, 3}) {
            RunOptions options;
            options.instrumented = true;
            options.noise = false;
            options.repetitions = reps;
            const RunResult got = engine.run(*exe, input, options);
            const RunResult want =
                replay_through_string_api(engine, *exe, input, reps, 2e-4);
            const std::string where =
                program.name() + " on " + arch.name + ", input " + input.name;
            EXPECT_TRUE(same_bits(got.end_to_end, want.end_to_end)) << where;
            ASSERT_EQ(got.loop_seconds.size(), want.loop_seconds.size());
            for (std::size_t j = 0; j < got.loop_seconds.size(); ++j) {
              EXPECT_TRUE(
                  same_bits(got.loop_seconds[j], want.loop_seconds[j]))
                  << where << ", loop " << program.loops()[j].name;
            }
          }
        }
      }
    }
  }
}

TEST(EngineCaliper, SameNamedLoopsShareOneRegionReading) {
  auto loop = [](double ratio, double flops) {
    ir::LoopModule m;
    m.name = "dup";
    m.o3_ratio = ratio;
    m.features.flops_per_iter = flops;
    m.features.trip_count = 4000;
    return m;
  };
  ir::LoopModule nonloop = loop(0.4, 10);
  nonloop.name = "nonloop";
  ir::InputSpec tuning;
  tuning.name = "tuning";
  const ir::Program program("twins", "C", 1, {loop(0.35, 20), loop(0.25, 40)},
                            nonloop, {tuning});
  const flags::FlagSpace space = flags::icc_space();
  compiler::Compiler compiler(space, broadwell());
  ExecutionEngine engine(program, compiler);
  RunOptions options;
  options.instrumented = true;
  options.noise = false;
  const RunResult result = engine.run(engine.baseline(), tuning, options);
  ASSERT_EQ(result.loop_seconds.size(), 2u);
  // One region "dup" aggregates both loops, so both read its total.
  EXPECT_TRUE(same_bits(result.loop_seconds[0], result.loop_seconds[1]));
  const std::vector<double> truth =
      engine.true_module_seconds(engine.baseline(), tuning);
  EXPECT_GT(result.loop_seconds[0], truth[0] + truth[1]);
  const RunResult want =
      replay_through_string_api(engine, engine.baseline(), tuning, 1, 2e-4);
  EXPECT_TRUE(same_bits(result.loop_seconds[0], want.loop_seconds[0]));
  EXPECT_TRUE(same_bits(result.end_to_end, want.end_to_end));
}

}  // namespace
}  // namespace ft::machine
