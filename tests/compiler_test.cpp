// Tests for the compiler simulator's pass pipeline: vectorizer
// legality/heuristics, unroller, spills, streaming stores, PGO-informed
// decisions, personalities, and the compile cache.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "compiler/compiler.hpp"
#include "compiler/pipeline.hpp"
#include "flags/spaces.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "support/rng.hpp"

namespace ft::compiler {
namespace {

ir::LoopModule clean_loop() {
  ir::LoopModule m;
  m.name = "clean";
  m.features.flops_per_iter = 30;
  m.features.memops_per_iter = 6;
  m.features.body_size = 40;
  m.features.trip_count = 8000;
  m.features.unit_stride_frac = 0.98;
  m.features.divergence = 0.02;
  m.features.static_branchiness = 0.02;
  m.features.dependence = 0.02;
  m.features.alias_uncertainty = 0.1;
  m.features.register_pressure = 0.3;
  m.features.fp_intensity = 0.9;
  m.features.sanitize();
  return m;
}

CompiledModule compile_with(const ir::LoopModule& loop,
                            const std::string& flag_text,
                            const machine::Architecture& arch,
                            Personality personality = Personality::kIcc,
                            const PgoProfile* pgo = nullptr) {
  const flags::FlagSpace space =
      personality == Personality::kIcc ? flags::icc_space()
                                       : flags::gcc_space();
  const auto cv = space.parse(flag_text);
  EXPECT_TRUE(cv.has_value()) << flag_text;
  return compile_module(loop, *cv, space.decode(*cv), arch, personality,
                        pgo);
}

// ----------------------------------------------------------- vectorizer ----

TEST(Vectorizer, CleanLoopAutoVectorizesOnBroadwell) {
  const CompiledModule object =
      compile_with(clean_loop(), "", machine::broadwell());
  EXPECT_EQ(object.codegen.vector_width, 256);
}

TEST(Vectorizer, OpteronCapsAt128) {
  const CompiledModule object =
      compile_with(clean_loop(), "", machine::opteron());
  EXPECT_LE(object.codegen.vector_width, 128);
}

TEST(Vectorizer, NoVecForcesScalar) {
  const CompiledModule object =
      compile_with(clean_loop(), "-no-vec", machine::broadwell());
  EXPECT_EQ(object.codegen.vector_width, 0);
}

TEST(Vectorizer, ForcedWidthOverridesHeuristic) {
  ir::LoopModule branchy = clean_loop();
  branchy.features.static_branchiness = 0.9;  // heuristic declines...
  branchy.features.unit_stride_frac = 0.6;    // ...this branchy gather
  const CompiledModule declined =
      compile_with(branchy, "", machine::broadwell());
  EXPECT_EQ(declined.codegen.vector_width, 0);
  const CompiledModule forced = compile_with(
      branchy, "-qopt-simd-width=256", machine::broadwell());
  EXPECT_EQ(forced.codegen.vector_width, 256);
}

TEST(Vectorizer, ForcedWidthClampedByArchitecture) {
  const CompiledModule object = compile_with(
      clean_loop(), "-qopt-simd-width=256", machine::opteron());
  EXPECT_EQ(object.codegen.vector_width, 128);
}

TEST(Vectorizer, HardDependenceBlocksEvenForcedWidth) {
  ir::LoopModule dependent = clean_loop();
  dependent.features.dependence = 0.95;
  const CompiledModule object = compile_with(
      dependent, "-qopt-simd-width=256", machine::broadwell());
  EXPECT_EQ(object.codegen.vector_width, 0);
}

TEST(Vectorizer, AliasUncertaintyBlocksAutoVectorization) {
  ir::LoopModule aliased = clean_loop();
  aliased.features.alias_uncertainty = 0.8;
  const CompiledModule object =
      compile_with(aliased, "", machine::broadwell());
  EXPECT_EQ(object.codegen.vector_width, 0);
}

TEST(Vectorizer, MultiVersioningUnblocksAliasedLoop) {
  ir::LoopModule aliased = clean_loop();
  aliased.features.alias_uncertainty = 0.8;
  const CompiledModule object =
      compile_with(aliased, "-qopt-multi-version-aggressive",
                   machine::broadwell());
  EXPECT_GT(object.codegen.vector_width, 0);
  EXPECT_TRUE(object.codegen.multi_versioned);
}

TEST(Vectorizer, O1DisablesVectorization) {
  const CompiledModule object =
      compile_with(clean_loop(), "-O1", machine::broadwell());
  EXPECT_EQ(object.codegen.vector_width, 0);
  EXPECT_EQ(object.codegen.unroll, 1);
}

TEST(Vectorizer, GccMoreConservativeThanIcc) {
  // A borderline loop: ICC vectorizes, GCC declines.
  ir::LoopModule borderline = clean_loop();
  borderline.features.static_branchiness = 0.25;
  borderline.features.unit_stride_frac = 0.75;
  const CompiledModule icc =
      compile_with(borderline, "", machine::broadwell());
  const CompiledModule gcc = compile_with(
      borderline, "", machine::broadwell(), Personality::kGcc);
  EXPECT_GE(icc.codegen.vector_width, gcc.codegen.vector_width);
}

TEST(Vectorizer, EstimatePenalizesWiderVectorsOnDivergentLoops) {
  ir::LoopFeatures f = clean_loop().features;
  f.static_branchiness = 0.4;
  f.unit_stride_frac = 0.55;
  const double e128 = vectorizer_estimate(f, 128, machine::broadwell(),
                                          Personality::kIcc, false);
  const double e256 = vectorizer_estimate(f, 256, machine::broadwell(),
                                          Personality::kIcc, false);
  EXPECT_GT(e128, e256);  // the mom9 effect (Table 3: O3 picks 128)
}

// -------------------------------------------------------------- unroller ----

TEST(Unroller, HeuristicScalesWithBodySize) {
  ir::LoopModule tiny = clean_loop();
  tiny.features.body_size = 16;
  ir::LoopModule big = clean_loop();
  big.features.body_size = 120;
  EXPECT_GT(compile_with(tiny, "", machine::broadwell()).codegen.unroll,
            compile_with(big, "", machine::broadwell()).codegen.unroll);
}

TEST(Unroller, ExplicitFactorRespected) {
  EXPECT_EQ(
      compile_with(clean_loop(), "-unroll8", machine::broadwell())
          .codegen.unroll,
      8);
  EXPECT_EQ(
      compile_with(clean_loop(), "-unroll0", machine::broadwell())
          .codegen.unroll,
      1);
}

TEST(Unroller, Unroll16NeedsOverrideLimits) {
  EXPECT_EQ(
      compile_with(clean_loop(), "-unroll16", machine::broadwell())
          .codegen.unroll,
      8);  // capped without -qoverride-limits
  EXPECT_EQ(compile_with(clean_loop(), "-unroll16 -qoverride-limits",
                         machine::broadwell())
                .codegen.unroll,
            16);
}

TEST(Unroller, PressureCausesSpills) {
  ir::LoopModule hungry = clean_loop();
  hungry.features.register_pressure = 0.9;
  const CompiledModule object =
      compile_with(hungry, "-unroll8", machine::broadwell());
  EXPECT_TRUE(object.codegen.spills());
  const CompiledModule relaxed =
      compile_with(hungry, "-unroll0 -no-vec", machine::broadwell());
  EXPECT_FALSE(relaxed.codegen.spills());
}

TEST(Unroller, SpillSeverityGrowsWithUnrollAndWidth) {
  ir::LoopFeatures f = clean_loop().features;
  f.register_pressure = 0.8;
  const double mild =
      spill_severity_for(f, 2, 0, 0, Personality::kIcc);
  const double severe =
      spill_severity_for(f, 8, 256, 0, Personality::kIcc);
  EXPECT_LT(mild, severe);
}

// ------------------------------------------------------ streaming stores ----

TEST(StreamingStores, AlwaysAndNever) {
  EXPECT_TRUE(compile_with(clean_loop(),
                           "-qopt-streaming-stores=always",
                           machine::broadwell())
                  .codegen.streaming_stores);
  EXPECT_FALSE(compile_with(clean_loop(),
                            "-qopt-streaming-stores=never",
                            machine::broadwell())
                   .codegen.streaming_stores);
}

TEST(StreamingStores, AutoHeuristicIsStatic) {
  // Store-heavy but short statically visible trip count: the static
  // heuristic misses the streaming opportunity (tuning headroom).
  ir::LoopModule stores = clean_loop();
  stores.features.store_frac = 0.6;
  stores.features.trip_count = 2000;
  stores.features.working_set_mb = 200;
  EXPECT_FALSE(compile_with(stores, "", machine::broadwell())
                   .codegen.streaming_stores);
  stores.features.trip_count = 8000;
  EXPECT_TRUE(compile_with(stores, "", machine::broadwell())
                  .codegen.streaming_stores);
}

TEST(StreamingStores, PgoUsesTrueWorkingSet) {
  ir::LoopModule stores = clean_loop();
  stores.features.store_frac = 0.6;
  stores.features.trip_count = 2000;  // static heuristic says no
  stores.features.working_set_mb = 200;
  PgoProfile profile;
  profile.valid = true;
  EXPECT_TRUE(compile_with(stores, "", machine::broadwell(),
                           Personality::kIcc, &profile)
                  .codegen.streaming_stores);
}

// ------------------------------------------------------------------ PGO ----

TEST(Pgo, SkipsVectorizingShortLoops) {
  ir::LoopModule shorty = clean_loop();
  shorty.features.trip_count = 20;
  PgoProfile profile;
  profile.valid = true;
  const CompiledModule with_pgo = compile_with(
      shorty, "", machine::broadwell(), Personality::kIcc, &profile);
  EXPECT_EQ(with_pgo.codegen.vector_width, 0);
  const CompiledModule without =
      compile_with(shorty, "", machine::broadwell());
  EXPECT_GT(without.codegen.vector_width, 0);
}

TEST(Pgo, UsesDynamicDivergence) {
  // Statically branchy but dynamically coherent: PGO vectorizes.
  ir::LoopModule loop = clean_loop();
  loop.features.static_branchiness = 0.9;
  loop.features.unit_stride_frac = 0.75;
  loop.features.divergence = 0.05;
  PgoProfile profile;
  profile.valid = true;
  EXPECT_EQ(compile_with(loop, "", machine::broadwell()).codegen
                .vector_width,
            0);
  EXPECT_GT(compile_with(loop, "", machine::broadwell(),
                         Personality::kIcc, &profile)
                .codegen.vector_width,
            0);
}

// ------------------------------------------------------------- decisions ----

TEST(Codegen, SummaryVocabulary) {
  LoopCodeGen g;
  EXPECT_EQ(g.summary(), "S");
  g.vector_width = 256;
  g.unroll = 2;
  g.aggressive_isel = true;
  EXPECT_EQ(g.summary(), "256, unroll2, IS");
  g.sched_reordered = true;
  g.spill_severity = 0.2;
  EXPECT_EQ(g.summary(), "256, unroll2, IS, IO, RS");
}

TEST(Codegen, HashReflectsDecisions) {
  LoopCodeGen a, b;
  b.unroll = 4;
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Pipeline, DeterministicOutput) {
  const flags::FlagSpace space = flags::icc_space();
  support::Rng rng(3);
  const ir::LoopModule loop = clean_loop();
  for (int i = 0; i < 50; ++i) {
    const flags::CompilationVector cv = space.sample(rng);
    const CompiledModule a =
        compile_module(loop, cv, space.decode(cv), machine::broadwell(),
                       Personality::kIcc);
    const CompiledModule b =
        compile_module(loop, cv, space.decode(cv), machine::broadwell(),
                       Personality::kIcc);
    EXPECT_EQ(a.codegen.hash(), b.codegen.hash());
  }
}

TEST(Pipeline, CodeSizeGrowsWithUnroll) {
  const CompiledModule u1 =
      compile_with(clean_loop(), "-unroll0", machine::broadwell());
  const CompiledModule u8 =
      compile_with(clean_loop(), "-unroll8", machine::broadwell());
  EXPECT_GT(u8.codegen.code_size, u1.codegen.code_size);
}

TEST(Pipeline, FmaOnlyWhereSupported) {
  EXPECT_TRUE(compile_with(clean_loop(), "", machine::broadwell())
                  .codegen.fma);
  EXPECT_FALSE(compile_with(clean_loop(), "", machine::sandy_bridge())
                   .codegen.fma);
  EXPECT_FALSE(compile_with(clean_loop(), "-no-fma",
                            machine::broadwell())
                   .codegen.fma);
}

// ------------------------------------------------------- compiler facade ----

TEST(Compiler, CacheHitsOnRepeatedCompile) {
  const flags::FlagSpace space = flags::icc_space();
  Compiler compiler(space, machine::broadwell());
  const ir::LoopModule loop = clean_loop();
  const flags::CompilationVector cv = space.default_cv();
  (void)compiler.compile(loop, cv);
  EXPECT_EQ(compiler.cache_misses(), 1u);
  (void)compiler.compile(loop, cv);
  EXPECT_EQ(compiler.cache_hits(), 1u);
  compiler.clear_cache();
  EXPECT_EQ(compiler.cache_hits(), 0u);
}

TEST(Compiler, CacheHitRebuildsTheCompiledObject) {
  const flags::FlagSpace space = flags::icc_space();
  Compiler compiler(space, machine::broadwell());
  ir::LoopModule nonloop = clean_loop();
  nonloop.is_loop = false;
  support::Rng rng(11);
  const flags::CompilationVector cv = space.sample(rng);
  const CompiledModule fresh =
      compile_module(nonloop, cv, space.decode(cv), machine::broadwell(),
                     Personality::kIcc);
  (void)compiler.compile(nonloop, cv);
  const CompiledModule hit = compiler.compile(nonloop, cv);
  EXPECT_EQ(compiler.cache_hits(), 1u);
  EXPECT_EQ(hit.module_name, fresh.module_name);
  EXPECT_EQ(hit.cv, fresh.cv);
  EXPECT_EQ(hit.settings.values, fresh.settings.values);
  EXPECT_EQ(hit.codegen.hash(), fresh.codegen.hash());
  EXPECT_FALSE(hit.is_loop);
}

TEST(Compiler, ConcurrentBuildsCountEachMissOnce) {
  // Threads build overlapping assignments on one compiler. Each module
  // (name, CV) is a miss exactly once, and the misses each build reports
  // add up to the compiler's total, whatever the interleaving.
  const flags::FlagSpace space = flags::icc_space();
  const ir::Program program = programs::cloverleaf();
  Compiler compiler(space, machine::broadwell());
  support::Rng rng(12);
  std::vector<flags::CompilationVector> cvs;
  for (int i = 0; i < 8; ++i) cvs.push_back(space.sample(rng));
  constexpr int kThreads = 4;
  constexpr int kBuilds = 40;
  std::atomic<std::size_t> reported{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int b = 0; b < kBuilds; ++b) {
        const flags::CompilationVector& cv =
            cvs[static_cast<std::size_t>(t + b) % cvs.size()];
        std::size_t misses = 0;
        (void)compiler.build(
            program, ModuleAssignment::uniform(cv, program.loops().size()),
            nullptr, &misses);
        reported += misses;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::size_t modules = program.loops().size() + 1;
  EXPECT_EQ(compiler.cache_misses(), cvs.size() * modules);
  EXPECT_EQ(reported.load(), compiler.cache_misses());
  EXPECT_EQ(compiler.cache_hits() + compiler.cache_misses(),
            std::size_t{kThreads} * kBuilds * modules);
}

TEST(Compiler, CacheKeyIncludesPgo) {
  const flags::FlagSpace space = flags::icc_space();
  Compiler compiler(space, machine::broadwell());
  const ir::LoopModule loop = clean_loop();
  const flags::CompilationVector cv = space.default_cv();
  (void)compiler.compile(loop, cv);
  PgoProfile profile;
  profile.valid = true;
  (void)compiler.compile(loop, cv, &profile);
  EXPECT_EQ(compiler.cache_misses(), 2u);
}

TEST(Compiler, BuildRejectsWrongAssignmentSize) {
  const flags::FlagSpace space = flags::icc_space();
  Compiler compiler(space, machine::broadwell());
  ir::LoopModule nl = clean_loop();
  nl.is_loop = false;
  nl.o3_ratio = 0.4;
  ir::LoopModule lp = clean_loop();
  lp.o3_ratio = 0.6;
  ir::InputSpec tuning;
  tuning.name = "tuning";
  ir::Program program("p", "C", 1, {lp}, nl, {tuning});
  compiler::ModuleAssignment assignment;  // empty: wrong size
  assignment.nonloop_cv = space.default_cv();
  EXPECT_THROW((void)compiler.build(program, assignment),
               std::invalid_argument);
}

}  // namespace
}  // namespace ft::compiler
