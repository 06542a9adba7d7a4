// Exhaustive per-flag behavioural tests of the compiler pipeline: for
// every minor optimization flag, the documented effect direction under
// its triggering loop conditions, and the penalty/neutral behaviour
// otherwise. Each case states: flag text, a feature tweak, and whether
// the flag is expected to help (<1 multiplier product) or hurt (>1)
// relative to the default compilation of the same loop.
#include <gtest/gtest.h>

#include <functional>

#include "compiler/pipeline.hpp"
#include "flags/spaces.hpp"
#include "machine/architecture.hpp"

namespace ft::compiler {
namespace {

ir::LoopModule base_loop() {
  ir::LoopModule m;
  m.name = "loop";
  m.features.flops_per_iter = 30;
  m.features.memops_per_iter = 8;
  m.features.body_size = 40;
  m.features.trip_count = 6000;
  m.features.unit_stride_frac = 0.9;
  m.features.working_set_mb = 80;
  m.features.register_pressure = 0.3;
  m.features.fp_intensity = 0.9;
  m.features.sanitize();
  return m;
}

/// Combined quality multiplier of the codegen (lower is faster); used
/// to compare flag effects independent of the cost model.
double quality(const LoopCodeGen& g) {
  return g.compute_mult * g.mem_mult * g.overhead_mult;
}

struct FlagCase {
  const char* label;
  const char* flag_text;
  std::function<void(ir::LoopFeatures&)> tweak;  // triggering condition
  bool expect_helps;  // vs. default CV on the SAME tweaked loop
};

class MinorFlag : public ::testing::TestWithParam<FlagCase> {};

TEST_P(MinorFlag, EffectDirection) {
  const FlagCase& test_case = GetParam();
  ir::LoopModule loop = base_loop();
  test_case.tweak(loop.features);
  loop.features.sanitize();

  const flags::FlagSpace space = flags::icc_space();
  const machine::Architecture arch = machine::broadwell();
  const auto baseline_cv = space.default_cv();
  const auto flagged_cv = space.parse(test_case.flag_text);
  ASSERT_TRUE(flagged_cv.has_value()) << test_case.flag_text;

  const CompiledModule baseline =
      compile_module(loop, baseline_cv, space.decode(baseline_cv), arch,
                     Personality::kIcc);
  const CompiledModule flagged =
      compile_module(loop, *flagged_cv, space.decode(*flagged_cv), arch,
                     Personality::kIcc);

  if (test_case.expect_helps) {
    EXPECT_LT(quality(flagged.codegen), quality(baseline.codegen))
        << test_case.label;
  } else {
    EXPECT_GT(quality(flagged.codegen), quality(baseline.codegen))
        << test_case.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMinorFlags, MinorFlag,
    ::testing::Values(
        FlagCase{"scalar-rep off hurts the default loop", "-no-scalar-rep",
                 [](ir::LoopFeatures&) {}, false},
        FlagCase{"fusion off hurts fusable shared-data loops",
                 "-qno-loop-fusion",
                 [](ir::LoopFeatures& f) { f.shared_data = 0.6; }, false},
        FlagCase{"interchange off hurts strided loops",
                 "-qno-loop-interchange",
                 [](ir::LoopFeatures& f) { f.unit_stride_frac = 0.3; },
                 false},
        FlagCase{"distribution helps big bodies", "-qloop-distribution",
                 [](ir::LoopFeatures& f) { f.body_size = 90; }, true},
        FlagCase{"distribution hurts small bodies", "-qloop-distribution",
                 [](ir::LoopFeatures& f) { f.body_size = 20; }, false},
        FlagCase{"rerolling off hurts the default loop", "-qno-rerolling",
                 [](ir::LoopFeatures&) {}, false},
        FlagCase{"frame pointer hurts the default loop",
                 "-fno-omit-frame-pointer",
                 [](ir::LoopFeatures&) {}, false},
        FlagCase{"loop alignment off hurts the default loop",
                 "-no-align-loops",
                 [](ir::LoopFeatures&) {}, false},
        FlagCase{"dynamic-align off hurts vectorized loops",
                 "-qno-opt-dynamic-align", [](ir::LoopFeatures&) {},
                 false},
        FlagCase{"function alignment 32 helps slightly",
                 "-falign-functions=32", [](ir::LoopFeatures&) {}, true},
        FlagCase{"jump tables off hurts branchy loops",
                 "-qno-opt-jump-tables",
                 [](ir::LoopFeatures& f) { f.static_branchiness = 0.5; },
                 false},
        FlagCase{"jump tables off ~neutral-good on straight code",
                 "-qno-opt-jump-tables",
                 [](ir::LoopFeatures& f) { f.static_branchiness = 0.0; },
                 true},
        FlagCase{"matmul recognition costs a little", "-qopt-matmul",
                 [](ir::LoopFeatures&) {}, false},
        FlagCase{"safe padding helps vectorized loops",
                 "-qopt-assume-safe-padding", [](ir::LoopFeatures&) {},
                 true},
        FlagCase{"layout-trans 0 hurts the default loop",
                 "-qopt-mem-layout-trans=0",
                 [](ir::LoopFeatures&) {}, false},
        FlagCase{"layout-trans 2 helps shared-heavy loops",
                 "-qopt-mem-layout-trans=2",
                 [](ir::LoopFeatures& f) { f.shared_data = 0.6; }, true},
        FlagCase{"layout-trans 3 hurts private-data loops",
                 "-qopt-mem-layout-trans=3",
                 [](ir::LoopFeatures& f) { f.shared_data = 0.1; }, false},
        FlagCase{"calloc opt costs loops a little", "-qopt-calloc",
                 [](ir::LoopFeatures&) {}, false},
        FlagCase{"no-ansi-alias helps shared-data-heavy loops",
                 "-no-ansi-alias",
                 [](ir::LoopFeatures& f) { f.shared_data = 0.7; }, true},
        FlagCase{"no-ansi-alias hurts private-data loops",
                 "-no-ansi-alias",
                 [](ir::LoopFeatures& f) { f.shared_data = 0.1; }, false},
        FlagCase{"low inline factor hurts call-heavy loops",
                 "-inline-factor=0",
                 [](ir::LoopFeatures& f) { f.call_density = 0.5; },
                 false},
        FlagCase{"high inline factor helps call-heavy loops",
                 "-inline-factor=400",
                 [](ir::LoopFeatures& f) { f.call_density = 0.5; }, true},
        FlagCase{"sched list helps big straight bodies", "-qsched=list",
                 [](ir::LoopFeatures& f) {
                   f.body_size = 80;
                   f.divergence = 0.05;
                 },
                 true},
        FlagCase{"sched list hurts small bodies", "-qsched=list",
                 [](ir::LoopFeatures& f) { f.body_size = 20; }, false},
        FlagCase{"sched trace helps divergent branchy code",
                 "-qsched=trace",
                 [](ir::LoopFeatures& f) {
                   f.static_branchiness = 0.7;
                   f.divergence = 0.5;
                 },
                 true},
        FlagCase{"sched trace hurts coherent code", "-qsched=trace",
                 [](ir::LoopFeatures& f) { f.divergence = 0.05; }, false},
        FlagCase{"sched aggressive helps dependence-free bodies",
                 "-qsched=aggressive",
                 [](ir::LoopFeatures& f) { f.dependence = 0.0; }, true},
        FlagCase{"sched aggressive hurts dependent bodies",
                 "-qsched=aggressive",
                 [](ir::LoopFeatures& f) { f.dependence = 0.4; }, false},
        FlagCase{"isel helps fp-dominated loops", "-qisel-aggressive",
                 [](ir::LoopFeatures& f) { f.fp_intensity = 0.95; },
                 true},
        FlagCase{"isel hurts mixed-type loops", "-qisel-aggressive",
                 [](ir::LoopFeatures& f) { f.fp_intensity = 0.4; },
                 false}),
    [](const ::testing::TestParamInfo<FlagCase>& info) {
      std::string name = info.param.label;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---- headline-knob interactions not covered by compiler_test -------------

TEST(HeadlineFlags, O2AndO1AreSlower) {
  const flags::FlagSpace space = flags::icc_space();
  const machine::Architecture arch = machine::broadwell();
  const ir::LoopModule loop = base_loop();
  auto quality_of = [&](const std::string& text) {
    const auto cv = space.parse(text);
    EXPECT_TRUE(cv.has_value());
    return quality(compile_module(loop, *cv, space.decode(*cv), arch,
                                  Personality::kIcc)
                       .codegen);
  };
  const double o3 = quality_of("");
  EXPECT_GT(quality_of("-O2"), o3);
  EXPECT_GT(quality_of("-O1"), quality_of("-O2"));
}

TEST(HeadlineFlags, RegionRaReducesSpills) {
  const flags::FlagSpace space = flags::icc_space();
  const machine::Architecture arch = machine::broadwell();
  ir::LoopModule loop = base_loop();
  loop.features.register_pressure = 0.85;
  const auto plain = space.parse("-unroll2");
  const auto region = space.parse("-unroll2 -qopt-ra-region-strategy=region");
  ASSERT_TRUE(plain && region);
  const double plain_spill =
      compile_module(loop, *plain, space.decode(*plain), arch,
                     Personality::kIcc)
          .codegen.spill_severity;
  const double region_spill =
      compile_module(loop, *region, space.decode(*region), arch,
                     Personality::kIcc)
          .codegen.spill_severity;
  EXPECT_LT(region_spill, plain_spill);
}

TEST(HeadlineFlags, TileOnlyWithUnitStride) {
  const flags::FlagSpace space = flags::icc_space();
  const machine::Architecture arch = machine::broadwell();
  ir::LoopModule strided = base_loop();
  strided.features.unit_stride_frac = 0.3;
  const auto cv = space.parse("-opt-block-factor=8");
  ASSERT_TRUE(cv.has_value());
  EXPECT_EQ(compile_module(strided, *cv, space.decode(*cv), arch,
                           Personality::kIcc)
                .codegen.tile,
            0);
  const ir::LoopModule contiguous = base_loop();
  EXPECT_EQ(compile_module(contiguous, *cv, space.decode(*cv), arch,
                           Personality::kIcc)
                .codegen.tile,
            8);
}

TEST(HeadlineFlags, UnrollAggressiveDoublesHeuristic) {
  const flags::FlagSpace space = flags::icc_space();
  const machine::Architecture arch = machine::broadwell();
  const ir::LoopModule loop = base_loop();  // body 40 -> heuristic 2
  const auto plain_cv = space.default_cv();
  const auto aggressive = space.parse("-unroll-aggressive");
  ASSERT_TRUE(aggressive.has_value());
  const int plain = compile_module(loop, plain_cv,
                                   space.decode(plain_cv), arch,
                                   Personality::kIcc)
                        .codegen.unroll;
  const int doubled = compile_module(loop, *aggressive,
                                     space.decode(*aggressive), arch,
                                     Personality::kIcc)
                          .codegen.unroll;
  EXPECT_EQ(doubled, plain * 2);
}

}  // namespace
}  // namespace ft::compiler
