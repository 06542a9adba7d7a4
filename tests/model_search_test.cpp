// Tests for the model-guided search family (bo, group, staged), the
// SearchContext checked accessors + lazy corpus, the namespaced
// per-algorithm option schemas (with their deprecated flat aliases),
// and the typed TuningResult extras block (schema v3, with the v2
// reader).

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/evolution.hpp"
#include "core/funcy_tuner.hpp"
#include "core/model_search.hpp"
#include "core/search.hpp"
#include "core/search_registry.hpp"
#include "core/serialization.hpp"
#include "flags/spaces.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"

namespace ft {
namespace {

using core::FuncyTuner;
using core::FuncyTunerOptions;
using core::SearchContext;
using core::TuningResult;

/// Small budgets throughout: the model searches are sequential (each
/// BO step refits the GP), so the suite shrinks them through the same
/// namespaced-knob channel `ftune --bo:iterations=...` uses.
FuncyTunerOptions tiny_options() {
  FuncyTunerOptions options;
  options.samples = 24;
  options.top_x = 4;
  options.algorithm_options["bo"] = {"--iterations=8", "--warmup=3",
                                     "--candidates=12"};
  options.algorithm_options["group"] = {"--iterations=12"};
  return options;
}

std::string result_json(const FuncyTuner& tuner, const TuningResult& r) {
  return core::tuning_result_json(r, tuner.space(), tuner.program());
}

/// Runs one registry algorithm on a fresh tuner and returns the full
/// serialized result (the bit-identity currency of the whole suite).
std::string run_json(const std::string& key,
                     const FuncyTunerOptions& options,
                     TuningResult* out = nullptr) {
  FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(), options);
  const TuningResult result = tuner.run(key);
  if (out != nullptr) *out = result;
  return result_json(tuner, result);
}

// --- SearchContext checked accessors (one test per accessor) --------------

TEST(SearchContext_, EvaluatorAccessorThrowsWhenUnset) {
  SearchContext context;
  try {
    (void)context.evaluator();
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& error) {
    // The message must name the missing piece and the wiring call.
    EXPECT_NE(std::string(error.what()).find("evaluator"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("provide_"),
              std::string::npos);
  }
}

TEST(SearchContext_, OptionsAccessorThrowsWhenUnset) {
  SearchContext context;
  EXPECT_THROW((void)context.options(), std::logic_error);
}

TEST(SearchContext_, PresampledAccessorThrowsWhenUnset) {
  SearchContext context;
  EXPECT_THROW((void)context.presampled(), std::logic_error);
}

TEST(SearchContext_, OutlineAccessorThrowsWhenUnset) {
  SearchContext context;
  EXPECT_THROW((void)context.outline(), std::logic_error);
}

TEST(SearchContext_, CollectionAccessorThrowsWhenUnset) {
  SearchContext context;
  EXPECT_THROW((void)context.collection(), std::logic_error);
}

TEST(SearchContext_, BaselineAccessorThrowsWhenUnset) {
  SearchContext context;
  EXPECT_THROW((void)context.baseline_seconds(), std::logic_error);
}

TEST(SearchContext_, SeedAssignmentAccessorThrowsWhenUnset) {
  SearchContext context;
  EXPECT_FALSE(context.has_seed_assignment());
  EXPECT_THROW((void)context.seed_assignment(), std::logic_error);
}

TEST(SearchContext_, CorpusNeedsTheEvaluator) {
  SearchContext context;
  EXPECT_THROW((void)context.corpus(), std::logic_error);
}

TEST(SearchContext_, AlgorithmTokensAreEmptyWithoutOptions) {
  // Programmatic harnesses often provide no FuncyTunerOptions at all;
  // the token accessor must not force them.
  SearchContext context;
  EXPECT_TRUE(context.algorithm_tokens("bo").empty());
}

// --- registry surface ------------------------------------------------------

TEST(ModelSearchRegistry, ExposesDeclarativeOptionSchemas) {
  const auto bo = core::SearchRegistry::global().create("bo");
  // Unknown and malformed knobs are strict errors, valid ones parse.
  EXPECT_THROW((void)bo->options().parse({"--no-such-knob=1"}),
               support::CliError);
  EXPECT_THROW((void)bo->options().parse({"--acquisition=banana"}),
               support::CliError);
  const support::OptionSet::Parsed parsed =
      bo->options().parse({"--iterations=7", "--acquisition=mean"});
  EXPECT_EQ(parsed.integer("iterations"), 7);
  EXPECT_EQ(parsed.text("acquisition"), "mean");
  EXPECT_FALSE(parsed.given("warmup"));

  const auto group = core::SearchRegistry::global().create("group");
  EXPECT_EQ(group->options().parse({"--size=4"}).integer("size"), 4);
  // The paper algorithms gained schemas too.
  const auto cfr = core::SearchRegistry::global().create("cfr");
  EXPECT_EQ(cfr->options().parse({"--top-x=6"}).integer("top-x"), 6);
}

// --- namespaced knobs and their deprecated flat aliases -------------------

TEST(ModelSearch, NamespacedKnobsReachTheAlgorithm) {
  FuncyTunerOptions options = tiny_options();
  options.algorithm_options["bo"] = {"--iterations=6", "--warmup=2",
                                     "--candidates=8"};
  TuningResult bo;
  (void)run_json("bo", options, &bo);
  EXPECT_EQ(bo.algorithm, "BO");
  EXPECT_EQ(bo.evaluations, 6u);

  options.algorithm_options["group"] = {"--iterations=9"};
  TuningResult group;
  (void)run_json("group", options, &group);
  EXPECT_EQ(group.algorithm, "Group");
  EXPECT_EQ(group.evaluations, 9u);
}

TEST(ModelSearch, DeprecatedFlatFlagsStillAliasTheNamespacedKnobs) {
  // Flat --top-x / --samples path...
  FuncyTunerOptions flat;
  flat.samples = 20;
  flat.top_x = 3;
  const std::string via_flat = run_json("cfr", flat);

  // ...equals the namespaced --cfr:top-x / --cfr:samples path. The
  // flat fields keep their defaults so only the namespaced knobs can
  // explain a match. (--samples also sizes the collection sweep, so it
  // stays flat; the knob only overrides the search budget.)
  FuncyTunerOptions spaced;
  spaced.samples = 20;
  spaced.top_x = 10;  // overridden by the knob below
  spaced.algorithm_options["cfr"] = {"--top-x=3"};
  const std::string via_knob = run_json("cfr", spaced);
  EXPECT_EQ(via_flat, via_knob);

  // And staged: flat --samples/--top-x vs --staged:iterations/top-x.
  FuncyTunerOptions staged_flat;
  staged_flat.samples = 20;
  staged_flat.top_x = 3;
  const std::string staged_via_flat = run_json("staged", staged_flat);
  FuncyTunerOptions staged_spaced;
  staged_spaced.samples = 20;
  staged_spaced.top_x = 9;
  staged_spaced.algorithm_options["staged"] = {"--top-x=3",
                                               "--iterations=20"};
  EXPECT_EQ(staged_via_flat, run_json("staged", staged_spaced));
}

// --- seeded determinism ----------------------------------------------------

TEST(ModelSearch, FixedSeedIsBitIdenticalAcrossRuns) {
  for (const char* key : {"bo", "group", "staged"}) {
    const FuncyTunerOptions options = tiny_options();
    const std::string first = run_json(key, options);
    const std::string second = run_json(key, options);
    EXPECT_EQ(first, second) << key;

    FuncyTunerOptions reseeded = options;
    reseeded.seed = 1234;
    EXPECT_NE(first, run_json(key, reseeded)) << key;
  }
}

// --- cache-on/off bit-identity --------------------------------------------

TEST(ModelSearch, EvalCacheNeverChangesResults) {
  for (const char* key : {"bo", "group", "staged"}) {
    FuncyTunerOptions options = tiny_options();
    const std::string off = run_json(key, options);
    options.eval_cache = true;
    EXPECT_EQ(off, run_json(key, options)) << key;
  }
}

// --- local vs. remote bit-identity ----------------------------------------

TEST(ModelSearch, RemoteBackendIsBitIdenticalToLocal) {
  service::ServerOptions server_options;
  server_options.listen = "tcp:127.0.0.1:0";
  service::Server server(server_options);
  server.start();
  for (const char* key : {"bo", "group", "staged"}) {
    const FuncyTunerOptions options = tiny_options();
    const std::string local = run_json(key, options);

    FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                     options);
    tuner.evaluator().set_backend(std::make_shared<service::RemoteBackend>(
        service::Client::connect(server.address().display(), "CL",
                                 "broadwell", options)));
    EXPECT_EQ(local, result_json(tuner, tuner.run(key))) << key;
  }
  server.stop();
}

// --- journal / --resume bit-identity --------------------------------------

TEST(ModelSearch, KilledRunResumesBitIdentically) {
  for (const char* key : {"bo", "group", "staged"}) {
    const FuncyTunerOptions options = tiny_options();
    const std::uint64_t fingerprint = core::options_fingerprint(options);
    const std::string path = testing::TempDir() + "ft_model_resume_" +
                             key + ".jsonl";

    // Reference: one uninterrupted journaled run. (The journal feeds
    // staged's training corpus, so the reference must be journaled
    // too - resume identity is journaled-vs-journaled.)
    FuncyTuner recorded(programs::cloverleaf(), machine::broadwell(),
                        options);
    recorded.evaluator().set_journal(
        core::EvalJournal::create(path, fingerprint));
    const TuningResult expected = recorded.run(key);

    // Kill: keep the header and ~40% of the records.
    std::vector<std::string> lines;
    {
      std::ifstream in(path);
      std::string line;
      while (std::getline(in, line)) lines.push_back(line);
    }
    ASSERT_GT(lines.size(), 5u) << key;
    const std::size_t keep = 1 + (lines.size() - 1) * 2 / 5;
    {
      std::ofstream out(path, std::ios::trunc);
      for (std::size_t i = 0; i < keep; ++i) out << lines[i] << '\n';
    }

    auto journal = core::EvalJournal::resume(path, fingerprint);
    EXPECT_GT(journal->loaded(), 0u) << key;
    FuncyTuner resumed(programs::cloverleaf(), machine::broadwell(),
                       options);
    resumed.evaluator().set_journal(journal);
    const TuningResult result = resumed.run(key);
    EXPECT_EQ(result_json(resumed, result),
              result_json(recorded, expected))
        << key;
    EXPECT_GT(journal->replayed(), 0u) << key;
  }
}

// --- staged: corpus behavior ----------------------------------------------

TEST(StagedSearch, EmptyCorpusDegradesToEvolutionaryOnly) {
  // No journal, no disk tier: the corpus is empty. staged must not
  // crash - it runs the evolutionary stage unseeded and says so.
  FuncyTunerOptions options;
  options.samples = 20;
  options.top_x = 3;
  FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(), options);
  const TuningResult staged = tuner.run("staged");
  EXPECT_EQ(staged.algorithm, "Staged");
  EXPECT_EQ(staged.extras.get_or(core::kExtraCorpusSize, -1.0), 0.0);
  EXPECT_EQ(staged.extras.get_or(core::kExtraStagedSeeded, -1.0), 0.0);
  EXPECT_FALSE(staged.extras.contains(core::kExtraStagedSeedPredicted));

  // "Evolutionary-only" is literal: the run matches a direct
  // evolutionary_search call with the derived options.
  FuncyTuner direct(programs::cloverleaf(), machine::broadwell(), options);
  core::EvolutionOptions evolution;
  evolution.top_x = options.top_x;
  evolution.evaluations = options.samples;
  evolution.seed = support::Rng(options.seed).fork("staged").next();
  const TuningResult expected = core::evolutionary_search(
      direct.evaluator(), direct.outline(), direct.collection(), evolution,
      direct.baseline_seconds());
  EXPECT_EQ(staged.history, expected.history);
  EXPECT_DOUBLE_EQ(staged.tuned_seconds, expected.tuned_seconds);
  EXPECT_DOUBLE_EQ(staged.speedup, expected.speedup);
}

TEST(StagedSearch, JournaledCorpusSeedsTheSurrogate) {
  FuncyTunerOptions options;
  options.samples = 20;
  options.top_x = 3;
  const std::string path =
      testing::TempDir() + "ft_staged_corpus.jsonl";
  FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(), options);
  tuner.evaluator().set_journal(
      core::EvalJournal::create(path, core::options_fingerprint(options)));
  const TuningResult staged = tuner.run("staged");
  // staged's own collection sweep journals the kCollection records the
  // corpus probes, so even a cold journal yields a training set.
  EXPECT_GT(staged.extras.get_or(core::kExtraCorpusSize, 0.0), 0.0);
  EXPECT_EQ(staged.extras.get_or(core::kExtraStagedSeeded, 0.0), 1.0);
  EXPECT_TRUE(staged.extras.contains(core::kExtraStagedSeedPredicted));
}

// --- bo/group: corpus warm-start stays deterministic ----------------------

TEST(ModelSearch, WarmCorpusRunsAreDeterministic) {
  for (const char* key : {"bo", "group"}) {
    const FuncyTunerOptions options = tiny_options();
    const std::string path = testing::TempDir() +
                             "ft_model_warm_" + key + ".jsonl";
    const std::uint64_t fingerprint = core::options_fingerprint(options);
    // Warm the journal with a collection sweep (a cfr run does one).
    {
      FuncyTuner warmup(programs::cloverleaf(), machine::broadwell(),
                        options);
      warmup.evaluator().set_journal(
          core::EvalJournal::create(path, fingerprint));
      (void)warmup.run("cfr");
    }
    auto first_journal = core::EvalJournal::resume(path, fingerprint);
    FuncyTuner first(programs::cloverleaf(), machine::broadwell(),
                     options);
    first.evaluator().set_journal(first_journal);
    const TuningResult a = first.run(key);
    EXPECT_GT(a.extras.get_or(core::kExtraCorpusSize, 0.0), 0.0) << key;

    FuncyTuner second(programs::cloverleaf(), machine::broadwell(),
                      options);
    second.evaluator().set_journal(
        core::EvalJournal::resume(path, fingerprint));
    EXPECT_EQ(result_json(first, a), result_json(second, second.run(key)))
        << key;
  }
}

// --- semantic flag groups --------------------------------------------------

TEST(SemanticFlagGroups, PartitionTheWholeSpace) {
  const flags::FlagSpace space = flags::icc_space();
  const std::vector<std::vector<std::size_t>> groups =
      core::semantic_flag_groups(space);
  ASSERT_FALSE(groups.empty());
  EXPECT_LE(groups.size(), 5u);  // the five semantic categories
  std::set<std::size_t> seen;
  for (const auto& group : groups) {
    EXPECT_FALSE(group.empty());
    for (const std::size_t flag : group) {
      EXPECT_LT(flag, space.flag_count());
      EXPECT_TRUE(seen.insert(flag).second)
          << "flag " << flag << " in two groups";
    }
  }
  EXPECT_EQ(seen.size(), space.flag_count());
}

// --- extras serialization (schema v3 + the v2 reader) ---------------------

TEST(ResultExtras, RoundTripsThroughTuningResultJson) {
  FuncyTunerOptions options;
  options.samples = 16;
  FuncyTuner tuner(programs::swim(), machine::broadwell(), options);
  const TuningResult greedy = tuner.run("greedy");
  ASSERT_TRUE(greedy.extras.contains(core::kExtraIndependentSpeedup));

  const std::string json = result_json(tuner, greedy);
  EXPECT_NE(json.find("\"schema_version\":3"), std::string::npos);
  EXPECT_NE(json.find("\"extras\":{"), std::string::npos);

  // The artifact prints numbers at the table precision (6 significant
  // digits), so the round trip is near, not bit-exact.
  const core::ResultExtras read = core::read_tuning_result_extras(json);
  ASSERT_EQ(read.items().size(), greedy.extras.items().size());
  for (const auto& [key, value] : greedy.extras.items()) {
    EXPECT_NEAR(read.get_or(key, -1.0), value,
                1e-4 * std::abs(value) + 1e-9)
        << key;
  }
}

TEST(ResultExtras, DocumentWithoutExtrasReadsBackEmpty) {
  EXPECT_TRUE(core::read_tuning_result_extras(
                  "{\"schema_version\":3,\"algorithm\":\"CFR\"}")
                  .empty());
  // Malformed JSON and future schemas stay hard errors.
  EXPECT_THROW((void)core::read_tuning_result_extras("{\"schema"),
               std::runtime_error);
  EXPECT_THROW((void)core::read_tuning_result_extras(
                   "{\"schema_version\":99}"),
               std::runtime_error);
}

}  // namespace
}  // namespace ft
