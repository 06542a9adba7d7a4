#include "compiler/compiler.hpp"

#include <stdexcept>

#include "support/rng.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace ft::compiler {

namespace {

/// Deterministic per-build decision counts: counted from the objects a
/// build() returns (cached or not), so the totals depend only on what
/// was built, never on which thread compiled first.
void count_decisions(const std::vector<CompiledModule>& loop_objects) {
  telemetry::MetricsRegistry& registry = telemetry::metrics();
  static telemetry::Counter& vectorized =
      registry.counter("compiler.decisions.vectorized");
  static telemetry::Counter& unrolled =
      registry.counter("compiler.decisions.unrolled");
  static telemetry::Counter& isel =
      registry.counter("compiler.decisions.aggressive_isel");
  static telemetry::Counter& reordered =
      registry.counter("compiler.decisions.sched_reordered");
  static telemetry::Counter& spilled =
      registry.counter("compiler.decisions.spilled");
  static telemetry::Counter& streaming =
      registry.counter("compiler.decisions.streaming_stores");
  for (const CompiledModule& object : loop_objects) {
    const LoopCodeGen& cg = object.codegen;
    if (cg.vectorized()) vectorized.add();
    if (cg.unroll > 1) unrolled.add();
    if (cg.aggressive_isel) isel.add();
    if (cg.sched_reordered) reordered.add();
    if (cg.spills()) spilled.add();
    if (cg.streaming_stores) streaming.add();
  }
}

}  // namespace

ModuleAssignment ModuleAssignment::uniform(const flags::CompilationVector& cv,
                                           std::size_t loop_count) {
  ModuleAssignment assignment;
  assignment.loop_cvs.assign(loop_count, cv);
  assignment.nonloop_cv = cv;
  return assignment;
}

Compiler::Compiler(const flags::FlagSpace& space, machine::Architecture arch,
                   Personality personality)
    : space_(&space), arch_(std::move(arch)), personality_(personality) {}

CompiledModule Compiler::compile(const ir::LoopModule& module,
                                 const flags::CompilationVector& cv,
                                 const PgoProfile* pgo) {
  return compile_counted(module, cv, pgo, nullptr);
}

CompiledModule Compiler::compile_counted(const ir::LoopModule& module,
                                         const flags::CompilationVector& cv,
                                         const PgoProfile* pgo,
                                         bool* compiled) {
  const bool pgo_valid = pgo != nullptr && pgo->valid;
  std::uint64_t key = cv.hash();
  key ^= support::fnv1a64(module.name);
  if (pgo_valid) key ^= 0xa5a5a5a5a5a5a5a5ULL;

  CompiledModule object;
  bool inserted = false;
  {
    std::unique_lock lock(cache_mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      // Rebuild the object around the caller's module and CV.
      object.settings = it->second.settings;
      object.codegen = it->second.codegen;
      lock.unlock();
      object.module_name = module.name;
      object.cv = cv;
      object.is_loop = module.is_loop;
    } else {
      lock.unlock();
      object = compile_module(module, cv, space_->decode(cv), arch_,
                              personality_, pgo);
      lock.lock();
      inserted =
          cache_.try_emplace(key, CacheEntry{object.settings, object.codegen})
              .second;
    }
  }
  // A miss is a module this call put in the cache. A racing compile of
  // the same key that lost the insert counts as a hit, so both totals
  // depend only on which modules were compiled, never on timing.
  (inserted ? cache_misses_ : cache_hits_)
      .fetch_add(1, std::memory_order_relaxed);
  if (compiled) *compiled = inserted;
  if (telemetry::enabled()) {
    static telemetry::Counter& hits =
        telemetry::metrics().counter("compiler.cache_hits");
    static telemetry::Counter& misses =
        telemetry::metrics().counter("compiler.cache_misses");
    (inserted ? misses : hits).add();
  }
  return object;
}

Executable Compiler::build(const ir::Program& program,
                           const ModuleAssignment& assignment,
                           const PgoProfile* pgo,
                           std::size_t* modules_compiled) {
  if (assignment.loop_cvs.size() != program.loops().size()) {
    throw std::invalid_argument(
        "build: assignment has " + std::to_string(assignment.loop_cvs.size()) +
        " loop CVs but program has " +
        std::to_string(program.loops().size()) + " loops");
  }
  std::size_t compiled_here = 0;
  bool compiled = false;
  std::vector<CompiledModule> loop_objects;
  loop_objects.reserve(program.loops().size());
  for (std::size_t j = 0; j < program.loops().size(); ++j) {
    loop_objects.push_back(
        compile_counted(program.loops()[j], assignment.loop_cvs[j], pgo,
                        &compiled));
    compiled_here += compiled ? 1 : 0;
  }
  const CompiledModule nonloop_object =
      compile_counted(program.nonloop(), assignment.nonloop_cv, pgo,
                      &compiled);
  compiled_here += compiled ? 1 : 0;
  if (modules_compiled) *modules_compiled = compiled_here;
  if (telemetry::enabled()) {
    static telemetry::Counter& builds =
        telemetry::metrics().counter("compiler.builds");
    static telemetry::Counter& links =
        telemetry::metrics().counter("compiler.links");
    builds.add();
    links.add();
    count_decisions(loop_objects);
  }
  return link(program, loop_objects, nonloop_object, arch_, personality_,
              pgo, link_options_);
}

Executable Compiler::build_uniform(const ir::Program& program,
                                   const flags::CompilationVector& cv,
                                   const PgoProfile* pgo) {
  return build(program,
               ModuleAssignment::uniform(cv, program.loops().size()), pgo);
}

Executable Compiler::build_baseline(const ir::Program& program) {
  return build_uniform(program, space_->default_cv());
}

void Compiler::clear_cache() {
  std::lock_guard lock(cache_mutex_);
  cache_.clear();
  cache_hits_.store(0, std::memory_order_relaxed);
  cache_misses_.store(0, std::memory_order_relaxed);
}

}  // namespace ft::compiler
