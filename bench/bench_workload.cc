/**
 * @file
 * Workload-engine benchmark: the batched multi-instance farm from
 * src/workload.
 *
 * Prints the demo batch's report (the same mix `otsim batch --demo`
 * runs: both machine families, sizes {16, 32}, delay models
 * {log, const}, all five algorithms) and a warm rerun's cache
 * counters, then benchmarks:
 *
 *   - BM_BatchWide: a warm sort-only batch swept over batch size, to
 *     see how host-side farm sharding scales with OT_HOST_THREADS.
 *
 * End-to-end host time of cold and warm batches is measured by
 * perfbench (large_cold, farm_mid).
 */

#include <iostream>

#include "bench_common.hh"

namespace {

using namespace ot;
using namespace ot::bench;

void
printTables()
{
    section("Workload farm: the otsim batch --demo mix");
    workload::BatchEngine engine;
    auto report = engine.run(workload::demoWorkload());
    report.writeText(std::cout);

    auto rerun = engine.run(workload::demoWorkload());
    std::printf("\nWarm rerun: %llu hits / %llu misses "
                "(cold: %llu / %llu); makespan %llu both runs: %s\n",
                static_cast<unsigned long long>(rerun.cacheHits),
                static_cast<unsigned long long>(rerun.cacheMisses),
                static_cast<unsigned long long>(report.cacheHits),
                static_cast<unsigned long long>(report.cacheMisses),
                static_cast<unsigned long long>(rerun.makespan),
                rerun.makespan == report.makespan ? "yes" : "NO");
}

void
BM_BatchWide(benchmark::State &state)
{
    std::size_t count = static_cast<std::size_t>(state.range(0));
    workload::WorkloadSpec spec;
    for (std::size_t i = 0; i < count; ++i) {
        workload::InstanceSpec inst;
        inst.algo = workload::Algo::Sort;
        // Four shapes, so the farm has four shards to spread.
        inst.net = i % 2 ? "otc" : "otn";
        inst.n = i % 4 < 2 ? 32 : 64;
        inst.seed = i + 1;
        spec.instances.push_back(inst);
    }
    workload::BatchEngine engine;
    engine.run(spec); // prime the cache
    for (auto _ : state) {
        auto report = engine.run(spec);
        benchmark::DoNotOptimize(report.makespan);
        state.counters["model_makespan"] =
            static_cast<double>(report.makespan);
    }
}
BENCHMARK(BM_BatchWide)->Arg(4)->Arg(16)->Arg(64);

} // namespace

OT_BENCH_MAIN(printTables)
