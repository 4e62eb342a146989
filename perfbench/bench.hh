/**
 * @file
 * Shared declarations of the same-host benchmark (see README.md).
 *
 * Everything here measures *host* wall-clock time around the library's
 * public entry points.  Model time is an output: it reaches the
 * benchmark only inside the report bytes, which are hashed and checked,
 * never timed.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "scenario/engine.hh"
#include "scenario/spec.hh"
#include "simd/backend.hh"
#include "workload/engine.hh"
#include "workload/network_cache.hh"
#include "workload/spec.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Host seconds from t0 to now. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of a sample (copied, so the caller's order is kept). */
double median(std::vector<double> v);

// ---- Workloads (workloads.cc) -----------------------------------------

enum class Kind : std::uint8_t {
    Batch,    ///< one workload::BatchEngine::run of `batch`
    Scenario, ///< scenario::ScenarioEngine over `scenario`, four policies
};

/** One benchmark workload, generated from the seed. */
struct Workload
{
    std::string name;
    Kind kind = Kind::Batch;
    /** Host lanes of the measured end-to-end runs. */
    unsigned hostThreads = 1;
    /**
     * Batch kind: the batch.  Scenario kind: the distinct instances of
     * the arrival stream in first-appearance order — exactly the batch
     * the ScenarioEngine measures.
     */
    ot::workload::WorkloadSpec batch;
    /** Scenario kind only. */
    ot::scenario::ScenarioSpec scenario;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build workload `name` from `seed`; false on an unknown name. */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  unsigned nproc, Workload &out);

/** The four policies a scenario run compares, in report order. */
const std::vector<ot::scenario::SchedulerKind> &comparedPolicies();

/** FNV-1a 64-bit hash of report bytes, as 16 hex digits. */
std::string digest(const std::string &bytes);

/** Outcome of one cold end-to-end run. */
struct RunResult
{
    /** BatchReport::toJson, or scenario::compareJson. */
    std::string report;
    std::size_t attempted = 0;
    std::size_t unverified = 0;
    /** Model steps summed over the batch's instances (Batch kind). */
    std::uint64_t modelSteps = 0;
};

/** Add a batch report's instances, failures and model steps to `out`. */
void countOutcomes(const ot::workload::BatchReport &rep, RunResult &out);

/**
 * One cold run as the CLI pays it: a fresh engine at `threads` lanes,
 * every machine built, every instance run and verified, the report
 * rendered (JSON + text).
 */
RunResult runCold(const Workload &wl, unsigned threads);

/** The distinct machine shapes of the workload, in first-use order. */
std::vector<ot::workload::CacheKey> machineShapes(const Workload &wl);

/**
 * Host seconds to build every shape through a cold NetworkCache (the
 * cache is destroyed after the clock stops).
 */
double timeSetup(const std::vector<ot::workload::CacheKey> &shapes);

/** Recorded report digests: (workload, seed) -> digest. */
using DigestTable = std::map<std::pair<std::string, std::uint64_t>,
                             std::string>;

/** Parse "workload seed digest" lines ('#' comments); false on error. */
bool loadDigests(const std::string &path, DigestTable &out,
                 std::string &err);

// ---- Traced runs and layer probes (layers.cc) -------------------------

/** One host-time span: a call into one layer. */
struct Span
{
    const char *name = "";
    /** Index of the enclosing span; -1 for the run's root. */
    int parent = -1;
    /** Batch index of the instance the call served; -1 if none. */
    std::int64_t instance = -1;
    Clock::time_point start;
    Clock::time_point end;
};

/** In-memory span recorder with an implicit parent stack. */
class SpanLog
{
  public:
    /** Open a span under the innermost open one; returns its index. */
    int open(const char *name, std::int64_t instance = -1);
    void close(int id);
    void rename(int id, const char *name) { _spans[id].name = name; }
    const std::vector<Span> &spans() const { return _spans; }

  private:
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/** RAII span: open at construction, close at scope exit. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name, std::int64_t instance = -1)
        : _log(log), _id(log.open(name, instance))
    {
    }
    ~Scope() { _log.close(_id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void rename(const char *name) { _log.rename(_id, name); }

  private:
    SpanLog &_log;
    int _id;
};

/** Self time and call count of one span name. */
struct LayerTotal
{
    double selfS = 0;
    double totalS = 0;
    std::uint64_t calls = 0;
};

/** Per-name totals; self time = span time minus child span time. */
std::map<std::string, LayerTotal> layerTotals(const SpanLog &log);

/** One traced cold run (1 host thread): spans plus the checked outputs. */
struct TracedRun
{
    RunResult result;
    SpanLog log;
    /** Root span duration: the traced wall. */
    double wallS = 0;
};

/**
 * Drive the workload through each layer's public calls, in the order
 * BatchEngine::runInstance uses, timing every call.  Scenario kind
 * replays the policies on `memoized`, a ScenarioEngine that has already
 * measured the stream (nullptr for Batch kind).
 */
TracedRun runTraced(const Workload &wl,
                    ot::scenario::ScenarioEngine *memoized);

/** Write the spans of traced runs as TSV (one row per span). */
bool writeSpans(const std::string &path,
                const std::vector<TracedRun> &runs);

/** Per-primitive model-time call counts (trace::analyze) of one pass. */
struct ModelCounts
{
    std::map<std::string, std::uint64_t> perPrimitive;
    std::uint64_t steps = 0;
    std::uint64_t dropped = 0;
};

/** Run every instance once with a model-time tracer attached. */
ModelCounts countModelPrimitives(const Workload &wl);

/** Host ns per word of every KernelTable slot on one backend. */
std::map<std::string, double> probeKernels(ot::simd::Backend backend,
                                           std::size_t side,
                                           std::uint64_t seed);

/** Host ns per empty ChainEngine::parallelFor at `lanes` lanes. */
double probeParallelFor(unsigned lanes);

} // namespace perfbench
