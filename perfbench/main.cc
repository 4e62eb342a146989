/**
 * @file
 * perfbench: the same-host benchmark program (see README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--digests FILE] [--spans-out FILE] [--commit ID]
 *   perfbench --record-digests FIRST LAST
 *
 * --trace 0 measures the end-to-end metrics, --trace 1 the per-layer
 * breakdown.  Both check every output: each instance against its
 * sequential reference, and each report's bytes against the digest
 * recorded for (workload, seed), or against the first run's when none
 * is recorded.  The last line of stdout is one JSON object with the
 * keys correct, attempted, failed and metrics; the exit code is nonzero
 * on any failed check.
 */

#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string_view>
#include <thread>

#include "bench.hh"
#include "scenario/arrivals.hh"
#include "sim/rng.hh"
#include "simd/backend.hh"

namespace {

using namespace perfbench;
namespace sc = ot::scenario;
namespace wl = ot::workload;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string digests;
    std::string spansOut;
    std::string commit = "unknown";
    bool record = false;
    std::uint64_t recordFirst = 0;
    std::uint64_t recordLast = 0;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        try {
            if (flag == "--workload")
                a.workload = value();
            else if (flag == "--seed")
                a.seed = std::stoull(value());
            else if (flag == "--seconds")
                a.seconds = std::stod(value());
            else if (flag == "--trace")
                a.trace = std::stoi(value());
            else if (flag == "--digests")
                a.digests = value();
            else if (flag == "--spans-out")
                a.spansOut = value();
            else if (flag == "--commit")
                a.commit = value();
            else if (flag == "--record-digests") {
                a.record = true;
                a.recordFirst = std::stoull(value());
                a.recordLast = std::stoull(value());
            } else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return a.record || (!a.workload.empty() && a.seconds > 0 &&
                        (a.trace == 0 || a.trace == 1));
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Outcome bookkeeping: instance verification and report digests. */
class Checker
{
  public:
    /** Expect reports of kind `key` to hash to `hex`. */
    void expect(const std::string &key, const std::string &hex)
    {
        _expected[key] = hex;
    }

    /** Count one run's instances and check its report digest. */
    void
    check(const RunResult &r, const std::string &key)
    {
        _attempted += r.attempted;
        _failed += r.unverified;
        if (r.unverified)
            std::cerr << "perfbench: " << r.unverified << " of "
                      << r.attempted << " instances failed verification ("
                      << key << ")\n";
        const std::string d = digest(r.report);
        auto [it, fresh] = _expected.try_emplace(key, d);
        if (!fresh && it->second != d) {
            ++_failed;
            std::cerr << "perfbench: " << key << " report digest " << d
                      << " != expected " << it->second << "\n";
        }
    }

    /** Count a failed check that is not an instance or a digest. */
    void fail() { ++_failed; }

    std::uint64_t attempted() const { return _attempted; }
    std::uint64_t failed() const { return _failed; }

  private:
    std::map<std::string, std::string> _expected;
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
};

/** A warm BatchEngine rep as a RunResult (the report keeps hit flags). */
RunResult
runWarm(wl::BatchEngine &engine, const Workload &w)
{
    RunResult r;
    wl::BatchReport rep = engine.run(w.batch);
    r.report = rep.toJson();
    countOutcomes(rep, r);
    return r;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
summary(const std::vector<double> &v)
{
    std::ostringstream os;
    os << "median " << median(v) << " over " << v.size() << " runs";
    return os.str();
}

/**
 * Peak RSS of a child process that runs only one cold run of the
 * workload; 0 if the child failed.  Must run before any host-thread
 * pool exists: a forked child inherits none of its workers.
 */
double
childPeakRssMb(const Workload &w)
{
    std::cout.flush();
    const pid_t pid = fork();
    if (pid == 0) {
        const RunResult r = runCold(w, w.hostThreads);
        _exit(r.unverified ? 1 : 0);
    }
    int status = 0;
    rusage ru{};
    if (pid < 0 || wait4(pid, &status, 0, &ru) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return 0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Host-speed calibration.  On a shared host the speed of both kinds of
 * work the workloads do, user-space compute and kernel page faults,
 * drifts by up to a quarter over a few seconds.  One fixed pass of each
 * kind (sorting 2^18 words, faulting in 32 MiB of fresh pages) is timed
 * between consecutive samples, and a sample is scaled by kReferenceS
 * over the mean of the passes on either side of it: end-to-end times
 * read as host seconds at the speed at which a pass takes kReferenceS.
 * The pass calls no library code, so no change to the library can move
 * it.
 */
class HostSpeed
{
  public:
    HostSpeed() : _keys(std::size_t{1} << 18), _work(_keys.size())
    {
        ot::sim::Rng rng(0x5eed);
        for (std::uint64_t &k : _keys)
            k = rng.next();
    }

    /** Time one pass; returns its index. */
    std::size_t
    pass()
    {
        constexpr std::size_t kFaultBytes = std::size_t{32} << 20;
        const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
        const Clock::time_point t0 = Clock::now();
        std::copy(_keys.begin(), _keys.end(), _work.begin());
        std::sort(_work.begin(), _work.end());
        void *p = mmap(nullptr, kFaultBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p != MAP_FAILED) {
            auto *bytes = static_cast<volatile char *>(p);
            for (std::size_t i = 0; i < kFaultBytes; i += page)
                bytes[i] = 1;
            munmap(p, kFaultBytes);
        }
        _passes.push_back(secondsSince(t0));
        return _passes.size() - 1;
    }

    /** Factor for a time sample taken between passes i and i + 1. */
    double
    scale(std::size_t i) const
    {
        return kReferenceS / ((_passes[i] + _passes[i + 1]) / 2);
    }

    const std::vector<double> &passes() const { return _passes; }

  private:
    static constexpr double kReferenceS = 0.035;
    std::vector<std::uint64_t> _keys;
    std::vector<std::uint64_t> _work;
    std::vector<double> _passes;
};

/** Raw host samples, each with the host-speed pass taken before it. */
struct Samples
{
    std::vector<double> raw;
    std::vector<std::size_t> pass;

    void
    add(double value, std::size_t before)
    {
        raw.push_back(value);
        pass.push_back(before);
    }

    /** The samples at reference speed; `rate` marks per-second values. */
    std::vector<double>
    atReference(const HostSpeed &speed, bool rate = false) const
    {
        std::vector<double> out;
        for (std::size_t i = 0; i < raw.size(); ++i) {
            const double k = speed.scale(pass[i]);
            out.push_back(rate ? raw[i] / k : raw[i] * k);
        }
        return out;
    }
};

/**
 * End-to-end metrics (--trace 0).  One cycle takes setup samples, a
 * cold run and a warm run, with a host-speed pass between samples;
 * cycles repeat for the whole budget, so every metric samples the
 * whole run.
 */
std::vector<Metric>
endToEnd(const Args &a, const Workload &w, Checker &chk, double rssMb)
{
    const std::vector<wl::CacheKey> shapes = machineShapes(w);
    wl::BatchEngine engine(w.hostThreads);
    chk.check(runWarm(engine, w), "prime");
    HostSpeed speed;
    Samples setup, wall, rate;
    std::size_t p = speed.pass();
    const Clock::time_point t0 = Clock::now();
    while (wall.raw.size() < 5 || secondsSince(t0) < a.seconds) {
        // Small workloads build in well under a millisecond; take
        // setup samples for ~50 ms per cycle so their median settles.
        const Clock::time_point s0 = Clock::now();
        do
            setup.add(timeSetup(shapes), p);
        while (secondsSince(s0) < 0.05);
        p = speed.pass();

        Clock::time_point t = Clock::now();
        RunResult cold = runCold(w, w.hostThreads);
        wall.add(secondsSince(t), p);
        chk.check(cold, "cold");
        p = speed.pass();

        t = Clock::now();
        RunResult warm = runWarm(engine, w);
        rate.add(static_cast<double>(warm.attempted - warm.unverified) /
                     secondsSince(t),
                 p);
        chk.check(warm, "warm");
        p = speed.pass();
    }
    std::cout << "host-speed pass: " << summary(speed.passes()) << "\n"
              << "setup_s: raw " << summary(setup.raw) << " ("
              << shapes.size() << " machine shapes)\n"
              << "wall_s: raw " << summary(wall.raw) << " at "
              << w.hostThreads << " host thread(s)\n"
              << "instances_per_s: raw " << summary(rate.raw) << " ("
              << w.batch.instances.size() << " instances per run)\n";
    return {{"wall_s", median(wall.atReference(speed)), "s"},
            {"setup_s", median(setup.atReference(speed)), "s"},
            {"instances_per_s", median(rate.atReference(speed, true)),
             "1/s"},
            {"peak_rss_mb", rssMb, "MB"}};
}

/** The model-time primitives counted by name; others sum into "other". */
const std::vector<std::string> &
modelPrimitives()
{
    static const std::vector<std::string> names = {
        "baseOp", "circulate", "countLeafToRoot", "cycleToRoot",
        "leafToRoot", "loadBase", "minCycleToRoot", "minLeafToRoot",
        "permuteLeafToLeaf", "prefixSumLeafToLeaf", "rootToCycle",
        "rootToLeaf", "route", "sumCycleToRoot", "sumLeafToRoot",
        "vectorCirculate"};
    return names;
}

/** Per-layer metrics (--trace 1). */
std::vector<Metric>
perLayer(const Args &a, const Workload &w, Checker &chk, unsigned nproc)
{
    const double budget = a.seconds;
    // Scenario replays run on an engine whose measurements are
    // memoized (primed here, outside the traced runs).
    std::unique_ptr<sc::ScenarioEngine> memoized;
    if (w.kind == Kind::Scenario) {
        memoized = std::make_unique<sc::ScenarioEngine>(1);
        std::vector<sc::ScenarioReport> reports;
        for (sc::SchedulerKind k : comparedPolicies())
            reports.push_back(memoized->run(w.scenario, k));
        RunResult r;
        r.report = sc::compareJson(reports);
        chk.check(r, "cold");
    }

    // Traced runs alternate with untraced 1-lane cold runs, the
    // denominator of coverage and overhead, so drift in host load
    // touches both alike.
    std::vector<TracedRun> runs;
    std::vector<double> base;
    const Clock::time_point t0 = Clock::now();
    while (runs.size() < 3 || secondsSince(t0) < 0.55 * budget) {
        const Clock::time_point t = Clock::now();
        RunResult r = runCold(w, 1);
        base.push_back(secondsSince(t));
        chk.check(r, "cold");
        runs.push_back(runTraced(w, memoized.get()));
        chk.check(runs.back().result, "cold");
    }

    // Farm scaling on a warm cache: 1 lane against nproc lanes, with
    // the two engines alternating.  Both reports must be identical.
    wl::BatchEngine one(1), all(nproc);
    chk.check(runWarm(one, w), "prime");
    chk.check(runWarm(all, w), "prime");
    std::vector<double> warm1, warmN;
    const Clock::time_point f0 = Clock::now();
    while (warm1.size() < 3 || secondsSince(f0) < 0.2 * budget) {
        for (auto [engine, out] : {std::pair{&one, &warm1},
                                   std::pair{&all, &warmN}}) {
            const Clock::time_point t = Clock::now();
            RunResult r = runWarm(*engine, w);
            out->push_back(secondsSince(t));
            chk.check(r, "warm");
        }
    }

    std::vector<Metric> out;
    auto add = [&](const std::string &name, double v, const char *unit) {
        out.push_back({name, std::isfinite(v) ? v : 0.0, unit});
    };
    using Totals = std::map<std::string, LayerTotal>;
    std::vector<Totals> totals;
    for (const TracedRun &r : runs)
        totals.push_back(layerTotals(r.log));
    // Median over the traced runs of one per-run quantity.
    auto perRun =
        [&](const std::function<double(const TracedRun &, const Totals &)>
                &f) {
            std::vector<double> v;
            for (std::size_t i = 0; i < runs.size(); ++i)
                v.push_back(f(runs[i], totals[i]));
            return median(v);
        };
    auto self = [&](const char *span) {
        return perRun([span](const TracedRun &, const Totals &t) {
            auto it = t.find(span);
            return it == t.end() ? 0.0 : it->second.selfS;
        });
    };
    // Call counts are the same in every traced run.
    auto calls = [&](const char *span) {
        auto it = totals.front().find(span);
        return it == totals.front().end()
                   ? 0.0
                   : static_cast<double>(it->second.calls);
    };

    add("topo.build_s", self("topo.build"), "s");
    add("topo.build_calls", calls("topo.build"), "count");
    add("topo.reset_s", self("topo.reset"), "s");
    add("topo.reset_calls", calls("topo.reset"), "count");
    add("topo.free_s", self("topo.free"), "s");
    static const char *algos[] = {"sort", "matmul", "boolmm",
                                  "cc",   "mst",    "sssp"};
    std::vector<std::string> runSpans;
    for (const char *algo : algos)
        runSpans.push_back(std::string("topo.run.") + algo);
    for (std::size_t i = 0; i < runSpans.size(); ++i) {
        add(std::string("topo.run_s.") + algos[i],
            self(runSpans[i].c_str()), "s");
        add(std::string("topo.run_calls.") + algos[i],
            calls(runSpans[i].c_str()), "count");
    }
    add("topo.run_ns_per_step",
        perRun([&](const TracedRun &r, const Totals &t) {
            double s = 0;
            for (const std::string &span : runSpans)
                if (auto it = t.find(span); it != t.end())
                    s += it->second.selfS;
            return s * 1e9 / static_cast<double>(r.result.modelSteps);
        }),
        "ns/step");

    const double warmN_s = median(warmN);
    const double instanceS = perRun([](const TracedRun &, const Totals &t) {
        auto it = t.find("workload.instance");
        return it == t.end() ? 0.0 : it->second.totalS;
    });
    add("workload.cache_hit_s", self("workload.cache_hit"), "s");
    add("workload.cache_hits", calls("workload.cache_hit"), "count");
    add("workload.cache_misses", calls("topo.build"), "count");
    add("workload.inputs_s", self("workload.inputs"), "s");
    add("workload.verify_s", self("workload.verify"), "s");
    add("workload.report_s", self("workload.report"), "s");
    add("workload.farm_speedup", median(warm1) / warmN_s, "ratio");
    add("workload.farm_efficiency", instanceS / (nproc * warmN_s),
        "ratio");

    add("scenario.arrivals_s", self("scenario.arrivals"), "s");
    add("scenario.queue_s", self("scenario.queue"), "s");
    std::size_t arrivals = 0;
    if (w.kind == Kind::Scenario)
        arrivals = ot::scenario::generateArrivals(w.scenario).size();
    add("scenario.arrivals", static_cast<double>(arrivals), "count");

    add("sim.parallel_for_ns.t1", probeParallelFor(1), "ns");
    add("sim.parallel_for_ns.tn", probeParallelFor(nproc), "ns");

    // The largest register plane large_cold builds: the N=2048 OTN.
    constexpr std::size_t kProbeSide = 2048;
    for (ot::simd::Backend b :
         {ot::simd::Backend::Scalar, ot::simd::Backend::Avx2,
          ot::simd::Backend::Neon}) {
        if (!ot::simd::backendAvailable(b))
            continue;
        for (const auto &[slot, ns] : probeKernels(b, kProbeSide, a.seed))
            add(std::string("simd.") + ot::simd::toString(b) + "." + slot +
                    ".ns_per_word",
                ns, "ns/word");
    }

    const ModelCounts model = countModelPrimitives(w);
    add("model.steps", static_cast<double>(model.steps), "count");
    std::uint64_t other = 0;
    for (const auto &[name, n] : model.perPrimitive) {
        const auto &known = modelPrimitives();
        if (std::find(known.begin(), known.end(), name) == known.end())
            other += n;
    }
    for (const std::string &name : modelPrimitives()) {
        auto it = model.perPrimitive.find(name);
        add("model.calls." + name,
            it == model.perPrimitive.end()
                ? 0.0
                : static_cast<double>(it->second),
            "count");
    }
    add("model.calls.other", static_cast<double>(other), "count");
    add("model.dropped_events", static_cast<double>(model.dropped),
        "count");

    // Coverage: layer self time (everything but the root's own) over
    // the untraced wall; overhead: traced wall over untraced wall.
    const double baseS = median(base);
    const double coverage = perRun(
        [&](const TracedRun &r, const Totals &t) {
            return (r.wallS - t.at("run").selfS) / baseS;
        });
    add("trace.coverage", coverage, "ratio");
    add("trace.overhead",
        perRun([&](const TracedRun &r, const Totals &) {
            return r.wallS / baseS;
        }),
        "ratio");
    add("trace.unattributed_s", self("run"), "s");
    std::cout << "untraced 1-lane wall: " << summary(base) << "\n"
              << "traced runs: " << runs.size() << "\n"
              << "warm farm wall: 1 lane " << summary(warm1) << ", "
              << nproc << " lanes " << summary(warmN) << "\n";
    if (coverage < 0.9)
        std::cout << "perfbench: WARNING trace.coverage " << coverage
                  << " < 0.9: host time outside the traced layers\n";

    if (!a.spansOut.empty() && !writeSpans(a.spansOut, runs))
        std::cerr << "perfbench: cannot write " << a.spansOut << "\n";
    return out;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Print "name seed digest" for every workload over a seed range. */
int
recordDigests(const Args &a, unsigned nproc)
{
    int rc = 0;
    std::cout << "# workload seed fnv1a64(report json), recorded at 1 "
                 "host thread\n";
    for (const std::string &name : workloadNames()) {
        for (std::uint64_t seed = a.recordFirst; seed <= a.recordLast;
             ++seed) {
            Workload w;
            makeWorkload(name, seed, nproc, w);
            RunResult r = runCold(w, 1);
            const std::string d = digest(r.report);
            if (r.unverified || digest(runCold(w, nproc).report) != d) {
                std::cerr << "perfbench: " << name << " seed " << seed
                          << " failed its checks\n";
                rc = 1;
                continue;
            }
            std::cout << name << " " << seed << " " << d << "\n";
        }
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::cerr << "usage: perfbench --workload large_cold|small_stream|"
                     "farm_mid --seed N --seconds S --trace 0|1\n"
                     "                 [--digests FILE] [--spans-out FILE]"
                     " [--commit ID]\n"
                     "       perfbench --record-digests FIRST LAST\n";
        return 2;
    }
    // Host-time numbers from unoptimized or differently configured
    // builds are not comparable; refuse rather than mix them.
    const std::string buildType = PERFBENCH_BUILD_TYPE;
    if (buildType != "Release") {
        std::cerr << "perfbench: refusing to measure a '" << buildType
                  << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 2;
    }
    const unsigned nproc = hostCpus();
    if (a.record)
        return recordDigests(a, nproc);

    Workload w;
    if (!makeWorkload(a.workload, a.seed, nproc, w)) {
        std::cerr << "perfbench: unknown workload '" << a.workload << "'\n";
        return 2;
    }
    Checker chk;
    std::string digestSource = "first run";
    if (!a.digests.empty()) {
        DigestTable table;
        std::string err;
        if (!loadDigests(a.digests, table, err)) {
            std::cerr << "perfbench: " << err << "\n";
            return 2;
        }
        if (auto it = table.find({w.name, a.seed}); it != table.end()) {
            chk.expect("cold", it->second);
            digestSource = "recorded";
        }
    }

    std::cout << "perfbench context {\"workload\": " << jsonString(w.name)
              << ", \"seed\": " << a.seed << ", \"trace\": " << a.trace
              << ", \"build_type\": " << jsonString(buildType)
              << ", \"simd_backend\": "
              << jsonString(ot::simd::toString(ot::simd::activeBackend()))
              << ", \"host_threads\": " << w.hostThreads
              << ", \"nproc\": " << nproc
              << ", \"commit\": " << jsonString(a.commit)
              << ", \"digest_check\": " << jsonString(digestSource)
              << ", \"model\": \"unvalidated: no hardware reference\"}\n";

    // Peak RSS first: the child must not inherit the heap of earlier
    // runs, nor a host-thread pool it cannot use.
    double rssMb = 0;
    if (!a.trace) {
        rssMb = childPeakRssMb(w);
        if (rssMb == 0) {
            std::cerr << "perfbench: the peak-RSS child run failed\n";
            chk.fail();
        }
    }

    // Reference run at one lane: warms lazy initialization and checks
    // the report against the recorded digest before anything is timed.
    // farm_mid's nproc-lane runs are then held to the same bytes.
    chk.check(runCold(w, 1), "cold");

    std::vector<Metric> metrics = a.trace ? perLayer(a, w, chk, nproc)
                                          : endToEnd(a, w, chk, rssMb);
    if (a.trace)
        metrics.push_back(
            {"fail_frac",
             static_cast<double>(chk.failed()) /
                 static_cast<double>(chk.attempted()),
             "ratio"});

    std::ostringstream line;
    line << "{\"correct\": " << (chk.failed() ? "false" : "true")
         << ", \"attempted\": " << chk.attempted()
         << ", \"failed\": " << chk.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        // Shortest text that reads back as the same double.
        char value[32];
        const auto end = std::to_chars(value, value + sizeof value,
                                       metrics[i].value).ptr;
        line << (i ? ", " : "") << jsonString(metrics[i].name)
             << ": {\"value\": " << std::string_view(value, end - value)
             << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    }
    line << "}}";
    std::cout << line.str() << std::endl;
    return chk.failed() ? 1 : 0;
}
