/**
 * @file
 * otsim — command-line driver for the orthotree simulators.
 *
 * Usage:
 *   otsim <sort|matmul|boolmm|cc|mst|sssp> [--net NAME] [--n N]
 *                 [--seed S] [--model log|const|linear] [--scaled]
 *                 [--trace-out FILE] [--trace-summary FILE]
 *   otsim layout  --net otn|otc [--n N] [--art] [--svg FILE]
 *   otsim tables  [--n N]
 *   otsim topo    --list
 *   otsim trace   [sort|matmul|boolmm|cc|mst|sssp] [--net NAME] [--n N]
 *                 [--trace-out FILE] [--trace-summary FILE]
 *   otsim batch   [--demo] [--spec FILE.json]
 *                 [--inst algo:net:n:model[:scaled][:seed=K]]...
 *                 [--json FILE] [--trace-out FILE]
 *   otsim simd
 *
 * A single run is a one-instance batch: the flags become a
 * workload::InstanceSpec, `--net` names any topology of the topo
 * registry (`otsim topo --list`), and workload::runInstance generates
 * the seeded inputs, runs them and verifies the result against the
 * sequential reference — the code `otsim batch` runs per instance, so
 * both report the same model time and area.  N must be a power of two
 * (machines round N up, which would silently change the problem).
 * `matmul --net mot3d`, Leighton's 3-D mesh of trees, is not a
 * registered topology and keeps its own runner.
 *
 * `batch` executes a workload of heterogeneous instances on a machine
 * farm (one simulated machine per distinct shape, cached and reused;
 * see src/workload/engine.hh), printing a per-instance table and the
 * aggregate model-time throughput.  The report is deterministic:
 * byte-identical at every OT_HOST_THREADS setting.
 *
 * Tracing: `--trace-out FILE` on a single run (any registered net)
 * records every primitive and clock tick in model time and writes a
 * Chrome trace-event JSON loadable in ui.perfetto.dev;
 * `--trace-summary FILE` writes the analyzer's per-phase/per-tree
 * breakdown as JSON.  The `trace` subcommand runs a workload (default
 * sort) and prints that breakdown as text.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "orthotree/orthotree.hh"
#include "trace/analysis.hh"
#include "trace/export.hh"
#include "trace/tracer.hh"
#include "vlsi/bitmath.hh"
#include "vlsi/delay.hh"

namespace {

using namespace ot;

struct Options
{
    std::string command;
    std::string net = "otn";
    std::string svg_path;
    std::string trace_out;
    std::string trace_summary;
    std::string spec_path;           // batch: JSON workload file
    std::string json_out;            // batch: report JSON output
    std::vector<std::string> insts;  // batch: CLI instance tokens
    bool demo = false;               // batch: the 12-instance demo mix
    std::string scn_path;            // scenario: .scn spec file
    std::string scheduler_override;  // scenario: --scheduler
    std::string compare;             // scenario: comma list of policies
    std::size_t n = 64;
    std::uint64_t seed = 1;
    vlsi::DelayModel model = vlsi::DelayModel::Logarithmic;
    bool scaled = false;
    bool art = false;
    bool list = false;       // the `topo` subcommand: --list
    bool trace_text = false; // the `trace` subcommand: print the summary

    bool
    tracing() const
    {
        return trace_text || !trace_out.empty() || !trace_summary.empty();
    }
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <sort|matmul|boolmm|cc|mst|sssp|layout|tables|trace"
        "|batch|scenario|topo|simd> [options]\n"
        "  --net <name>   any registered topology (otsim topo --list),\n"
        "                 plus mot3d for the 3-D mesh-of-trees matmul\n"
        "  --n <size>   --seed <seed>   (single runs: N a power of two)\n"
        "  --model <log|const|linear>   --scaled   --art   --svg <file>\n"
        "  --trace-out <file>      write a Perfetto (Chrome trace) JSON\n"
        "  --trace-summary <file>  write the trace analyzer JSON\n"
        "  trace [sort|matmul|boolmm|cc|mst|sssp]  run traced on any\n"
        "        registered net, print the breakdown\n"
        "  batch --demo | --spec <file.json> |\n"
        "        --inst algo:net:n:model[:scaled][:seed=K] (repeatable)\n"
        "        [--json <file>]  run a workload batch on the machine "
        "farm\n"
        "  topo --list      list the registered topologies\n"
        "  scenario --file <file.scn> [--scheduler fifo|sjf|fair|edf]\n"
        "        [--compare fifo,sjf,...] [--json <file>]  run a "
        "traffic\n"
        "        scenario (arrival process + scheduler + SLO report)\n"
        "  simd  print the dispatched SIMD backend (OT_SIMD overrides)\n",
        argv0);
    std::exit(2);
}

/** A decimal flag value: digits only, wholly consumed, or exit 2. */
std::uint64_t
parseCount(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "otsim: %s: '%s' is not a number\n", flag,
                     text);
        std::exit(2);
    }
    return v;
}

Options
parse(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);
    Options opt;
    opt.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--net") {
            opt.net = next();
        } else if (arg == "--n" || arg == "-n") {
            opt.n = parseCount("--n", next());
        } else if (arg == "--trace-out") {
            opt.trace_out = next();
        } else if (arg == "--trace-summary") {
            opt.trace_summary = next();
        } else if (arg == "--spec") {
            opt.spec_path = next();
        } else if (arg == "--json") {
            opt.json_out = next();
        } else if (arg == "--inst") {
            opt.insts.push_back(next());
        } else if (arg == "--demo") {
            opt.demo = true;
        } else if (arg == "--file") {
            opt.scn_path = next();
        } else if (arg == "--scheduler") {
            opt.scheduler_override = next();
        } else if (arg == "--compare") {
            opt.compare = next();
        } else if (opt.command == "trace" && !arg.empty() &&
                   arg[0] != '-') {
            // `otsim trace <workload>` — the workload rides in
            // `command` once parsing is done.
            opt.command = arg;
            opt.trace_text = true;
        } else if (arg == "--seed") {
            opt.seed = parseCount("--seed", next());
        } else if (arg == "--model") {
            if (!topo::modelFromShortName(next(), opt.model))
                usage(argv[0]);
        } else if (arg == "--scaled") {
            opt.scaled = true;
        } else if (arg == "--art") {
            opt.art = true;
        } else if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--svg") {
            opt.svg_path = next();
        } else {
            usage(argv[0]);
        }
    }
    if (opt.command == "trace") {
        opt.command = "sort";
        opt.trace_text = true;
    }
    if (opt.n < 2 || opt.n > (1u << 14)) {
        std::fprintf(stderr, "otsim: --n must be in [2, 16384]\n");
        std::exit(2);
    }
    return opt;
}

/**
 * Tracing glue for the runners: one Tracer attached to the machine or
 * engine under test, flushed to the requested outputs after the run.
 */
class TraceSession
{
  public:
    explicit TraceSession(const Options &opt) : _opt(opt)
    {
        _tracer.setEnabled(opt.tracing());
    }

    bool active() const { return _tracer.enabled(); }

    template <typename Net>
    void
    attach(Net &net)
    {
        if (active())
            net.setTracer(&_tracer);
    }

    /**
     * Write/print the requested outputs; `stats_json` rides along in
     * the Chrome export's otherData.  Returns 0 or an exit code.
     */
    int
    finish(const std::string &stats_json = "")
    {
        if (!active())
            return 0;
        auto summary = trace::analyze(_tracer);
        if (!_opt.trace_out.empty()) {
            std::ofstream f(_opt.trace_out);
            if (!f) {
                std::fprintf(stderr, "otsim: cannot write %s\n",
                             _opt.trace_out.c_str());
                return 1;
            }
            trace::writeChromeTrace(f, _tracer, stats_json);
            std::printf("wrote %s (%zu events, %llu dropped) — load in "
                        "ui.perfetto.dev\n",
                        _opt.trace_out.c_str(), _tracer.events().size(),
                        static_cast<unsigned long long>(_tracer.dropped()));
        }
        if (!_opt.trace_summary.empty()) {
            std::ofstream f(_opt.trace_summary);
            if (!f) {
                std::fprintf(stderr, "otsim: cannot write %s\n",
                             _opt.trace_summary.c_str());
                return 1;
            }
            f << summary.toJson();
            std::printf("wrote %s\n", _opt.trace_summary.c_str());
        }
        if (_opt.trace_text)
            summary.writeText(std::cout);
        return 0;
    }

  private:
    const Options &_opt;
    trace::Tracer _tracer;
};

void
printCost(const char *what, vlsi::ModelTime time, double area)
{
    double t = static_cast<double>(time);
    std::printf("%s: model time %s, area %s lambda^2, AT^2 %s\n", what,
                analysis::formatQuantity(t).c_str(),
                analysis::formatQuantity(area).c_str(),
                analysis::formatQuantity(area * t * t).c_str());
}

/** The verdict and cost lines of a single run; returns the exit code. */
int
printVerdict(const workload::InstanceSpec &inst, bool verified,
             vlsi::ModelTime time, double area)
{
    const std::string algo = workload::toString(inst.algo);
    if (!verified) {
        std::fprintf(stderr,
                     "otsim: %s on %s does not match the sequential "
                     "reference\n",
                     algo.c_str(), inst.net.c_str());
        return 1;
    }
    std::printf("%s of N = %zu on %s under %s%s — verified\n",
                algo.c_str(), inst.n, inst.net.c_str(),
                vlsi::toString(inst.model).c_str(),
                inst.scaled ? " (scaled trees)" : "");
    printCost(algo.c_str(), time, area);
    return 0;
}

/**
 * `matmul --net mot3d`: the 3-D mesh of trees is not a registered
 * topology, so it draws the same seeded matrices and word format as
 * the registered matmul machines here, untraced.
 */
int
runMot3d(const Options &opt, const workload::InstanceSpec &inst)
{
    if (!vlsi::isPow2(inst.n)) {
        std::fprintf(stderr, "otsim: size %zu is not a power of two\n",
                     inst.n);
        return 2;
    }
    if (opt.tracing()) {
        std::fprintf(stderr, "otsim: mot3d is not a registered topology "
                             "and cannot be traced\n");
        return 2;
    }
    sim::Rng rng(inst.seed);
    linalg::IntMatrix a(inst.n, inst.n), b(inst.n, inst.n);
    for (linalg::IntMatrix *m : {&a, &b})
        for (std::size_t i = 0; i < inst.n; ++i)
            for (std::size_t j = 0; j < inst.n; ++j)
                (*m)(i, j) = rng.uniform(0, 9);
    vlsi::CostModel cost(inst.model,
                         topo::wordFormatFor(inst.algo, inst.n),
                         inst.scaled);
    otn::MeshOfTrees3d mot(inst.n, cost);
    auto r = mot.matMul(a, b);
    return printVerdict(inst, r.product == linalg::matMul(a, b), r.time,
                        static_cast<double>(mot.chipArea()));
}

/** `otsim <algo>`: one instance on a registry-built machine. */
int
runSingle(const Options &opt, workload::Algo algo)
{
    workload::InstanceSpec inst;
    inst.algo = algo;
    inst.net = opt.net;
    inst.n = opt.n;
    inst.model = opt.model;
    inst.scaled = opt.scaled;
    inst.seed = opt.seed;
    if (algo == workload::Algo::MatMul && inst.net == "mot3d")
        return runMot3d(opt, inst);
    if (std::string bad = workload::describeInvalid({{inst}});
        !bad.empty()) {
        std::fprintf(stderr, "otsim: %s\n", bad.c_str());
        return 2;
    }

    auto machine = topo::registry().build(workload::cacheKeyFor(inst));
    TraceSession ts(opt);
    ts.attach(*machine);
    workload::InstanceReport r;
    workload::runInstance(inst, *machine, r);
    if (int rc = ts.finish())
        return rc;
    return printVerdict(inst, r.verified, r.time,
                        static_cast<double>(r.area));
}

int
runBatch(const Options &opt)
{
    workload::WorkloadSpec spec;
    if (opt.demo)
        spec = workload::demoWorkload();
    if (!opt.spec_path.empty()) {
        std::ifstream f(opt.spec_path);
        if (!f) {
            std::fprintf(stderr, "otsim: cannot read %s\n",
                         opt.spec_path.c_str());
            return 1;
        }
        std::ostringstream text;
        text << f.rdbuf();
        workload::WorkloadSpec parsed;
        std::string err;
        if (!workload::parseWorkloadJson(text.str(), parsed, err)) {
            std::fprintf(stderr, "otsim: %s: %s\n", opt.spec_path.c_str(),
                         err.c_str());
            return 2;
        }
        spec.instances.insert(spec.instances.end(),
                              parsed.instances.begin(),
                              parsed.instances.end());
    }
    for (const std::string &token : opt.insts) {
        workload::InstanceSpec inst;
        std::string err;
        if (!workload::parseInstance(token, inst, err)) {
            std::fprintf(stderr, "otsim: --inst: %s\n", err.c_str());
            return 2;
        }
        spec.instances.push_back(inst);
    }
    if (spec.instances.empty()) {
        std::fprintf(stderr, "otsim: batch needs --demo, --spec or "
                             "--inst\n");
        return 2;
    }
    if (std::string bad = workload::describeInvalid(spec); !bad.empty()) {
        std::fprintf(stderr, "otsim: %s\n", bad.c_str());
        return 2;
    }

    workload::BatchEngine engine;
    TraceSession ts(opt);
    ts.attach(engine);
    auto report = engine.run(spec);

    report.writeText(std::cout);
    if (!opt.json_out.empty()) {
        std::ofstream f(opt.json_out);
        if (!f) {
            std::fprintf(stderr, "otsim: cannot write %s\n",
                         opt.json_out.c_str());
            return 1;
        }
        f << report.toJson();
        std::printf("wrote %s\n", opt.json_out.c_str());
    }
    if (int rc = ts.finish(engine.stats().toJson()))
        return rc;
    if (!report.allVerified()) {
        std::fprintf(stderr, "otsim: BATCH VERIFICATION FAILED\n");
        return 1;
    }
    return 0;
}

int
runScenario(const Options &opt)
{
    if (opt.scn_path.empty() && !opt.demo) {
        std::fprintf(stderr,
                     "otsim: scenario needs --file <file.scn> or "
                     "--demo\n");
        return 2;
    }
    scenario::ScenarioSpec spec;
    if (opt.demo) {
        spec = scenario::demoScenario();
    } else {
        std::ifstream f(opt.scn_path);
        if (!f) {
            std::fprintf(stderr, "otsim: cannot read %s\n",
                         opt.scn_path.c_str());
            return 1;
        }
        std::ostringstream text;
        text << f.rdbuf();
        std::string err;
        if (!scenario::parseScenario(text.str(), spec, err)) {
            std::fprintf(stderr, "otsim: %s: %s\n",
                         opt.scn_path.c_str(), err.c_str());
            return 2;
        }
    }
    if (std::string bad = scenario::describeInvalid(spec);
        !bad.empty()) {
        std::fprintf(stderr, "otsim: %s\n", bad.c_str());
        return 2;
    }

    // The schedulers to run: the spec's own directive, a --scheduler
    // override, or a --compare list producing one report each.
    std::vector<scenario::SchedulerKind> policies;
    if (!opt.compare.empty()) {
        std::string cur;
        std::string list = opt.compare + ",";
        for (char c : list) {
            if (c != ',') {
                cur += c;
                continue;
            }
            scenario::SchedulerKind kind;
            if (!scenario::schedulerFromString(cur, kind)) {
                std::fprintf(stderr,
                             "otsim: --compare: unknown scheduler "
                             "'%s' (fifo|sjf|fair|edf)\n",
                             cur.c_str());
                return 2;
            }
            policies.push_back(kind);
            cur.clear();
        }
    } else if (!opt.scheduler_override.empty()) {
        scenario::SchedulerKind kind;
        if (!scenario::schedulerFromString(opt.scheduler_override,
                                           kind)) {
            std::fprintf(stderr,
                         "otsim: --scheduler: unknown scheduler "
                         "'%s' (fifo|sjf|fair|edf)\n",
                         opt.scheduler_override.c_str());
            return 2;
        }
        policies.push_back(kind);
    } else {
        policies.push_back(spec.scheduler);
    }

    scenario::ScenarioEngine engine;
    TraceSession ts(opt);
    ts.attach(engine);
    std::vector<scenario::ScenarioReport> reports;
    for (scenario::SchedulerKind kind : policies) {
        reports.push_back(engine.run(spec, kind));
        reports.back().writeText(std::cout);
    }
    if (!opt.json_out.empty()) {
        std::ofstream f(opt.json_out);
        if (!f) {
            std::fprintf(stderr, "otsim: cannot write %s\n",
                         opt.json_out.c_str());
            return 1;
        }
        if (reports.size() == 1)
            f << reports[0].toJson() << "\n";
        else
            f << scenario::compareJson(reports);
        std::printf("wrote %s\n", opt.json_out.c_str());
    }
    if (int rc = ts.finish(engine.stats().toJson()))
        return rc;
    for (const scenario::ScenarioReport &rep : reports) {
        if (!rep.verified) {
            std::fprintf(stderr,
                         "otsim: SCENARIO VERIFICATION FAILED\n");
            return 1;
        }
    }
    return 0;
}

int
runLayout(const Options &opt)
{
    auto cost = defaultCostModel(opt.n, opt.model);
    if (opt.net == "otn") {
        layout::OtnLayout l(opt.n, cost.word().bits());
        auto m = l.metrics();
        std::printf("(%zu x %zu)-OTN: pitch %lu, side %lu, area %lu, "
                    "%lu processors, longest wire %lu\n",
                    l.n(), l.n(),
                    static_cast<unsigned long>(l.pitch()),
                    static_cast<unsigned long>(m.width),
                    static_cast<unsigned long>(m.area()),
                    static_cast<unsigned long>(m.processors),
                    static_cast<unsigned long>(m.longestWire));
        if (opt.art)
            std::printf("%s", l.asciiArt().c_str());
        if (!opt.svg_path.empty()) {
            std::FILE *f = std::fopen(opt.svg_path.c_str(), "w");
            if (!f) {
                std::perror("otsim: --svg");
                return 1;
            }
            auto svg = layout::renderOtnSvg(l);
            std::fwrite(svg.data(), 1, svg.size(), f);
            std::fclose(f);
            std::printf("wrote %s\n", opt.svg_path.c_str());
        }
    } else if (opt.net == "otc") {
        unsigned cl = vlsi::logCeilAtLeast1(opt.n);
        layout::OtcLayout l(opt.n / cl, cl, cost.word().bits());
        auto m = l.metrics();
        std::printf("(%zu x %zu)-OTC, cycles of %u: area %lu, "
                    "%lu processors\n",
                    l.cyclesPerSide(), l.cyclesPerSide(), l.cycleLength(),
                    static_cast<unsigned long>(m.area()),
                    static_cast<unsigned long>(m.processors));
        if (opt.art)
            std::printf("%s", l.asciiArt().c_str());
        if (!opt.svg_path.empty()) {
            std::FILE *f = std::fopen(opt.svg_path.c_str(), "w");
            if (!f) {
                std::perror("otsim: --svg");
                return 1;
            }
            auto svg = layout::renderOtcSvg(l);
            std::fwrite(svg.data(), 1, svg.size(), f);
            std::fclose(f);
            std::printf("wrote %s\n", opt.svg_path.c_str());
        }
    } else {
        std::fprintf(stderr, "otsim: layout supports otn/otc\n");
        return 2;
    }
    return 0;
}

int
runTables(const Options &opt)
{
    double n = static_cast<double>(opt.n);
    for (auto problem :
         {analysis::Problem::Sorting, analysis::Problem::BoolMatMul,
          analysis::Problem::ConnectedComponents, analysis::Problem::Mst}) {
        std::printf("\n%s at N = %.0f (paper formulas, constants = 1):\n",
                    analysis::toString(problem).c_str(), n);
        analysis::TextTable t({"network", "area", "time", "AT^2"});
        for (auto net :
             {analysis::Network::Mesh, analysis::Network::Psn,
              analysis::Network::Ccc, analysis::Network::Otn,
              analysis::Network::Otc}) {
            auto a = analysis::paperFormula(net, problem, opt.model, n);
            t.addRow({analysis::toString(net),
                      analysis::formatQuantity(a.area),
                      analysis::formatQuantity(a.time),
                      analysis::formatQuantity(a.at2())});
        }
        std::printf("%s", t.str().c_str());
    }
    return 0;
}

/**
 * `otsim topo --list`: the registered topologies, one line each.  The
 * names are exactly what `--net` and the `algo:net:n` instance tokens
 * accept.
 */
int
runTopo(const Options &opt)
{
    if (!opt.list) {
        std::fprintf(stderr, "otsim: topo needs --list\n");
        return 2;
    }
    std::size_t width = 0;
    for (const auto &[name, info] : topo::registry().table())
        width = std::max(width, name.size());
    for (const auto &[name, info] : topo::registry().table())
        std::printf("%-*s  %s\n", static_cast<int>(width), name.c_str(),
                    info.summary.c_str());
    return 0;
}

/**
 * `otsim simd`: which kernel backend this process dispatches to
 * (resolving the OT_SIMD override, so a bad value aborts here rather
 * than mid-benchmark), plus the per-backend build/CPU status.
 */
int
runSimd(const Options &)
{
    std::printf("active: %s\n", simd::toString(simd::activeBackend()));
    for (simd::Backend b :
         {simd::Backend::Scalar, simd::Backend::Avx2, simd::Backend::Neon})
        std::printf("%-8s compiled=%s available=%s\n", simd::toString(b),
                    simd::backendCompiled(b) ? "yes" : "no",
                    simd::backendAvailable(b) ? "yes" : "no");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);
    if (workload::Algo algo; topo::algoFromString(opt.command, algo))
        return runSingle(opt, algo);
    if (opt.command == "batch")
        return runBatch(opt);
    if (opt.command == "scenario")
        return runScenario(opt);
    if (opt.command == "layout")
        return runLayout(opt);
    if (opt.command == "tables")
        return runTables(opt);
    if (opt.command == "topo")
        return runTopo(opt);
    if (opt.command == "simd")
        return runSimd(opt);
    usage(argv[0]);
}
