/**
 * @file
 * Tests for the model-time tracing subsystem (src/trace): the
 * accounting contract (Charge durations sum exactly to
 * TimeAccountant::now() and match phaseTimes()), the bounded-buffer
 * drop semantics, and the Chrome trace-event export.  Trace streams
 * at different OT_HOST_THREADS are compared in test_workload.cc.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "otc/network.hh"
#include "otc/sort.hh"
#include "otn/network.hh"
#include "otn/sort.hh"
#include "sim/rng.hh"
#include "trace/analysis.hh"
#include "trace/export.hh"
#include "trace/tracer.hh"

namespace {

using namespace ot::otn;
using ot::sim::Rng;
using ot::trace::Event;
using ot::trace::EventKind;
using ot::trace::Tracer;
using ot::vlsi::CostModel;
using ot::vlsi::DelayModel;
using ot::vlsi::WordFormat;

CostModel
logCost(std::size_t n)
{
    return {DelayModel::Logarithmic, WordFormat::forProblemSize(n)};
}

// ----------------------------------------------------------------------
// Accounting: charges are the stream of record
// ----------------------------------------------------------------------

Tracer
traceSort(std::size_t capacity = Tracer::kDefaultCapacity)
{
    const std::size_t n = 8;
    Rng rng(2026);
    std::vector<std::uint64_t> values(n);
    for (auto &v : values)
        v = rng.uniform(0, n - 1);

    Tracer tracer(capacity);
    tracer.setEnabled(true);
    OrthogonalTreesNetwork net(n, logCost(n));
    net.setTracer(&tracer);
    sortOtn(net, values);
    net.setTracer(nullptr);
    return tracer;
}

TEST(TraceAccounting, ChargesSumToNowAndMatchPhaseTimes)
{
    const std::size_t n = 8;
    Rng rng(11);
    std::vector<std::uint64_t> values(n);
    for (auto &v : values)
        v = rng.uniform(0, n - 1);

    Tracer tracer;
    tracer.setEnabled(true);
    OrthogonalTreesNetwork net(n, logCost(n));
    net.setTracer(&tracer);
    sortOtn(net, values);

    auto summary = ot::trace::analyze(tracer);
    EXPECT_EQ(summary.total, net.now());
    EXPECT_EQ(summary.steps, net.acct().steps());
    EXPECT_EQ(summary.droppedEvents, 0u);

    // The analyzer's per-phase totals must agree with the
    // accountant's own attribution, phase by phase.
    ot::vlsi::ModelTime named = 0;
    for (const auto &[phase, t] : net.acct().phaseTimes()) {
        auto it = summary.perPhase.find(phase);
        ASSERT_NE(it, summary.perPhase.end()) << "missing phase " << phase;
        EXPECT_EQ(it->second, t) << "phase " << phase;
        named += t;
    }
    ot::vlsi::ModelTime unphased = 0;
    if (auto it = summary.perPhase.find(""); it != summary.perPhase.end())
        unphased = it->second;
    EXPECT_EQ(named + unphased, summary.total);

    // The critical phase chain tiles the whole timeline.
    ASSERT_FALSE(summary.criticalPath.empty());
    EXPECT_EQ(summary.criticalPath.front().begin, 0u);
    EXPECT_EQ(summary.criticalPath.back().end, net.now());
    for (std::size_t i = 1; i < summary.criticalPath.size(); ++i)
        EXPECT_EQ(summary.criticalPath[i].begin,
                  summary.criticalPath[i - 1].end);
    net.setTracer(nullptr);
}

TEST(TraceAccounting, UnchargedSpansAreMarkedAndExcluded)
{
    const std::size_t n = 8;
    Tracer tracer;
    tracer.setEnabled(true);
    OrthogonalTreesNetwork net(n, logCost(n));
    net.setTracer(&tracer);

    // A pipedo block: the spans happen, the clock does not move.
    net.runUncharged([&] {
        net.parallelFor(n, [&](std::size_t i) {
            net.rootToLeaf(Axis::Row, i, Sel::all(), Reg::A);
        });
    });
    EXPECT_EQ(net.now(), 0u);
    // ...then one charged broadcast for contrast.
    net.rootToLeaf(Axis::Row, 0, Sel::all(), Reg::B);

    std::size_t uncharged_spans = 0;
    for (const Event &e : tracer.events())
        if (e.kind == EventKind::Span && !e.charged)
            ++uncharged_spans;
    EXPECT_EQ(uncharged_spans, n);

    auto summary = ot::trace::analyze(tracer);
    EXPECT_EQ(summary.total, net.now());
    const auto &b = summary.perPrimitive.at("rootToLeaf");
    EXPECT_EQ(b.unchargedCount, n);
    EXPECT_EQ(b.count, 1u);
    EXPECT_EQ(b.time, net.now());
    net.setTracer(nullptr);
}

TEST(TraceAccounting, OtcRunSumsToNow)
{
    Rng rng(99);
    std::vector<std::uint64_t> values(24);
    for (auto &v : values)
        v = rng.uniform(0, 60);
    CostModel cost(DelayModel::Logarithmic, WordFormat::forProblemSize(64));

    Tracer tracer;
    tracer.setEnabled(true);
    ot::otc::OtcNetwork net(8, 4, cost);
    net.setTracer(&tracer);
    ot::otc::sortOtc(net, values);
    auto summary = ot::trace::analyze(tracer);
    EXPECT_GT(tracer.events().size(), 0u);
    EXPECT_EQ(summary.total, net.now());
    EXPECT_EQ(summary.steps, net.acct().steps());
    net.setTracer(nullptr);
}

// ----------------------------------------------------------------------
// Bounded buffer: drop-newest, never corrupt the prefix
// ----------------------------------------------------------------------

TEST(TraceOverflow, DropsCountAndPreserveThePrefix)
{
    Tracer full = traceSort();
    ASSERT_GT(full.events().size(), 20u) << "workload too small to cap";

    const std::size_t cap = 20;
    Tracer capped = traceSort(cap);
    EXPECT_EQ(capped.events().size(), cap);
    EXPECT_EQ(capped.dropped(), full.events().size() - cap);
    // The retained events are exactly the first `cap` of the full run.
    for (std::size_t i = 0; i < cap; ++i)
        ASSERT_TRUE(
            ot::trace::eventsEqual(capped.events()[i], full.events()[i]))
            << "event " << i << " corrupted by overflow";
}

TEST(TraceOverflow, ClearResetsEventsAndDropCount)
{
    Tracer tracer = traceSort(20);
    EXPECT_GT(tracer.dropped(), 0u);
    tracer.clear();
    EXPECT_EQ(tracer.events().size(), 0u);
    EXPECT_EQ(tracer.dropped(), 0u);
    EXPECT_EQ(tracer.capacity(), 20u);
}

// ----------------------------------------------------------------------
// Export: the JSON must actually parse
// ----------------------------------------------------------------------

/**
 * Minimal recursive-descent JSON syntax checker (no external JSON
 * library in the image, and the trace file must load in a real
 * viewer, so "looks like JSON" is not enough).
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : _s(s) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return _pos == _s.size();
    }

  private:
    bool
    value()
    {
        if (_pos >= _s.size())
            return false;
        switch (_s[_pos]) {
        case '{':
            return object();
        case '[':
            return array();
        case '"':
            return string();
        case 't':
            return literal("true");
        case 'f':
            return literal("false");
        case 'n':
            return literal("null");
        default:
            return number();
        }
    }

    bool
    object()
    {
        ++_pos; // '{'
        skipWs();
        if (peek() == '}')
            return ++_pos, true;
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++_pos;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            if (peek() == '}')
                return ++_pos, true;
            return false;
        }
    }

    bool
    array()
    {
        ++_pos; // '['
        skipWs();
        if (peek() == ']')
            return ++_pos, true;
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            if (peek() == ']')
                return ++_pos, true;
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++_pos;
        while (_pos < _s.size() && _s[_pos] != '"') {
            if (_s[_pos] == '\\') {
                ++_pos;
                if (_pos >= _s.size())
                    return false;
                if (_s[_pos] == 'u') {
                    for (int i = 0; i < 4; ++i)
                        if (++_pos >= _s.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(_s[_pos])))
                            return false;
                }
            }
            ++_pos;
        }
        if (_pos >= _s.size())
            return false;
        ++_pos; // closing '"'
        return true;
    }

    bool
    number()
    {
        std::size_t start = _pos;
        if (peek() == '-')
            ++_pos;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++_pos;
        if (peek() == '.') {
            ++_pos;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++_pos;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++_pos;
            if (peek() == '+' || peek() == '-')
                ++_pos;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++_pos;
        }
        return _pos > start;
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p, ++_pos)
            if (peek() != *p)
                return false;
        return true;
    }

    char peek() const { return _pos < _s.size() ? _s[_pos] : '\0'; }

    void
    skipWs()
    {
        while (_pos < _s.size() &&
               (_s[_pos] == ' ' || _s[_pos] == '\t' || _s[_pos] == '\n' ||
                _s[_pos] == '\r'))
            ++_pos;
    }

    const std::string &_s;
    std::size_t _pos = 0;
};

TEST(TraceExport, ChromeTraceJsonParses)
{
    Tracer tracer = traceSort();
    std::string json = ot::trace::toChromeTraceJson(tracer);
    EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"modelTimeEnd\""), std::string::npos);
}

TEST(TraceExport, StatsJsonEmbedsAndParses)
{
    const std::size_t n = 8;
    Rng rng(5);
    std::vector<std::uint64_t> values(n);
    for (auto &v : values)
        v = rng.uniform(0, n - 1);

    Tracer tracer;
    tracer.setEnabled(true);
    OrthogonalTreesNetwork net(n, logCost(n));
    net.setTracer(&tracer);
    sortOtn(net, values);
    net.setTracer(nullptr);

    std::string stats = net.stats().toJson();
    EXPECT_TRUE(JsonChecker(stats).valid()) << stats;
    std::string json = ot::trace::toChromeTraceJson(tracer, stats);
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_NE(json.find("\"stats\""), std::string::npos);
}

TEST(TraceExport, SummaryJsonParses)
{
    Tracer tracer = traceSort();
    std::string json = ot::trace::analyze(tracer).toJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
    EXPECT_NE(json.find("\"perPhase\""), std::string::npos);
    EXPECT_NE(json.find("\"criticalPath\""), std::string::npos);
}

TEST(TraceExport, JsonEscapeHandlesControlCharacters)
{
    EXPECT_EQ(ot::trace::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(ot::trace::jsonEscape("x\ny"), "x\\ny");
    std::string escaped = ot::trace::jsonEscape(std::string(1, '\x01'));
    EXPECT_EQ(escaped, "\\u0001");
}

// ----------------------------------------------------------------------
// Overhead: disabled tracing must not perturb anything
// ----------------------------------------------------------------------

TEST(TraceOverhead, DisabledTracerRecordsNothingAndTimeIsUnchanged)
{
    const std::size_t n = 8;
    Rng rng(3);
    std::vector<std::uint64_t> values(n);
    for (auto &v : values)
        v = rng.uniform(0, n - 1);

    OrthogonalTreesNetwork plain(n, logCost(n));
    sortOtn(plain, values);

    Tracer off; // never enabled
    OrthogonalTreesNetwork attached(n, logCost(n));
    attached.setTracer(&off);
    sortOtn(attached, values);
    EXPECT_EQ(off.events().size(), 0u);
    EXPECT_EQ(off.dropped(), 0u);
    EXPECT_EQ(attached.now(), plain.now());

    Tracer on;
    on.setEnabled(true);
    OrthogonalTreesNetwork traced(n, logCost(n));
    traced.setTracer(&on);
    sortOtn(traced, values);
    EXPECT_GT(on.events().size(), 0u);
    EXPECT_EQ(traced.now(), plain.now())
        << "tracing changed the model time";
}

} // namespace
