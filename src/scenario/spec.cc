#include "scenario/spec.hh"

#include <cassert>
#include <cctype>

#include "vlsi/bitmath.hh"

namespace ot::scenario {

namespace {

bool
arrivalFromString(const std::string &s, ArrivalKind &out)
{
    if (s == "poisson")
        out = ArrivalKind::Poisson;
    else if (s == "bursty")
        out = ArrivalKind::Bursty;
    else if (s == "diurnal")
        out = ArrivalKind::Diurnal;
    else
        return false;
    return true;
}

bool
shedFromString(const std::string &s, ShedPolicy &out)
{
    if (s == "drop")
        out = ShedPolicy::Drop;
    else if (s == "defer")
        out = ShedPolicy::Defer;
    else
        return false;
    return true;
}

/** Names appear bare in reports and JSON, so keep them word-like. */
bool
validName(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s) {
        bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                  c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

/** Split a directive line on blanks (never empty tokens). */
std::vector<std::string>
splitWords(const std::string &line)
{
    std::vector<std::string> words;
    std::string cur;
    for (char c : line) {
        if (std::isspace(static_cast<unsigned char>(c))) {
            if (!cur.empty())
                words.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        words.push_back(cur);
    return words;
}

/** Split "key=value"; false when there is no '='. */
bool
splitKeyValue(const std::string &word, std::string &key,
              std::string &value)
{
    std::size_t eq = word.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    key = word.substr(0, eq);
    value = word.substr(eq + 1);
    return true;
}

/** Split a mix value on commas (empty entries preserved -> errors). */
std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : s) {
        if (c == ',') {
            parts.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    parts.push_back(cur);
    return parts;
}

/**
 * Line-parser state: the spec under construction plus which
 * directives have been seen (duplicates are errors — a .scn file is
 * a description, not a program).
 */
struct ScnParser
{
    ScenarioSpec spec;
    std::string err;
    std::size_t lineNo = 0;
    bool sawScenario = false;
    bool sawArrival = false;
    bool sawScheduler = false;
    bool sawQueue = false;

    bool
    fail(const std::string &what)
    {
        err = "line " + std::to_string(lineNo) + ": " + what;
        return false;
    }

    bool
    number(const std::string &key, const std::string &value,
           std::uint64_t &out)
    {
        if (!workload::parseUint(value, out))
            return fail("bad integer in '" + key + "=" + value + "'");
        return true;
    }

    bool
    directiveScenario(const std::vector<std::string> &words)
    {
        if (sawScenario)
            return fail("duplicate scenario directive");
        sawScenario = true;
        if (words.size() != 2)
            return fail("scenario needs a name");
        if (!validName(words[1]))
            return fail("scenario name must be [A-Za-z0-9_-]+");
        spec.name = words[1];
        return true;
    }

    bool
    directiveArrival(const std::vector<std::string> &words)
    {
        if (sawArrival)
            return fail("duplicate arrival directive");
        sawArrival = true;
        if (words.size() < 2)
            return fail("arrival needs a process "
                        "(poisson|bursty|diurnal)");
        if (!arrivalFromString(words[1], spec.arrival.kind))
            return fail("unknown arrival process '" + words[1] +
                        "' (poisson|bursty|diurnal)");
        for (std::size_t i = 2; i < words.size(); ++i) {
            std::string key, value;
            if (!splitKeyValue(words[i], key, value))
                return fail("expected key=value, got '" + words[i] +
                            "'");
            if (key == "seeds") {
                if (value == "vary")
                    spec.arrival.varySeeds = true;
                else if (value == "fixed")
                    spec.arrival.varySeeds = false;
                else
                    return fail("seeds must be vary or fixed");
                continue;
            }
            std::uint64_t v = 0;
            if (!number(key, value, v))
                return false;
            if (key == "mean")
                spec.arrival.mean = v;
            else if (key == "duration")
                spec.arrival.duration = v;
            else if (key == "max")
                spec.arrival.maxArrivals =
                    static_cast<std::size_t>(v);
            else if (key == "seed")
                spec.arrival.seed = v;
            else if (key == "on")
                spec.arrival.onMean = v;
            else if (key == "off")
                spec.arrival.offMean = v;
            else if (key == "period")
                spec.arrival.period = v;
            else if (key == "amp") {
                if (v > 99)
                    return fail("amp must be an integer percent "
                                "in [0, 99]");
                spec.arrival.ampPct = static_cast<unsigned>(v);
            } else
                return fail("unknown arrival option '" + key +
                            "' (mean|duration|max|seed|on|off|"
                            "period|amp|seeds)");
        }
        return true;
    }

    bool
    directiveScheduler(const std::vector<std::string> &words)
    {
        if (sawScheduler)
            return fail("duplicate scheduler directive");
        sawScheduler = true;
        if (words.size() < 2)
            return fail("scheduler needs a policy "
                        "(fifo|sjf|fair|edf)");
        if (!schedulerFromString(words[1], spec.scheduler))
            return fail("unknown scheduler '" + words[1] +
                        "' (fifo|sjf|fair|edf)");
        for (std::size_t i = 2; i < words.size(); ++i) {
            std::string key, value;
            if (!splitKeyValue(words[i], key, value))
                return fail("expected key=value, got '" + words[i] +
                            "'");
            std::uint64_t v = 0;
            if (key == "workers") {
                if (!number(key, value, v))
                    return false;
                spec.workers = static_cast<unsigned>(v);
            } else
                return fail("unknown scheduler option '" + key +
                            "' (workers)");
        }
        return true;
    }

    bool
    directiveQueue(const std::vector<std::string> &words)
    {
        if (sawQueue)
            return fail("duplicate queue directive");
        sawQueue = true;
        for (std::size_t i = 1; i < words.size(); ++i) {
            std::string key, value;
            if (!splitKeyValue(words[i], key, value))
                return fail("expected key=value, got '" + words[i] +
                            "'");
            if (key == "cap") {
                std::uint64_t v = 0;
                if (!number(key, value, v))
                    return false;
                spec.queueCap = static_cast<std::size_t>(v);
            } else if (key == "shed") {
                if (!shedFromString(value, spec.shed))
                    return fail("shed must be drop or defer");
            } else
                return fail("unknown queue option '" + key +
                            "' (cap|shed)");
        }
        return true;
    }

    bool
    directiveClient(const std::vector<std::string> &words)
    {
        if (words.size() < 2)
            return fail("client needs a name");
        ClientConfig client;
        if (!validName(words[1]))
            return fail("client name must be [A-Za-z0-9_-]+");
        client.name = words[1];
        for (const ClientConfig &other : spec.clients)
            if (other.name == client.name)
                return fail("duplicate client '" + client.name + "'");
        for (std::size_t i = 2; i < words.size(); ++i) {
            std::string key, value;
            if (!splitKeyValue(words[i], key, value))
                return fail("expected key=value, got '" + words[i] +
                            "'");
            if (key == "mix") {
                for (const std::string &tok : splitCommas(value)) {
                    workload::InstanceSpec inst;
                    std::string instErr;
                    if (!workload::parseInstance(tok, inst, instErr))
                        return fail("bad mix instance '" + tok +
                                    "': " + instErr);
                    client.mix.push_back(inst);
                }
                continue;
            }
            std::uint64_t v = 0;
            if (!number(key, value, v))
                return false;
            if (key == "weight")
                client.weight = static_cast<unsigned>(v);
            else if (key == "quota")
                client.quota = static_cast<unsigned>(v);
            else if (key == "slo")
                client.slo = v;
            else if (key == "slo_pct")
                client.sloPct = static_cast<unsigned>(v);
            else
                return fail("unknown client option '" + key +
                            "' (weight|quota|slo|slo_pct|mix)");
        }
        spec.clients.push_back(client);
        return true;
    }

    bool
    line(const std::string &text)
    {
        std::string stripped = text.substr(0, text.find('#'));
        std::vector<std::string> words = splitWords(stripped);
        if (words.empty())
            return true;
        if (words[0] == "scenario")
            return directiveScenario(words);
        if (words[0] == "arrival")
            return directiveArrival(words);
        if (words[0] == "scheduler")
            return directiveScheduler(words);
        if (words[0] == "queue")
            return directiveQueue(words);
        if (words[0] == "client")
            return directiveClient(words);
        return fail("unknown directive '" + words[0] +
                    "' (scenario|arrival|scheduler|queue|client)");
    }
};

} // namespace

std::string
toString(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Fifo:
        return "fifo";
      case SchedulerKind::Sjf:
        return "sjf";
      case SchedulerKind::FairShare:
        return "fair";
      case SchedulerKind::Edf:
        return "edf";
    }
    return "?";
}

bool
schedulerFromString(const std::string &s, SchedulerKind &out)
{
    if (s == "fifo")
        out = SchedulerKind::Fifo;
    else if (s == "sjf")
        out = SchedulerKind::Sjf;
    else if (s == "fair")
        out = SchedulerKind::FairShare;
    else if (s == "edf")
        out = SchedulerKind::Edf;
    else
        return false;
    return true;
}

void
validate(const ScenarioSpec &spec)
{
    assert(describeInvalid(spec).empty() && "scenario: invalid spec");
    (void)spec;
}

std::string
describeInvalid(const ScenarioSpec &spec)
{
    if (spec.name.empty())
        return "scenario: missing name";
    const ArrivalConfig &a = spec.arrival;
    if (a.mean < 1)
        return "arrival: mean must be >= 1";
    if (a.duration < 1)
        return "arrival: duration must be >= 1";
    if (a.maxArrivals == 0 && a.duration / a.mean > 1000000)
        return "arrival: duration/mean implies more than 1M "
               "arrivals; set max=";
    if (a.kind == ArrivalKind::Bursty && (a.onMean < 1 || a.offMean < 1))
        return "bursty arrival: on and off dwell means must be >= 1";
    if (a.kind == ArrivalKind::Diurnal && a.period < 1)
        return "diurnal arrival: period must be >= 1";
    if (spec.workers < 1)
        return "scheduler: workers must be >= 1";
    if (spec.clients.empty())
        return "scenario: no clients";
    for (const ClientConfig &c : spec.clients) {
        if (c.weight < 1)
            return "client '" + c.name + "': weight must be >= 1";
        if (c.sloPct != 50 && c.sloPct != 95 && c.sloPct != 99)
            return "client '" + c.name +
                   "': slo_pct must be 50, 95 or 99";
        if (c.mix.empty())
            return "client '" + c.name + "': empty mix";
        for (std::size_t i = 0; i < c.mix.size(); ++i) {
            const workload::InstanceSpec &inst = c.mix[i];
            if (inst.n < 2 || inst.n > (std::size_t{1} << 14))
                return "client '" + c.name + "': mix instance " +
                       std::to_string(i) +
                       ": size out of range [2, 16384]";
            if (!vlsi::isPow2(inst.n))
                return "client '" + c.name + "': mix instance " +
                       std::to_string(i) + ": size " +
                       std::to_string(inst.n) +
                       " is not a power of two";
        }
    }
    return "";
}

bool
parseScenario(const std::string &text, ScenarioSpec &out,
              std::string &err)
{
    ScnParser parser;
    std::string line;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        line = text.substr(start, end - start);
        ++parser.lineNo;
        if (!parser.line(line)) {
            err = parser.err;
            return false;
        }
        start = end + 1;
    }
    out = std::move(parser.spec);
    return true;
}

ScenarioSpec
demoScenario()
{
    // Two traffic classes over mixed sort/matmul shapes: enough load
    // on two workers that the queue forms (so the policies differ)
    // but bounded, so tests and the smoke run stay fast.
    ScenarioSpec spec;
    spec.name = "smoke";
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.mean = 130;
    spec.arrival.duration = 60000;
    spec.arrival.maxArrivals = 64;
    spec.arrival.seed = 42;
    spec.scheduler = SchedulerKind::Fifo;
    spec.workers = 2;
    spec.queueCap = 16;
    spec.shed = ShedPolicy::Drop;

    ClientConfig fast;
    fast.name = "interactive";
    fast.weight = 3;
    fast.slo = 2500;
    fast.sloPct = 95;
    fast.mix.push_back({workload::Algo::Sort, "otn", 16,
                        vlsi::DelayModel::Logarithmic, false, 1});
    fast.mix.push_back({workload::Algo::Sort, "otn", 32,
                        vlsi::DelayModel::Logarithmic, false, 1});
    spec.clients.push_back(fast);

    ClientConfig bulk;
    bulk.name = "batch";
    bulk.weight = 1;
    bulk.quota = 8;
    bulk.mix.push_back({workload::Algo::Sort, "otn", 64,
                        vlsi::DelayModel::Logarithmic, false, 1});
    bulk.mix.push_back({workload::Algo::MatMul, "otn", 16,
                        vlsi::DelayModel::Logarithmic, false, 1});
    spec.clients.push_back(bulk);
    return spec;
}

} // namespace ot::scenario
