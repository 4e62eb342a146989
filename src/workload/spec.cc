#include "workload/spec.hh"

#include <cassert>
#include <cctype>

#include "topo/machine.hh"
#include "topo/registry.hh"
#include "vlsi/bitmath.hh"

namespace ot::workload {

namespace {

/**
 * Cursor over a JSON text for the one document shape parseWorkloadJson
 * accepts.  All failures funnel through fail(), which records the byte
 * offset of the first error.
 */
struct JsonCursor
{
    const std::string &text;
    std::size_t pos = 0;
    std::string err;

    bool
    fail(const std::string &what)
    {
        if (err.empty())
            err = what + " at byte " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    /** Peek the next non-whitespace character ('\0' at end). */
    char
    peek()
    {
        skipWs();
        return pos < text.size() ? text[pos] : '\0';
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\') {
                ++pos;
                if (pos >= text.size())
                    break;
            }
            out += text[pos++];
        }
        if (pos >= text.size())
            return fail("unterminated string");
        ++pos; // closing quote
        return true;
    }

    bool
    parseNumber(std::uint64_t &out)
    {
        skipWs();
        std::string digits;
        while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9')
            digits += text[pos++];
        if (!parseUint(digits, out))
            return fail("expected a non-negative integer");
        return true;
    }

    bool
    parseBool(bool &out)
    {
        skipWs();
        if (text.compare(pos, 4, "true") == 0) {
            out = true;
            pos += 4;
            return true;
        }
        if (text.compare(pos, 5, "false") == 0) {
            out = false;
            pos += 5;
            return true;
        }
        return fail("expected true or false");
    }
};

/** One instance object: '{' ("key": value)* '}'. */
bool
parseInstanceObject(JsonCursor &cur, InstanceSpec &out)
{
    if (!cur.consume('{'))
        return false;
    bool first = true;
    while (cur.peek() != '}') {
        if (!first && !cur.consume(','))
            return false;
        first = false;
        std::string key;
        if (!cur.parseString(key) || !cur.consume(':'))
            return false;
        if (key == "algo") {
            std::string v;
            if (!cur.parseString(v))
                return false;
            if (!topo::algoFromString(v, out.algo))
                return cur.fail("unknown algo '" + v + "'");
        } else if (key == "net") {
            std::string v;
            if (!cur.parseString(v))
                return false;
            if (!topo::isNetName(v))
                return cur.fail("unknown net '" + v + "'");
            out.net = v;
        } else if (key == "model") {
            std::string v;
            if (!cur.parseString(v))
                return false;
            if (!topo::modelFromShortName(v, out.model))
                return cur.fail("unknown model '" + v + "'");
        } else if (key == "n") {
            std::uint64_t v = 0;
            if (!cur.parseNumber(v))
                return false;
            out.n = static_cast<std::size_t>(v);
        } else if (key == "seed") {
            if (!cur.parseNumber(out.seed))
                return false;
        } else if (key == "scaled") {
            if (!cur.parseBool(out.scaled))
                return false;
        } else {
            return cur.fail("unknown instance key '" + key + "'");
        }
    }
    return cur.consume('}');
}

} // namespace

bool
parseUint(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    std::uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return false;
        std::uint64_t d = static_cast<std::uint64_t>(c - '0');
        if (v > (~std::uint64_t{0} - d) / 10)
            return false;
        v = v * 10 + d;
    }
    out = v;
    return true;
}

void
validate(const WorkloadSpec &spec)
{
    assert(!spec.instances.empty() && "workload: empty batch");
    for (const InstanceSpec &inst : spec.instances) {
        assert(inst.n >= 2 && inst.n <= (std::size_t{1} << 14) &&
               "workload: instance size out of range [2, 16384]");
        assert(vlsi::isPow2(inst.n) &&
               "workload: instance size must be a power of two");
        assert(topo::isNetName(inst.net) &&
               "workload: unknown net name");
        (void)inst;
    }
}

std::string
describeInvalid(const WorkloadSpec &spec)
{
    if (spec.instances.empty())
        return "workload: empty batch";
    for (std::size_t i = 0; i < spec.instances.size(); ++i) {
        const InstanceSpec &inst = spec.instances[i];
        if (inst.n < 2 || inst.n > (std::size_t{1} << 14))
            return "instance " + std::to_string(i) +
                   ": size out of range [2, 16384]";
        if (!vlsi::isPow2(inst.n))
            return "instance " + std::to_string(i) + ": size " +
                   std::to_string(inst.n) + " is not a power of two";
        if (!topo::isNetName(inst.net))
            return "instance " + std::to_string(i) + ": unknown net '" +
                   inst.net + "'";
    }
    return "";
}

bool
parseInstance(const std::string &token, InstanceSpec &out, std::string &err)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : token) {
        if (c == ':') {
            parts.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    parts.push_back(cur);

    if (parts.size() < 4) {
        err = "expected algo:net:n:model[:scaled][:seed=K], got '" + token +
              "'";
        return false;
    }
    InstanceSpec inst;
    if (!topo::algoFromString(parts[0], inst.algo)) {
        err = "unknown algo '" + parts[0] +
              "' (sort|matmul|boolmm|cc|mst|sssp)";
        return false;
    }
    if (!topo::isNetName(parts[1])) {
        err = "unknown net '" + parts[1] + "' (" +
              topo::netNamesSummary() + ")";
        return false;
    }
    inst.net = parts[1];
    std::uint64_t n = 0;
    if (!parseUint(parts[2], n)) {
        err = "bad instance size '" + parts[2] + "'";
        return false;
    }
    inst.n = static_cast<std::size_t>(n);
    if (!topo::modelFromShortName(parts[3], inst.model)) {
        err = "unknown model '" + parts[3] + "' (log|const|linear)";
        return false;
    }
    for (std::size_t i = 4; i < parts.size(); ++i) {
        if (parts[i] == "scaled") {
            inst.scaled = true;
        } else if (parts[i].rfind("seed=", 0) == 0) {
            if (!parseUint(parts[i].substr(5), inst.seed)) {
                err = "bad seed in '" + parts[i] + "'";
                return false;
            }
        } else {
            err = "unknown instance option '" + parts[i] + "'";
            return false;
        }
    }
    out = inst;
    return true;
}

std::string
toToken(const InstanceSpec &inst)
{
    std::string out = toString(inst.algo);
    out += ":" + inst.net + ":" + std::to_string(inst.n) + ":" +
           shortName(inst.model);
    if (inst.scaled)
        out += ":scaled";
    if (inst.seed != 1)
        out += ":seed=" + std::to_string(inst.seed);
    return out;
}

bool
parseWorkloadJson(const std::string &text, WorkloadSpec &out,
                  std::string &err)
{
    JsonCursor cur{text, 0, ""};
    WorkloadSpec spec;

    bool ok = [&] {
        if (!cur.consume('{'))
            return false;
        std::string key;
        if (!cur.parseString(key))
            return false;
        if (key != "instances")
            return cur.fail("expected key \"instances\"");
        if (!cur.consume(':') || !cur.consume('['))
            return false;
        while (cur.peek() != ']') {
            if (!spec.instances.empty() && !cur.consume(','))
                return false;
            InstanceSpec inst;
            if (!parseInstanceObject(cur, inst))
                return false;
            spec.instances.push_back(inst);
        }
        if (!cur.consume(']') || !cur.consume('}'))
            return false;
        cur.skipWs();
        if (cur.pos != text.size())
            return cur.fail("trailing garbage");
        return true;
    }();

    if (!ok) {
        err = cur.err.empty() ? "malformed workload JSON" : cur.err;
        return false;
    }
    out = std::move(spec);
    return true;
}

std::string
toJson(const WorkloadSpec &spec)
{
    std::string out = "{\"instances\": [";
    for (std::size_t i = 0; i < spec.instances.size(); ++i) {
        const InstanceSpec &inst = spec.instances[i];
        if (i)
            out += ",";
        out += std::string("\n  {\"algo\": \"") + toString(inst.algo) + "\"";
        out += ", \"net\": \"" + inst.net + "\"";
        out += ", \"n\": " + std::to_string(inst.n);
        out += ", \"model\": \"" + shortName(inst.model) + "\"";
        out += std::string(", \"scaled\": ") +
               (inst.scaled ? "true" : "false");
        out += ", \"seed\": " + std::to_string(inst.seed) + "}";
    }
    out += "\n]}\n";
    return out;
}

WorkloadSpec
demoWorkload()
{
    // The acceptance mix: both machine families, sizes {16, 32}, delay
    // models {log, const}, all five algorithms, and three repeated
    // shapes (same algo/net/n/model, different seed) so the cache hits.
    using M = vlsi::DelayModel;
    WorkloadSpec spec;
    auto add = [&](Algo a, const char *net, std::size_t n, M m,
                   std::uint64_t seed) {
        spec.instances.push_back({a, net, n, m, false, seed});
    };
    add(Algo::Sort, "otn", 32, M::Logarithmic, 1);
    add(Algo::Sort, "otn", 32, M::Logarithmic, 2);
    add(Algo::Sort, "otc", 32, M::Logarithmic, 3);
    add(Algo::Sort, "otc", 32, M::Logarithmic, 4);
    add(Algo::MatMul, "otn", 16, M::Logarithmic, 5);
    add(Algo::MatMul, "otc", 16, M::Logarithmic, 6);
    add(Algo::BoolMatMul, "otn", 16, M::Constant, 7);
    add(Algo::BoolMatMul, "otc", 16, M::Constant, 8);
    add(Algo::ConnectedComponents, "otn", 16, M::Logarithmic, 9);
    add(Algo::ConnectedComponents, "otn", 16, M::Logarithmic, 10);
    add(Algo::Mst, "otn", 16, M::Constant, 11);
    add(Algo::Mst, "otc", 16, M::Constant, 12);
    return spec;
}

} // namespace ot::workload
