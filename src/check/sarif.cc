#include "check/sarif.hh"

#include <cstdio>
#include <sstream>

namespace ot::check {

namespace {

/** ruleIndex order is the catalog order (new rules go at the end —
 *  reordering would silently re-map indices in consumers that cache
 *  them). */
int
ruleIndex(const std::string &id)
{
    int i = 0;
    for (const RuleDoc &r : ruleCatalog()) {
        if (id == r.id)
            return i;
        ++i;
    }
    return -1;
}

void
escape(std::ostringstream &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
        case '"':
            out << "\\\"";
            break;
        case '\\':
            out << "\\\\";
            break;
        case '\n':
            out << "\\n";
            break;
        case '\t':
            out << "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out << buf;
            } else {
                out << c;
            }
        }
    }
}

} // namespace

std::string
renderSarif(const Report &report)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"$schema\": "
           "\"https://raw.githubusercontent.com/oasis-tcs/"
           "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [\n"
        << "    {\n"
        << "      \"tool\": {\n"
        << "        \"driver\": {\n"
        << "          \"name\": \"otcheck\",\n"
        << "          \"informationUri\": "
           "\"https://example.invalid/orthotree/otcheck\",\n"
        << "          \"rules\": [\n";
    {
        bool first = true;
        for (const RuleDoc &r : ruleCatalog()) {
            out << (first ? "" : ",\n");
            first = false;
            out << "            {\"id\": \"" << r.id
                << "\", \"shortDescription\": {\"text\": \"";
            escape(out, r.summary);
            out << "\"}}";
        }
    }
    out << "\n          ]\n"
        << "        }\n"
        << "      },\n"
        << "      \"results\": [\n";
    for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
        const Diagnostic &d = report.diagnostics[i];
        std::string text = d.message;
        if (!d.hint.empty())
            text += " (hint: " + d.hint + ")";
        out << (i ? ",\n" : "");
        out << "        {\n"
            << "          \"ruleId\": \"";
        escape(out, d.rule);
        out << "\",\n";
        int idx = ruleIndex(d.rule);
        if (idx >= 0)
            out << "          \"ruleIndex\": " << idx << ",\n";
        out << "          \"level\": \"error\",\n"
            << "          \"message\": {\"text\": \"";
        escape(out, text);
        out << "\"},\n"
            << "          \"locations\": [\n"
            << "            {\n"
            << "              \"physicalLocation\": {\n"
            << "                \"artifactLocation\": {\"uri\": \"";
        escape(out, d.file);
        out << "\"},\n"
            << "                \"region\": {\"startLine\": "
            << (d.line > 0 ? d.line : 1) << "}\n"
            << "              }\n"
            << "            }\n"
            << "          ]\n"
            << "        }";
    }
    out << (report.diagnostics.empty() ? "" : "\n")
        << "      ]\n"
        << "    }\n"
        << "  ]\n"
        << "}\n";
    return out.str();
}

} // namespace ot::check
