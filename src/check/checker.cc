#include "check/checker.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

namespace ot::check {

namespace fs = std::filesystem;

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
hasSourceExtension(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh";
}

/** Make `p` relative to `root` with '/' separators; returns "" when
 *  `p` is not under `root`. */
std::string
relativeTo(const fs::path &root, const fs::path &p)
{
    std::error_code ec;
    fs::path rel = fs::relative(p, root, ec);
    if (ec || rel.empty())
        return "";
    std::string s = rel.generic_string();
    if (s.compare(0, 2, "..") == 0)
        return "";
    return s;
}

void
jsonEscape(std::ostringstream &out, const std::string &s)
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

bool
diagLess(const Diagnostic &l, const Diagnostic &r)
{
    if (l.file != r.file)
        return l.file < r.file;
    if (l.line != r.line)
        return l.line < r.line;
    if (l.rule != r.rule)
        return l.rule < r.rule;
    return l.message < r.message;
}

bool
diagEqual(const Diagnostic &l, const Diagnostic &r)
{
    return l.file == r.file && l.line == r.line && l.rule == r.rule &&
           l.message == r.message;
}

} // namespace

Report
checkProject(const std::vector<SourceFile> &files, RunStats *stats)
{
    using Clock = std::chrono::steady_clock;
    auto msSince = [](Clock::time_point t0) {
        return std::chrono::duration<double, std::milli>(
                   Clock::now() - t0)
            .count();
    };
    Clock::time_point start = Clock::now();

    std::vector<FileContext> ctxs;
    ctxs.reserve(files.size());
    for (const SourceFile &f : files) {
        FileContext ctx;
        ctx.lexed = lex(f.source);
        ctx.path = ctx.lexed.fixturePath.empty()
                       ? f.path
                       : ctx.lexed.fixturePath;
        ctx.layer = classifyLayer(ctx.path);
        ctx.parsed = parseFile(ctx.lexed);
        ctxs.push_back(std::move(ctx));
    }
    if (stats) {
        stats->files = ctxs.size();
        stats->lexParseMs = msSince(start);
    }

    std::map<std::string, std::vector<Diagnostic>> byFile;
    Clock::time_point t1 = Clock::now();
    for (const FileContext &ctx : ctxs)
        for (Diagnostic &d : runFileRules(ctx))
            byFile[d.file].push_back(std::move(d));
    if (stats)
        stats->fileRulesMs = msSince(t1);

    Clock::time_point t2 = Clock::now();
    ProjectRuleStats prs;
    for (Diagnostic &d : runProjectRules(ctxs, stats ? &prs : nullptr))
        byFile[d.file].push_back(std::move(d));
    if (stats) {
        stats->projectRulesMs = msSince(t2);
        stats->functionsAnalyzed = prs.functionsAnalyzed;
        stats->summaryEvaluations = prs.summaryEvaluations;
        stats->taintRounds = prs.taintRounds;
    }

    Report report;
    for (const FileContext &ctx : ctxs) {
        report.files.push_back(ctx.path);
        std::vector<Diagnostic> mine;
        auto it = byFile.find(ctx.path);
        if (it != byFile.end())
            mine = std::move(it->second);
        for (Diagnostic &d : applyAllows(ctx, std::move(mine)))
            report.diagnostics.push_back(std::move(d));
    }
    std::sort(report.files.begin(), report.files.end());
    std::sort(report.diagnostics.begin(), report.diagnostics.end(),
              diagLess);
    report.diagnostics.erase(
        std::unique(report.diagnostics.begin(),
                    report.diagnostics.end(), diagEqual),
        report.diagnostics.end());
    if (stats)
        stats->totalMs = msSince(start);
    return report;
}

std::vector<Diagnostic>
checkSource(const std::string &path, const std::string &source)
{
    return checkProject({{path, source}}).diagnostics;
}

std::vector<Diagnostic>
checkFile(const std::string &filePath, const std::string &displayPath)
{
    return checkSource(displayPath, readFile(filePath));
}

std::vector<std::string>
collectFiles(const std::string &root)
{
    std::vector<std::string> files;
    const fs::path rootPath(root);

    for (const char *sub : {"src", "tools", "bench"}) {
        fs::path dir = rootPath / sub;
        std::error_code ec;
        if (!fs::is_directory(dir, ec))
            continue;
        for (auto it = fs::recursive_directory_iterator(dir, ec);
             !ec && it != fs::recursive_directory_iterator(); ++it)
            if (it->is_regular_file() &&
                hasSourceExtension(it->path()))
                files.push_back(relativeTo(rootPath, it->path()));
    }

    std::sort(files.begin(), files.end());
    files.erase(std::remove(files.begin(), files.end(), std::string()),
                files.end());
    return files;
}

Report
checkTree(const std::string &root,
          const std::vector<std::string> &files, RunStats *stats)
{
    std::vector<SourceFile> sources;
    sources.reserve(files.size());
    for (const std::string &rel : files)
        sources.push_back(
            {rel, readFile((fs::path(root) / rel).string())});
    return checkProject(sources, stats);
}

std::string
renderText(const Report &report)
{
    std::ostringstream out;
    for (const Diagnostic &d : report.diagnostics) {
        out << d.file << ":" << d.line << ": error: [" << d.rule
            << "] " << d.message;
        if (!d.hint.empty())
            out << " (hint: " << d.hint << ")";
        out << "\n";
    }
    out << "otcheck: " << report.files.size() << " files, "
        << report.diagnostics.size() << " diagnostic"
        << (report.diagnostics.size() == 1 ? "" : "s") << "\n";
    return out.str();
}

std::string
renderJson(const Report &report)
{
    std::ostringstream out;
    out << "[";
    for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
        const Diagnostic &d = report.diagnostics[i];
        out << (i ? ",\n " : "\n ") << "{\"file\": \"";
        jsonEscape(out, d.file);
        out << "\", \"line\": " << d.line << ", \"rule\": \"";
        jsonEscape(out, d.rule);
        out << "\", \"message\": \"";
        jsonEscape(out, d.message);
        out << "\", \"hint\": \"";
        jsonEscape(out, d.hint);
        out << "\"}";
    }
    out << (report.diagnostics.empty() ? "]\n" : "\n]\n");
    return out.str();
}

namespace {

std::string
fmtMs(double ms)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", ms);
    return buf;
}

} // namespace

std::string
renderStatsText(const RunStats &stats)
{
    std::ostringstream out;
    out << "files: " << stats.files << "\n"
        << "functions-analyzed: " << stats.functionsAnalyzed << "\n"
        << "summary-evaluations: " << stats.summaryEvaluations << "\n"
        << "taint-rounds: " << stats.taintRounds << "\n"
        << "lex-parse-ms: " << fmtMs(stats.lexParseMs) << "\n"
        << "file-rules-ms: " << fmtMs(stats.fileRulesMs) << "\n"
        << "project-rules-ms: " << fmtMs(stats.projectRulesMs) << "\n"
        << "total-ms: " << fmtMs(stats.totalMs) << "\n";
    return out.str();
}

std::string
renderStatsJson(const RunStats &stats)
{
    std::ostringstream out;
    out << "{\n"
        << " \"files\": " << stats.files << ",\n"
        << " \"functionsAnalyzed\": " << stats.functionsAnalyzed
        << ",\n"
        << " \"summaryEvaluations\": " << stats.summaryEvaluations
        << ",\n"
        << " \"taintRounds\": " << stats.taintRounds << ",\n"
        << " \"lexParseMs\": " << fmtMs(stats.lexParseMs) << ",\n"
        << " \"fileRulesMs\": " << fmtMs(stats.fileRulesMs) << ",\n"
        << " \"projectRulesMs\": " << fmtMs(stats.projectRulesMs)
        << ",\n"
        << " \"totalMs\": " << fmtMs(stats.totalMs) << "\n"
        << "}\n";
    return out.str();
}

} // namespace ot::check
