#include "check/checker.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
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

} // namespace

Report
checkProject(const std::vector<SourceFile> &files)
{
    std::vector<FileContext> ctxs;
    ctxs.reserve(files.size());
    HotpathMap hotpath;
    for (const SourceFile &f : files) {
        FileContext ctx;
        ctx.lexed = lex(f.source);
        ctx.path = ctx.lexed.fixturePath.empty()
                       ? f.path
                       : ctx.lexed.fixturePath;
        ctx.layer = classifyLayer(ctx.path);
        hotpath[ctx.path] = ctx.lexed.hotpath;
        ctxs.push_back(std::move(ctx));
    }

    Report report;
    for (const FileContext &ctx : ctxs) {
        report.files.push_back(ctx.path);
        for (Diagnostic &d : runRules(ctx, hotpath))
            report.diagnostics.push_back(std::move(d));
    }
    std::sort(report.files.begin(), report.files.end());
    std::sort(report.diagnostics.begin(), report.diagnostics.end(),
              diagLess);
    return report;
}

std::vector<Diagnostic>
checkSource(const std::string &path, const std::string &source)
{
    return checkProject({{path, source}}).diagnostics;
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

std::vector<std::string>
missingFiles(const std::string &root, const std::vector<std::string> &files)
{
    std::vector<std::string> missing;
    for (const std::string &rel : files) {
        std::error_code ec;
        if (!fs::is_regular_file(fs::path(root) / rel, ec))
            missing.push_back(rel);
    }
    return missing;
}

std::vector<SourceFile>
readTree(const std::string &root, const std::vector<std::string> &files)
{
    std::vector<SourceFile> sources;
    sources.reserve(files.size());
    for (const std::string &rel : files)
        sources.push_back(
            {rel, readFile((fs::path(root) / rel).string())});
    return sources;
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

} // namespace ot::check
