#include "topo/registry.hh"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "otn/mst.hh"
#include "otn/shortest_paths.hh"
#include "topo/adapters.hh"
#include "topo/ccc.hh"
#include "topo/fat_tree.hh"
#include "topo/hex.hh"
#include "topo/mesh.hh"
#include "topo/mot_noc.hh"
#include "topo/psn.hh"
#include "topo/tree.hh"
#include "vlsi/bitmath.hh"

namespace ot::topo {

namespace {

template <class M>
std::unique_ptr<Machine>
buildSimple(const MachineSpec &spec)
{
    return std::make_unique<M>(spec);
}

std::unique_ptr<Machine>
buildMot(const MachineSpec &spec)
{
    return std::make_unique<MotNocMachine>(spec, /*diametrical=*/false);
}

std::unique_ptr<Machine>
buildD2dMot(const MachineSpec &spec)
{
    return std::make_unique<MotNocMachine>(spec, /*diametrical=*/true);
}

void
registerBuiltins(Registry &reg)
{
    reg.add({"otn", "(N x N) orthogonal trees network (the paper's machine)",
             buildSimple<OtnTopoMachine>});
    reg.add({"otc", "orthogonal tree cycles, native streaming (SORT-OTC)",
             buildSimple<OtcNativeTopoMachine>});
    reg.add({"otc-emu", "OTC-emulated OTN (Section V-A)",
             buildSimple<OtcEmulatedTopoMachine>});
    reg.add({"mesh", "sqrt(N) x sqrt(N) mesh (Thompson-Kung, Cannon)",
             buildSimple<MeshMachine>});
    reg.add({"psn", "perfect shuffle network (Stone)",
             buildSimple<PsnMachine>});
    reg.add({"ccc", "cube-connected cycles (Preparata-Vuillemin)",
             buildSimple<CccMachine>});
    reg.add({"tree", "single binary tree (the root-bottleneck ablation)",
             buildSimple<TreeMachine>});
    reg.add({"hex", "hexagonal systolic array (Kung-Leiserson)",
             buildSimple<HexMachine>});
    reg.add({"fattree", "two-layer fat-tree from switch ports (Solnushkin)",
             buildSimple<FatTreeMachine>});
    reg.add({"mot", "mesh-of-trees NoC (row + column trees)", buildMot});
    reg.add({"d2d-mot", "MoT NoC with diametrical links (arXiv:1212.2874)",
             buildD2dMot});
}

} // namespace

void
Registry::add(TopoInfo info)
{
    auto [it, fresh] = _topos.try_emplace(info.name, std::move(info));
    (void)it;
    if (!fresh) {
        std::fprintf(stderr,
                     "topo: duplicate topology registration '%s'\n",
                     it->first.c_str());
        std::abort();
    }
}

const TopoInfo *
Registry::find(const std::string &name) const
{
    auto it = _topos.find(name);
    return it == _topos.end() ? nullptr : &it->second;
}

std::vector<std::string>
Registry::names() const
{
    std::vector<std::string> out;
    out.reserve(_topos.size());
    for (const auto &[name, info] : _topos)
        out.push_back(name);
    return out;
}

std::unique_ptr<Machine>
Registry::build(const MachineSpec &spec) const
{
    const TopoInfo *info = find(spec.topo);
    assert(info && "topo: unknown topology name");
    return info->build(spec);
}

Registry &
registry()
{
    static Registry reg = [] {
        Registry r;
        registerBuiltins(r);
        return r;
    }();
    return reg;
}

bool
isNetName(const std::string &name)
{
    return registry().find(name) != nullptr;
}

std::string
netNamesSummary()
{
    std::string out;
    for (const std::string &name : registry().names()) {
        if (!out.empty())
            out += "|";
        out += name;
    }
    return out;
}

vlsi::WordFormat
wordFormatFor(Algo algo, std::size_t n)
{
    switch (algo) {
      case Algo::MatMul:
        // Entries in [0, 9]: row-product sums reach n * 81.
        return vlsi::WordFormat(vlsi::logCeilAtLeast1(n * 81 + 1) + 2);
      case Algo::Mst:
        return otn::mstWordFormat(n, n * n);
      case Algo::ShortestPaths:
        return otn::pathWordFormat(n, n * n);
      case Algo::Sort:
      case Algo::BoolMatMul:
      case Algo::ConnectedComponents:
        break;
    }
    return vlsi::WordFormat::forProblemSize(n);
}

MachineSpec
resolveSpec(const std::string &net, Algo algo, std::size_t n,
            vlsi::DelayModel model, bool scaled)
{
    assert(isNetName(net) && "topo: unknown net name");
    const unsigned logn = vlsi::logCeilAtLeast1(n);
    MachineSpec spec;
    spec.n = n;
    spec.model = model;
    spec.scaled = scaled;
    spec.wordBits = wordFormatFor(algo, n).bits();
    if (net == "otc") {
        if (algo == Algo::Sort) {
            // SORT-OTC runs natively on the streaming machine.
            spec.topo = "otc";
            spec.cycleLen = logn;
        } else if (algo == Algo::BoolMatMul) {
            // The Table II big-OTC: cycles of log^2 N one-bit BPs.
            spec.topo = "otc-emu";
            spec.cycleLen = logn * logn;
        } else {
            // Section VI-B: the OTN algorithms on the emulated machine.
            spec.topo = "otc-emu";
            spec.cycleLen = logn;
        }
    } else if (net == "otc-emu") {
        spec.topo = "otc-emu";
        spec.cycleLen = algo == Algo::BoolMatMul ? logn * logn : logn;
    } else {
        spec.topo = net;
        spec.cycleLen = 0;
    }
    return spec;
}

} // namespace ot::topo
