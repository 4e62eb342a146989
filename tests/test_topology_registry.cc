/**
 * @file
 * The topology registry contract: unique names, sorted iteration,
 * spec resolution (the pre-plugin cache-key semantics, preserved),
 * spec-token and JSON round-trips with topology names, the
 * malformed-spec diagnostics, and the final leaf machine classes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>

#include "topo/adapters.hh"
#include "topo/fat_tree.hh"
#include "topo/machine.hh"
#include "topo/mot_noc.hh"
#include "topo/registry.hh"
#include "workload/spec.hh"

namespace {

using namespace ot;
using topo::Algo;
using topo::MachineSpec;

// Every registered machine is a leaf: a new machine derives from
// topo::Machine, whose three accounting hooks are pure virtual, so it
// cannot inherit another network's cost model by accident.  The one
// exception is OtnTopoMachine, the documented emulation base.
static_assert(std::is_final_v<topo::OtcEmulatedTopoMachine>);
static_assert(std::is_final_v<topo::OtcNativeTopoMachine>);
static_assert(std::is_final_v<topo::MeshTopoMachine>);
static_assert(std::is_final_v<topo::PsnTopoMachine>);
static_assert(std::is_final_v<topo::CccTopoMachine>);
static_assert(std::is_final_v<topo::TreeTopoMachine>);
static_assert(std::is_final_v<topo::HexTopoMachine>);
static_assert(std::is_final_v<topo::FatTreeMachine>);
static_assert(std::is_final_v<topo::MotNocMachine>);
static_assert(!std::is_final_v<topo::OtnTopoMachine>);
static_assert(std::is_abstract_v<topo::Machine>);

TEST(TopoRegistry, NamesAreSortedAndSummarized)
{
    auto names = topo::registry().names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    for (const std::string &name : names) {
        const topo::TopoInfo *info = topo::registry().find(name);
        ASSERT_NE(info, nullptr) << name;
        EXPECT_EQ(info->name, name);
        EXPECT_FALSE(info->summary.empty()) << name;
        EXPECT_NE(info->build, nullptr) << name;
    }
    EXPECT_EQ(topo::registry().find("no-such-topology"), nullptr);
}

TEST(TopoRegistry, SummaryJoinsEveryNameForDiagnostics)
{
    std::string summary = topo::netNamesSummary();
    for (const std::string &name : topo::registry().names())
        EXPECT_NE(summary.find(name), std::string::npos) << name;
    EXPECT_EQ(std::count(summary.begin(), summary.end(), '|') + 1,
              static_cast<long>(topo::registry().names().size()));
}

TEST(TopoRegistryDeath, DuplicateRegistrationAborts)
{
    auto dup = [] {
        topo::Registry r;
        topo::TopoInfo info{"twice", "a test entry",
                            [](const MachineSpec &spec) {
                                return std::unique_ptr<topo::Machine>(
                                    new topo::FatTreeMachine(spec));
                            }};
        r.add(info);
        r.add(info);
    };
    EXPECT_DEATH(dup(), "duplicate topology registration 'twice'");
}

TEST(TopoRegistry, ResolveSpecPreservesOtcFamilySplit)
{
    using vlsi::DelayModel;
    // SORT-OTC runs natively with cycles of log N...
    auto sort = topo::resolveSpec("otc", Algo::Sort, 32,
                                  DelayModel::Logarithmic, false);
    EXPECT_EQ(sort.topo, "otc");
    EXPECT_EQ(sort.cycleLen, 5u);
    // ...the Table II Boolean machine emulates with cycles of log^2 N...
    auto boolmm = topo::resolveSpec("otc", Algo::BoolMatMul, 32,
                                    DelayModel::Logarithmic, false);
    EXPECT_EQ(boolmm.topo, "otc-emu");
    EXPECT_EQ(boolmm.cycleLen, 25u);
    // ...and everything else emulates with cycles of log N.
    auto mst = topo::resolveSpec("otc", Algo::Mst, 32,
                                 DelayModel::Logarithmic, false);
    EXPECT_EQ(mst.topo, "otc-emu");
    EXPECT_EQ(mst.cycleLen, 5u);
    // Non-OTC names map to themselves, cycle-free.
    for (const char *net : {"otn", "mesh", "fattree", "d2d-mot"}) {
        auto spec = topo::resolveSpec(net, Algo::Sort, 32,
                                      DelayModel::Logarithmic, false);
        EXPECT_EQ(spec.topo, net);
        EXPECT_EQ(spec.cycleLen, 0u);
        EXPECT_EQ(spec.n, 32u);
    }
}

TEST(TopoRegistry, SpecToStringNamesShapeAndCostRules)
{
    MachineSpec spec;
    spec.topo = "fattree";
    spec.n = 64;
    spec.model = vlsi::DelayModel::Logarithmic;
    spec.wordBits = 12;
    EXPECT_EQ(toString(spec), "fattree:n=64:log:w=12");
    spec.topo = "otc";
    spec.cycleLen = 6;
    spec.scaled = true;
    EXPECT_EQ(toString(spec), "otc:n=64:l=6:log:w=12:scaled");
}

TEST(TopoRegistry, SpecKeysOrderByEveryField)
{
    auto base = topo::resolveSpec("mot", Algo::Sort, 32,
                                  vlsi::DelayModel::Logarithmic, false);
    auto other = base;
    EXPECT_EQ(base, other);
    other.topo = "d2d-mot";
    EXPECT_NE(base, other);
    other = base;
    other.n = 64;
    EXPECT_NE(base, other);
    other = base;
    other.wordBits += 1;
    EXPECT_NE(base, other);
    other = base;
    other.scaled = true;
    EXPECT_NE(base, other);
}

TEST(TopoRegistry, InstanceTokensRoundTripEveryTopology)
{
    for (const std::string &net : topo::registry().names()) {
        workload::InstanceSpec inst;
        inst.algo = Algo::ShortestPaths;
        inst.net = net;
        inst.n = 16;
        inst.seed = 7;
        std::string token = workload::toToken(inst);
        workload::InstanceSpec back;
        std::string err;
        ASSERT_TRUE(workload::parseInstance(token, back, err))
            << token << ": " << err;
        EXPECT_EQ(back.net, net);
        EXPECT_EQ(back.algo, Algo::ShortestPaths);
        EXPECT_EQ(back.seed, 7u);
    }
}

TEST(TopoRegistry, WorkloadJsonRoundTripsTopologyTokens)
{
    workload::WorkloadSpec spec;
    std::uint64_t seed = 1;
    for (const std::string &net : topo::registry().names())
        spec.instances.push_back({Algo::Sort, net, 16,
                                  vlsi::DelayModel::Logarithmic, false,
                                  seed++});
    std::string json = workload::toJson(spec);
    workload::WorkloadSpec back;
    std::string err;
    ASSERT_TRUE(workload::parseWorkloadJson(json, back, err)) << err;
    ASSERT_EQ(back.instances.size(), spec.instances.size());
    for (std::size_t i = 0; i < spec.instances.size(); ++i)
        EXPECT_EQ(back.instances[i].net, spec.instances[i].net) << i;
    EXPECT_EQ(workload::toJson(back), json);
}

TEST(TopoRegistry, UnknownNetDiagnosticListsTheRegistry)
{
    workload::InstanceSpec out;
    std::string err;
    EXPECT_FALSE(workload::parseInstance("sort:hypercube:32:log", out,
                                         err));
    EXPECT_NE(err.find("unknown net 'hypercube'"), std::string::npos)
        << err;
    EXPECT_NE(err.find(topo::netNamesSummary()), std::string::npos)
        << err;
}

} // namespace
