#include "otn/sort.hh"

namespace ot::otn {

SortResult
sortOtn(OrthogonalTreesNetwork &net, const std::vector<std::uint64_t> &values)
{
    const std::size_t n = net.n();
    const std::size_t m = values.size();
    assert(m <= n);

    ModelTime start = net.now();
    net.setRowRootInputs(values);

    sim::ScopedPhase phase(net.acct(), "sort-otn");

    // Each step is the batch (all-trees) form of the per-tree pardo of
    // Section II-B; see network.hh's batch section for the data/
    // accounting split.  Model time and traces are bit-identical to
    // the per-tree formulation.

    // Step 1: A(i, j) := x(i) for all j.
    net.batchRowBroadcast(Reg::A);

    // Step 2: B(i, j) := x(j) — the diagonal's A fanned out down each
    // column.
    net.batchDiagToCols(Reg::A, Reg::B);

    // Step 3: flag := A > B, or A == B and i > j (the duplicate-safe
    // variant at the end of Section II-B).  kNull compares as +infinity
    // so absent ports rank last.
    net.batchCompareRank(Reg::A, Reg::B, Reg::F);

    // Step 4: R(i, j) := rank of x(i), for all j.
    net.batchCountRowsToLeaves(Reg::F, Reg::R);

    // Step 5: column root i picks up the element of rank i.
    net.batchPickColByKeyIndex(Reg::R, Reg::A);

    SortResult result;
    const auto &out = net.colRootOutputs();
    result.sorted.assign(out.begin(), out.begin() + static_cast<long>(m));
    result.time = net.now() - start;
    return result;
}

} // namespace ot::otn
