#include "otc/emulated_otn.hh"

#include <array>

#include "vlsi/bitmath.hh"

namespace ot::otc {

namespace {

unsigned
defaultCycleLen(std::size_t n, unsigned cycle_len)
{
    if (cycle_len)
        return cycle_len;
    return vlsi::logCeilAtLeast1(vlsi::nextPow2(n ? n : 1));
}

std::size_t
cyclesPerSideFor(std::size_t n, unsigned l)
{
    std::size_t nn = vlsi::nextPow2(n ? n : 1);
    return vlsi::nextPow2(vlsi::ceilDiv(nn, l));
}

} // namespace

OtcEmulatedOtn::OtcEmulatedOtn(std::size_t n, const vlsi::CostModel &cost,
                               unsigned cycle_len)
    : OrthogonalTreesNetwork(n, cost),
      _cycleLen(defaultCycleLen(n, cycle_len)),
      _otcLayout(cyclesPerSideFor(n, _cycleLen), _cycleLen,
                 cost.word().bits())
{
}

vlsi::ModelTime
OtcEmulatedOtn::computeTreeTraversalCost() const
{
    // L words of the emulated row/column segment stream through the
    // K-leaf OTC tree O(log N) apart (Section V-A's broadcast
    // simulation), plus the in-cycle circulation that distributes
    // them.
    std::array<vlsi::WireLength, 1> wrap{_otcLayout.cycleWrapLength()};
    return vlsi::CostModel::pipelineTotal(
               cost().wordAlongPath(_otcLayout.tree().pathEdges()),
               _cycleLen, cost().wordSeparation()) +
           cost().wordAlongPath(wrap);
}

vlsi::ModelTime
OtcEmulatedOtn::computeTreeReduceCost() const
{
    std::array<vlsi::WireLength, 1> wrap{_otcLayout.cycleWrapLength()};
    return vlsi::CostModel::pipelineTotal(
               cost().reducePath(_otcLayout.tree().pathEdges()), _cycleLen,
               cost().wordSeparation()) +
           cost().wordAlongPath(wrap);
}

vlsi::ModelTime
OtcEmulatedOtn::baseOpCost(vlsi::ModelTime op_cost) const
{
    // A cycle of L BPs serialises the L^2 base positions of its
    // emulated square in L rounds (Section V: "the same operations can
    // be performed in O(K t) time on a cycle of BPs of length K").
    return op_cost * _cycleLen;
}

} // namespace ot::otc
