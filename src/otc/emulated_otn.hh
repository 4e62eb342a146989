/**
 * @file
 * OTC-emulated OTN (Section V-A of the paper).
 *
 * "If the base of the OTN is considered to be composed of squares of
 * log N x log N BPs each, then the processing in square (i, j) of the
 * OTN can be simulated by cycle (i, j) of the OTC" — and every
 * communication operation takes the same O(log^2 N) time because each
 * OTC tree streams the log N words of its group in a pipeline.
 *
 * OtcEmulatedOtn realises that argument as a machine: it behaves
 * exactly like an (N x N)-OTN functionally, but
 *
 *  - tree operations are charged at the OTC's streamed rate (a
 *    pipeline of L = log N words through a tree with K = N / log N
 *    leaves), and
 *  - base processing is dilated by L (each length-L cycle serialises
 *    the work of a log N x log N OTN square at L operations per
 *    element row... i.e. L rounds of its L processors covering L^2
 *    base positions),
 *
 * while the chip area is the OTC's O(N^2) (Section V-A, Fig. 3).
 * Every OTN algorithm (connected components, MST, matrix products)
 * runs unchanged on this machine, which is precisely how the paper
 * derives its OTC results in Section VI-B.
 */

#pragma once

#include "layout/otc_layout.hh"
#include "otn/network.hh"

namespace ot::otc {

/** An (N x N)-OTN emulated by an (N/L x N/L)-OTC with length-L cycles. */
class OtcEmulatedOtn : public otn::OrthogonalTreesNetwork
{
  public:
    /**
     * @param n     Emulated OTN side (the problem size).
     * @param cost  Cost rules.
     * @param cycle_len  L; 0 = the standard log N.
     */
    OtcEmulatedOtn(std::size_t n, const vlsi::CostModel &cost,
                   unsigned cycle_len = 0);

    /** The underlying OTC's cycle length L. */
    unsigned cycleLen() const { return _cycleLen; }

    /** Cycles per side K = N / L (rounded to a power of two). */
    std::size_t cyclesPerSide() const { return _otcLayout.cyclesPerSide(); }

    /** The physical chip: the OTC layout (area Theta(N^2)). */
    const layout::OtcLayout &otcLayout() const { return _otcLayout; }

  protected:
    /** Base-step dilation by the cycle serialisation factor L. */
    vlsi::ModelTime baseOpCost(vlsi::ModelTime op_cost) const override;

    /** Streamed tree-op cost: L words pipelined through a K-leaf tree. */
    vlsi::ModelTime computeTreeTraversalCost() const override;

    vlsi::ModelTime computeTreeReduceCost() const override;

  private:
    unsigned _cycleLen;
    layout::OtcLayout _otcLayout;
};

} // namespace ot::otc
