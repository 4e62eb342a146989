/**
 * @file
 * The orthogonal tree cycles (Section V of the paper).
 *
 * A (K x K)-OTC with cycle length L is an OTN whose base processors
 * are replaced by cycles of L BPs each; BP(0) of every cycle connects
 * to the row and column trees.  With K = N / log N and L = log N the
 * machine handles the same N-element problems as an (N x N)-OTN in the
 * same asymptotic time while occupying only O(N^2) area.
 *
 * Data enters and leaves as *streams*: each root port carries L words
 * per operation, pipelined O(log N) apart, so every communication
 * primitive (ROOTTOCYCLE, CYCLETOROOT, CYCLETOCYCLE and the SUM/MIN
 * variants) still costs O(log^2 N) — a pipeline of L words riding one
 * tree traversal (Section V-B).
 *
 * Register planes carry a shape (simd::Shape), as on the OTN: the
 * planes are simd::RegFile's grid (K, L), one cycle per cell, and the
 * RegFile alone gives a shape its meaning (an OTN plane is the L = 1
 * case).  A plane whose every cycle of row i (column j) holds the same
 * L-word stream is kept as one K*L-word vector, and SORT-OTC's compare
 * plane C as the two vectors it is a function of (RankCount).  The
 * const reg() reads through the shape; the mutable reg() and both
 * regPlane() forms expand ("materialize") a tagged plane into its
 * K*K*L words first.  The streamed primitives read their L source
 * words through the shape (RegFile::cell), so moving one cycle's
 * stream never expands a plane.
 */

#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "layout/otc_layout.hh"
#include "otn/registers.hh"
#include "sim/chain_engine.hh"
#include "sim/stats.hh"
#include "sim/time_accountant.hh"
#include "simd/backend.hh"
#include "simd/kernels.hh"
#include "simd/regfile.hh"
#include "trace/tracer.hh"
#include "vlsi/cost_model.hh"
#include "vlsi/word.hh"

namespace ot::otc {

using otn::kNull;
using otn::Reg;
using sim::TimeAccountant;
using vlsi::CostModel;
using vlsi::ModelTime;

/** Row or column trees of cycles. */
enum class Axis { Row, Col };

/**
 * Cycle predicate over cycle addresses (i = row, j = column).  Like
 * otn::Sel, a flat value type: the per-cycle loops evaluate it with
 * one switch and no allocation.
 */
class CSel
{
  public:
    enum class Kind : std::uint8_t { All, None, RowIs, ColIs };

    static CSel all() { return CSel(Kind::All); }
    static CSel none() { return CSel(Kind::None); }

    static CSel
    rowIs(std::size_t k)
    {
        CSel s(Kind::RowIs);
        s._index = k;
        return s;
    }

    static CSel
    colIs(std::size_t k)
    {
        CSel s(Kind::ColIs);
        s._index = k;
        return s;
    }

    Kind kind() const { return _kind; }
    std::size_t index() const { return _index; }

    bool
    matches(std::size_t i, std::size_t j) const
    {
        switch (_kind) {
        case Kind::All:
            return true;
        case Kind::None:
            return false;
        case Kind::RowIs:
            return i == _index;
        case Kind::ColIs:
            return j == _index;
        }
        return false;
    }

  private:
    explicit CSel(Kind kind) : _kind(kind) {}

    Kind _kind;
    std::size_t _index = 0;
};

/** The primitives' cycle-selector argument type. */
using CycleSelector = CSel;

/** Simulator of a (K x K)-OTC with length-L cycles. */
class OtcNetwork
{
  public:
    /**
     * @param cycles_per_side  K (rounded up to a power of two).
     * @param cycle_len        L (>= 1); log N for the standard machine.
     * @param cost             Cost rules.
     */
    OtcNetwork(std::size_t cycles_per_side, unsigned cycle_len,
               const CostModel &cost);

    std::size_t k() const { return _k; }
    unsigned cycleLen() const { return _l; }

    /** Total base processors: K^2 * L. */
    std::size_t totalBps() const { return _k * _k * _l; }

    const CostModel &cost() const { return _cost; }
    const layout::OtcLayout &chipLayout() const { return _layout; }
    TimeAccountant &acct() { return _acct; }
    const TimeAccountant &acct() const { return _acct; }
    sim::StatSet &stats() { return _stats; }
    ModelTime now() const { return _acct.now(); }

    /** Attach a model-time tracer (see otn::setTracer). */
    void
    setTracer(trace::Tracer *tracer)
    {
        _acct.setTracer(tracer);
        _engine.setTracer(tracer);
    }

    trace::Tracer *tracer() const { return _engine.tracer(); }

    void
    resetTime()
    {
        _acct.reset();
        _stats.reset();
    }

    // ------------------------------------------------------------------
    // Registers and I/O streams
    // ------------------------------------------------------------------

    /** Register r of BP(i, j, q) — the paper's triple addressing —
     *  for writing; materializes the plane. */
    std::uint64_t &
    reg(Reg r, std::size_t i, std::size_t j, std::size_t q)
    {
        const auto p = static_cast<unsigned>(r);
        _regs.makeDense(p, *_kernels);
        return _regs.at(p, _regs.index(i, j, q));
    }

    /** Register r of BP(i, j, q), read through the plane's shape. */
    std::uint64_t
    reg(Reg r, std::size_t i, std::size_t j, std::size_t q) const
    {
        return _regs.word(static_cast<unsigned>(r), i, j, q);
    }

    /**
     * Register r of the whole machine as one contiguous plane of
     * K*K*L words ordered (i, j, q) — cycle (i, j)'s L-word stream is
     * the contiguous segment at (i*K + j)*L.  Both forms materialize
     * the plane first; the const form does so because the caller reads
     * raw words.
     */
    std::uint64_t *
    regPlane(Reg r)
    {
        const auto p = static_cast<unsigned>(r);
        _regs.makeDense(p, *_kernels);
        return _regs.plane(p);
    }

    const std::uint64_t *
    regPlane(Reg r) const
    {
        const auto p = static_cast<unsigned>(r);
        _regs.makeDense(p, *_kernels);
        return std::as_const(_regs).plane(p);
    }

    /** Shape of register r's plane. */
    simd::Shape
    regShape(Reg r) const
    {
        return _regs.shape(static_cast<unsigned>(r));
    }

    /**
     * Tag register r's plane `shape` (any but Dense) and return its two
     * K*L-word shape vectors, vec0 then vec1, for the caller to fill
     * before the next read of r (simd::RegFile::tag).  The plane's own
     * words are neither written nor dirtied.  For algorithms whose step
     * leaves every cycle of a row or column the same stream
     * (SORT-OTC); the accounting halves below charge the step.
     */
    std::uint64_t *
    tagPlane(Reg r, simd::Shape shape)
    {
        return _regs.tag(static_cast<unsigned>(r), shape);
    }

    /** Tagged planes expanded into K*K*L words since construction (a
     *  test observable: the registered runs pin it). */
    std::uint64_t materializations() const
    {
        return _regs.materializations();
    }

    /** Planes handed out for writing since construction or the last
     *  clearRegs() (bit r for register r; a test observable). */
    std::uint32_t dirtyMask() const { return _regs.dirtyMask(); }

    /** Backend the kernel table was resolved to. */
    simd::Backend simdBackend() const { return _backend; }

    /** Re-route data movement through another compiled backend (see
     *  otn::OrthogonalTreesNetwork::setSimdBackend). */
    void
    setSimdBackend(simd::Backend b)
    {
        _backend = b;
        _kernels = &simd::kernelsFor(b);
    }

    /** Input stream of row-root port i (L words per operation). */
    std::vector<std::uint64_t> &rowStream(std::size_t i)
    {
        return _rowStream[i];
    }

    /** Output stream of column-root port j. */
    std::vector<std::uint64_t> &colStream(std::size_t j)
    {
        return _colStream[j];
    }

    /**
     * Zero every register of every BP (the power-on state) and make
     * every plane Dense.  Costs only the planes written since
     * construction or the last clearRegs() (see simd::RegFile).
     */
    void clearRegs() { _regs.clear(); }

    /** Fill register r of every BP (a tagged plane is retagged Dense,
     *  not materialized: every word is overwritten). */
    void fillReg(Reg r, std::uint64_t value);

    bool
    fitsWord(std::uint64_t v) const
    {
        return v == kNull || v <= _cost.word().maxValue();
    }

    // ------------------------------------------------------------------
    // Parallel sections (same semantics as the OTN's)
    // ------------------------------------------------------------------

    ModelTime
    parallelFor(std::size_t count,
                const std::function<void(std::size_t)> &body)
    {
        return _engine.parallelFor(count, body);
    }

    ModelTime
    runUncharged(const std::function<void()> &body)
    {
        return _engine.runUncharged(body);
    }

    void charge(ModelTime dt) { _engine.charge(dt); }

    // ------------------------------------------------------------------
    // Primitives (Section V-B)
    // ------------------------------------------------------------------

    /** CIRCULATE(i, j, regs): shift the registers one step around the
     *  cycle — R(q) := R((q+1) mod L). */
    ModelTime circulate(std::size_t i, std::size_t j,
                        const std::vector<Reg> &regs);

    /** VECTORCIRCULATE: circulate every cycle of a row/column. */
    ModelTime vectorCirculate(Axis axis, std::size_t idx,
                              const std::vector<Reg> &regs);

    /**
     * The accounting half of vectorCirculate, without moving data:
     * the K per-cycle circulates are counted in one bump and the
     * vector charged once.  With an enabled tracer each cycle's
     * uncharged `circulate` span precedes the `vectorCirculate` span.
     * For algorithms that read the circulated registers at an index
     * offset instead of rotating them.
     */
    ModelTime chargeVectorCirculate(Axis axis, std::size_t idx);

    /**
     * ROOTTOCYCLE(Vector, Dest): stream the L words of the root port
     * into register `dest` of the selected cycles; word q lands in
     * BP(q).
     */
    ModelTime rootToCycle(Axis axis, std::size_t idx,
                          const CycleSelector &sel, Reg dest);

    /**
     * CYCLETOROOT(Vector, Source): stream register `src` of the single
     * selected cycle to the root port, word q at beat q.  Source
     * registers are left invariant (the paper: L circulations restore
     * them).
     */
    ModelTime cycleToRoot(Axis axis, std::size_t idx,
                          const CycleSelector &sel, Reg src);

    /** SUM-CYCLETOROOT: root stream[q] = sum over selected cycles of
     *  R(q). */
    ModelTime sumCycleToRoot(Axis axis, std::size_t idx,
                             const CycleSelector &sel, Reg src);

    /** MIN-CYCLETOROOT: root stream[q] = min over selected cycles of
     *  R(q); kNull = absent. */
    ModelTime minCycleToRoot(Axis axis, std::size_t idx,
                             const CycleSelector &sel, Reg src);

    // Accounting halves of the streamed primitives: each counts,
    // traces and charges its primitive on tree `idx` of `axis` without
    // moving data, and the primitive itself calls it after moving its
    // words.  For algorithms that move a whole step's data at once
    // (SORT-OTC), the way chargeBaseOp and chargeVectorCirculate serve
    // the base steps and circulations.

    /** Accounting half of rootToCycle. */
    ModelTime chargeRootToCycle(Axis axis, std::size_t idx);

    /** Accounting half of cycleToRoot. */
    ModelTime chargeCycleToRoot(Axis axis, std::size_t idx);

    /** Accounting half of sumCycleToRoot. */
    ModelTime chargeSumCycleToRoot(Axis axis, std::size_t idx);

    /** Accounting half of cycleToCycle: cycleToRoot's, rootToCycle's
     *  and the composite's own count. */
    ModelTime chargeCycleToCycle(Axis axis, std::size_t idx);

    /** Accounting half of sumCycleToCycle. */
    ModelTime chargeSumCycleToCycle(Axis axis, std::size_t idx);

    /** CYCLETOCYCLE: source cycle's words to BP(q) of each dest. */
    ModelTime cycleToCycle(Axis axis, std::size_t idx,
                           const CycleSelector &src_sel, Reg src,
                           const CycleSelector &dst_sel, Reg dst);

    /** SUM-CYCLETOCYCLE. */
    ModelTime sumCycleToCycle(Axis axis, std::size_t idx,
                              const CycleSelector &src_sel, Reg src,
                              const CycleSelector &dst_sel, Reg dst);

    /** MIN-CYCLETOCYCLE. */
    ModelTime minCycleToCycle(Axis axis, std::size_t idx,
                              const CycleSelector &src_sel, Reg src,
                              const CycleSelector &dst_sel, Reg dst);

    /** One parallel step over all K^2 * L BPs. */
    ModelTime baseOp(ModelTime op_cost,
                     const std::function<void(std::size_t i, std::size_t j,
                                              std::size_t q)> &op);

    /** The accounting half of baseOp: count, trace and charge one
     *  base step of `op_cost` whose data the caller moves itself. */
    ModelTime chargeBaseOp(ModelTime op_cost);

    // Cost building blocks (public for the benches).  All are derived
    // from the layout geometry once, at construction.

    /** One word root<->BP(0) through a tree of K leaves. */
    ModelTime treeTraversalCost() const { return _treeTraversalCost; }

    /** L words pipelined through a tree: the standard primitive cost. */
    ModelTime streamCost() const { return _streamCost; }

    /** One CIRCULATE step (bounded by the wrap-around wire). */
    ModelTime circulateCost() const { return _circulateCost; }

  private:
    /** The L-word stream of the root port of tree `idx` on `axis`. */
    std::uint64_t *
    rootStream(Axis axis, std::size_t idx)
    {
        assert(idx < _k);
        return axis == Axis::Row ? _rowStream[idx].data()
                                 : _colStream[idx].data();
    }

    /** Combining op of the SUM/MIN streamed primitives. */
    enum class ReduceOp : std::uint8_t { Sum, Min };

    /** Data half of rootToCycle. */
    void moveRootToCycle(Axis axis, std::size_t idx, const CycleSelector &sel,
                         Reg dest);

    /** Data half of cycleToRoot. */
    void moveCycleToRoot(Axis axis, std::size_t idx, const CycleSelector &sel,
                         Reg src);

    /** Data half of sum/minCycleToRoot: per-position reduce over the
     *  selected cycles into the root stream, through the kernel table
     *  (no std::function on this path). */
    void reduceToRoot(Axis axis, std::size_t idx, const CycleSelector &sel,
                      Reg src, ReduceOp op);

    /** The network's stat counters, one per primitive. */
    enum class Ctr : unsigned {
        RootToCycle,
        CycleToRoot,
        SumCycleToRoot,
        MinCycleToRoot,
        CycleToCycle,
        SumCycleToCycle,
        MinCycleToCycle,
        Circulate,
        VectorCirculate,
        BaseOp,
        Count,
    };

    /**
     * Counter `c`, looked up in the stat set on its first bump and
     * cached (as on the OTN): the hot path builds no string and walks
     * no map, and a counter never bumped stays absent from stats().
     */
    sim::Counter &counter(Ctr c);

    /** Count (`c`), trace (span `span`) and charge one streamed
     *  primitive of cost `dt` on tree `idx` of `axis`. */
    ModelTime chargeStream(Ctr c, const char *span, ModelTime dt, Axis axis,
                           std::size_t idx);

    /** Cycle (i, j)'s L words of register r for reading, without
     *  materializing it (simd::RegFile::cell; `buf` holds L words). */
    const std::uint64_t *readCycle(Reg r, std::size_t i, std::size_t j,
                                   std::uint64_t *buf) const;

    std::pair<std::size_t, std::size_t>
    cycleAddr(Axis axis, std::size_t idx, std::size_t c) const
    {
        return axis == Axis::Row ? std::make_pair(idx, c)
                                 : std::make_pair(c, idx);
    }

    std::size_t _k;
    unsigned _l;
    CostModel _cost;
    layout::OtcLayout _layout;
    TimeAccountant _acct;
    sim::StatSet _stats;
    sim::ChainEngine _engine;
    std::array<sim::Counter *, static_cast<std::size_t>(Ctr::Count)>
        _counters{};

    // Geometry-derived costs, computed once in the constructor.
    ModelTime _treeTraversalCost = 0;
    ModelTime _streamCost = 0;
    ModelTime _reduceStreamCost = 0;
    ModelTime _circulateCost = 0;

    simd::Backend _backend;
    const simd::KernelTable *_kernels;
    // Mutable because materializing is invisible to readers (as on
    // the OTN).  Const members read through std::as_const(_regs).
    mutable simd::RegFile _regs;
    std::vector<std::vector<std::uint64_t>> _rowStream;
    std::vector<std::vector<std::uint64_t>> _colStream;
};

} // namespace ot::otc
