/**
 * @file
 * The orthogonal trees network (Section II of the paper).
 *
 * An (N x N)-OTN is an N x N matrix of base processors (BPs) in which
 * each row and each column of BPs forms the leaves of a complete
 * binary tree of internal processors (IPs).  The roots of the row
 * trees are the input ports and the roots of the column trees the
 * output ports.  BPs do the processing; IPs route words between BPs
 * and the roots and perform simple combining (count, sum, min) on the
 * way up.
 *
 * This class simulates the machine *functionally* while charging
 * *model time* per Thompson's VLSI rules: every primitive's cost is
 * computed from the wire geometry of a concrete OtnLayout through a
 * CostModel, and accumulated in a TimeAccountant.  Algorithms express
 * the paper's "for each i pardo" with parallelFor, which charges the
 * maximum cost of the enclosed operations instead of their sum (the
 * sim::ChainEngine's max-of-chains rule).  The iterations run
 * sequentially on the host; one machine is only ever driven by one
 * thread.
 *
 * The registers are the planes of a simd::RegFile on the grid (N, 1):
 * one base processor per cell, the L = 1 case of the OTC's grid.  A
 * plane may be shape-tagged (a broadcast leaves one N-word vector);
 * the RegFile alone gives the tags their meaning, and this class
 * forwards to it with typed accessors (reg, regPlane, regShape,
 * materializations, dirtyMask).
 */

#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "layout/otn_layout.hh"
#include "linalg/matrix.hh"
#include "otn/registers.hh"
#include "sim/chain_engine.hh"
#include "sim/stats.hh"
#include "sim/time_accountant.hh"
#include "simd/backend.hh"
#include "simd/kernels.hh"
#include "simd/rank.hh"
#include "simd/regfile.hh"
#include "trace/tracer.hh"
#include "vlsi/cost_model.hh"
#include "vlsi/word.hh"

namespace ot::otn {

using sim::TimeAccountant;
using vlsi::CostModel;
using vlsi::ModelTime;

/** Row trees or column trees — the "Vector" argument of Section II-B. */
enum class Axis { Row, Col };

/**
 * A leaf predicate over full BP addresses (i = row, j = column) — the
 * paper's "Selector" argument.
 *
 * Sel is a flat value type (a tag plus a few indices), not a
 * std::function: the per-leaf inner loops of the primitives evaluate
 * it with one branch-predictable switch and zero allocations.  The
 * named factories cover every selector the paper's algorithms use.
 */
class Sel
{
  public:
    enum class Kind : std::uint8_t {
        All,       ///< every BP of the vector
        None,      ///< no BP
        Diag,      ///< i == j
        RowIs,     ///< i == index
        ColIs,     ///< j == index
        EvenAlong, ///< even position along the vector axis
        RegEq,     ///< machine register reg(r, i, j) == value
    };

    /** Every BP of the vector. */
    static Sel all() { return Sel(Kind::All); }

    /** No BP (the empty selection). */
    static Sel none() { return Sel(Kind::None); }

    /** BPs on the main diagonal (i == j). */
    static Sel diag() { return Sel(Kind::Diag); }

    /** BPs in row k (selects one leaf of a column vector). */
    static Sel
    rowIs(std::size_t k)
    {
        Sel s(Kind::RowIs);
        s._index = k;
        return s;
    }

    /** BPs in column k (selects one leaf of a row vector). */
    static Sel
    colIs(std::size_t k)
    {
        Sel s(Kind::ColIs);
        s._index = k;
        return s;
    }

    /** BPs with even position along the vector axis. */
    static Sel
    evenAlong(Axis axis)
    {
        Sel s(Kind::EvenAlong);
        s._axis = axis;
        return s;
    }

    /**
     * BPs whose register r holds `value` — the "flag test" selector
     * every paper algorithm builds its custom predicates from (e.g.
     * SORT-OTN's "rank == i", CONNECT's "B(i, j) == j").
     */
    static Sel
    regEq(Reg r, std::uint64_t value)
    {
        Sel s(Kind::RegEq);
        s._reg = r;
        s._value = value;
        return s;
    }

    Kind kind() const { return _kind; }
    std::size_t index() const { return _index; }
    Axis axis() const { return _axis; }
    Reg selReg() const { return _reg; }
    std::uint64_t value() const { return _value; }

  private:
    explicit Sel(Kind kind) : _kind(kind) {}

    Kind _kind;
    Axis _axis = Axis::Row;
    Reg _reg = Reg::A;
    std::size_t _index = 0;
    std::uint64_t _value = 0;
};

/** The primitives' selector argument type. */
using Selector = Sel;

/** Simulator of an (N x N) orthogonal trees network. */
class OrthogonalTreesNetwork
{
  public:
    /**
     * @param n      Side of the base; rounded up to a power of two.
     * @param cost   Cost rules (delay model, word width, scaling).
     * @param params Layout constants for the chip geometry.
     */
    OrthogonalTreesNetwork(std::size_t n, const CostModel &cost,
                           layout::LayoutParams params = {});

    virtual ~OrthogonalTreesNetwork() = default;

    /** Base side N. */
    std::size_t n() const { return _n; }

    const CostModel &cost() const { return _cost; }
    const layout::OtnLayout &chipLayout() const { return _layout; }
    TimeAccountant &acct() { return _acct; }
    const TimeAccountant &acct() const { return _acct; }
    sim::StatSet &stats() { return _stats; }

    /**
     * Attach a model-time tracer: every primitive becomes a Span event
     * and every clock tick a Charge event (see trace/tracer.hh).  Pass
     * nullptr to detach; the tracer must outlive the network or be
     * detached first.
     */
    void
    setTracer(trace::Tracer *tracer)
    {
        _acct.setTracer(tracer);
        _engine.setTracer(tracer);
    }

    trace::Tracer *tracer() const { return _engine.tracer(); }

    /** Model time elapsed since construction/reset. */
    ModelTime now() const { return _acct.now(); }

    /** Reset model time and statistics (registers keep their values). */
    void
    resetTime()
    {
        _acct.reset();
        _stats.reset();
    }

    // ------------------------------------------------------------------
    // Register file and I/O ports
    // ------------------------------------------------------------------

    // Register planes carry a shape (simd::Shape; an OTN plane is
    // simd::RegFile's grid (N, 1)): a broadcast leaves one value per
    // row or column, kept as one N-word vector instead of N^2 words,
    // and the sort's compare of two broadcasts keeps both vectors
    // (RankCount).  The RegFile resolves reads through the shape; any
    // access that hands out plane words for writing, or the raw plane,
    // first expands ("materializes") a tagged plane into its N^2 words.

    /** Register r of BP(i, j), read through the plane's shape. */
    std::uint64_t
    reg(Reg r, std::size_t i, std::size_t j) const
    {
        assert(i < _n && j < _n);
        return _regs.word(static_cast<unsigned>(r), i, j, 0);
    }

    /** Register r of BP(i, j) for writing; materializes the plane.
     *  The reference is valid until a batch primitive next tags r. */
    std::uint64_t &
    reg(Reg r, std::size_t i, std::size_t j)
    {
        assert(i < _n && j < _n);
        const auto p = static_cast<unsigned>(r);
        _regs.makeDense(p, *_kernels);
        return _regs.at(p, i * _n + j);
    }

    /**
     * Register r of the whole base as one contiguous row-major plane
     * of n*n words (the struct-of-arrays lane the batch kernels
     * stream).  Row i is the subspan [i*n, (i+1)*n).  Both forms
     * materialize the plane first; the const form does so because the
     * caller reads raw words.
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

    /** Tagged planes expanded into N^2 words since construction (a
     *  test observable: the registered runs pin it). */
    std::uint64_t materializations() const
    {
        return _regs.materializations();
    }

    /** Planes handed out for writing since construction or the last
     *  clearRegs() (bit r for register r; a test observable). */
    std::uint32_t dirtyMask() const { return _regs.dirtyMask(); }

    /** The SIMD kernel table data movement is routed through. */
    const simd::KernelTable &kernelTable() const { return *_kernels; }

    /** Backend the kernel table was resolved to. */
    simd::Backend simdBackend() const { return _backend; }

    /**
     * Re-route this network's data movement through another compiled
     * backend (differential tests compare scalar against vector paths
     * in one process).  Aborts if `b` was not compiled in.  Model-time
     * accounting is backend-independent by construction.
     */
    void
    setSimdBackend(simd::Backend b)
    {
        _backend = b;
        _kernels = &simd::kernelsFor(b);
    }

    /** Data register at the root of row tree i (input port i). */
    std::uint64_t &rowRoot(std::size_t i) { return _rowRoot[i]; }
    std::uint64_t rowRoot(std::size_t i) const { return _rowRoot[i]; }

    /** Data register at the root of column tree j (output port j). */
    std::uint64_t &colRoot(std::size_t j) { return _colRoot[j]; }
    std::uint64_t colRoot(std::size_t j) const { return _colRoot[j]; }

    /** Load one word per input (row-root) port. */
    void setRowRootInputs(std::span<const std::uint64_t> values);

    /** All output (column-root) ports, as a view (no copy). */
    const std::vector<std::uint64_t> &
    colRootOutputs() const
    {
        return _colRoot;
    }

    /**
     * Zero every register of every BP (the power-on state) and make
     * every plane Dense.  Costs only the planes written since
     * construction or the last clearRegs() (see simd::RegFile).
     */
    void clearRegs() { _regs.clear(); }

    /** Fill register r of every BP with `value`. */
    void fillReg(Reg r, std::uint64_t value);

    /** True iff v fits the machine word (kNull is always allowed). */
    bool
    fitsWord(std::uint64_t v) const
    {
        return v == kNull || v <= _cost.word().maxValue();
    }

    // ------------------------------------------------------------------
    // Parallel sections ("for each i pardo ...")
    // ------------------------------------------------------------------

    /**
     * The paper's "for each k (0 <= k < count) pardo body(k)".
     *
     * Each iteration runs on disjoint hardware (a different tree /
     * different BPs), so iterations overlap in time: the primitives
     * *within* one iteration still add up (they are sequential on
     * that hardware), but across iterations only the maximum chain
     * is charged.  Nested parallelFor composes: an inner pardo
     * contributes its (max) cost to the enclosing iteration's chain.
     * Returns the charged (max-of-chains) cost.  The iterations run
     * in order on the calling thread.
     */
    ModelTime
    parallelFor(std::size_t count,
                const std::function<void(std::size_t)> &body)
    {
        return _engine.parallelFor(count, body);
    }

    // ------------------------------------------------------------------
    // Primitive operations (Section II-B)
    // ------------------------------------------------------------------

    /**
     * ROOTTOLEAF(Vector, Dest): broadcast the root data register of
     * tree `idx` on `axis` to register `dest` of the selected leaves.
     */
    ModelTime rootToLeaf(Axis axis, std::size_t idx, const Selector &sel,
                         Reg dest);

    /**
     * LEAFTOROOT(Vector, Source): send register `src` of the single
     * selected leaf to the root data register.  If no leaf is
     * selected the root receives kNull; selecting more than one leaf
     * is a programming error (asserted).
     */
    ModelTime leafToRoot(Axis axis, std::size_t idx, const Selector &sel,
                         Reg src);

    /**
     * COUNT-LEAFTOROOT(Vector): count set flags (register `flag` != 0)
     * along the vector into the root data register.
     */
    ModelTime countLeafToRoot(Axis axis, std::size_t idx, Reg flag);

    /** SUM-LEAFTOROOT(Vector, Source): sum of selected registers. */
    ModelTime sumLeafToRoot(Axis axis, std::size_t idx, const Selector &sel,
                            Reg src);

    /**
     * MIN-LEAFTOROOT(Vector, Source): minimum of selected registers
     * (kNull = "no datum" loses to everything; root gets kNull if
     * nothing is selected).
     */
    ModelTime minLeafToRoot(Axis axis, std::size_t idx, const Selector &sel,
                            Reg src);

    // Composite operations: a LEAFTOROOT-flavoured primitive followed
    // by ROOTTOLEAF (Section II-B).

    /** LEAFTOLEAF: one leaf's word redistributed to selected leaves. */
    ModelTime leafToLeaf(Axis axis, std::size_t idx, const Selector &src_sel,
                         Reg src, const Selector &dst_sel, Reg dst);

    /** COUNT-LEAFTOLEAF: flag count delivered to selected leaves. */
    ModelTime countLeafToLeaf(Axis axis, std::size_t idx, Reg flag,
                              const Selector &dst_sel, Reg dst);

    // ------------------------------------------------------------------
    // Batch primitives ("for each tree pardo <primitive>")
    // ------------------------------------------------------------------
    //
    // Each batch call is semantically the parallelFor over all N trees
    // (or the whole-base op) written in its doc comment, but the data
    // movement runs row-at-a-time through the SIMD kernel table over
    // contiguous register planes (a column reduction is N row-wise
    // accumulations).  Model-time accounting is then replayed through
    // sim::ChainEngine::replayPardo exactly as the per-tree formulation
    // would have produced it, so counters, trace streams and the clock
    // are bit-identical to the per-tree path.  A composite (a reduction
    // then a broadcast) replays as one chain: two batches would charge
    // two pardos, one clock step more.
    //
    // A batch that broadcasts to every leaf (Sel::all()) tags its
    // destination RowConst or ColConst and writes only the N root
    // words.  Inputs are read through their shapes, never
    // materialized; the key-indexed primitives take an O(N) path when
    // the key is RowConst, since row i then has one candidate column.
    // The rank compare of a row and a column broadcast tags its flags
    // RankCount, and counting such flags takes all N row counts from
    // one stable radix order of each vector (simd::rankCounts), with
    // no pairwise compare.  The graph algorithms' candidate step tags
    // its plane Candidate (derived from the graph's plane and the two
    // label broadcasts), and a row minimum of it walks the graph's
    // edges only (simd::RegFile::candidateRowMins).

    /** For each row i pardo: rootToLeaf(Row, i, all, dest). */
    ModelTime batchRowBroadcast(Reg dest);

    /**
     * One vector-matrix product step: a baseOp of nominal `op_cost`
     * computing out = a * b (absent operand -> 0) or, when `boolean`,
     * out = (a && b) ? 1 : 0 (absent operand -> 0) at every BP, then
     * the column sums of out.  `a` must be RowConst (the row broadcast just
     * before it), so row i is one scalar times row i of b: each row is
     * computed, written to out and added into the column roots in one
     * pass (simd::KernelTable::mulAccumRow, andAccumRow), and a row
     * whose scalar is absent or zero is written as zeros.  `out` ends
     * Dense and dirty, as the two-step form leaves it, and the
     * accounting is the baseOp's then the column sums'.
     */
    ModelTime batchProductColSum(ModelTime op_cost, bool boolean, Reg a,
                                 Reg b, Reg out);

    /**
     * The accounting of one product step, batchRowBroadcast then
     * batchProductColSum(op_cost, ..), without its data: the row
     * broadcast's replay, the base op and the column sums' replay, in
     * that order.  None of it depends on the data, so a whole-matrix
     * product moves the data of all its vector products at once
     * (productRows) and replays each product's accounting here.
     */
    ModelTime chargeProductStep(ModelTime op_cost);

    /**
     * The data of a.rows() integer product steps at once: row i of
     * `out` (out.cols() <= n words) gains the colRoot words that
     * setRowRootInputs(row i of a), batchRowBroadcast and
     * batchProductColSum(.., false, ..) against register b leave in
     * its first out.cols() columns.  An absent or zero a(i, k) adds
     * nothing and an absent b word counts as 0
     * (simd::KernelTable::macTileAbsent, one register-tiled pass over
     * b's Dense plane).  Writes no register and charges nothing.
     */
    void productRows(const linalg::IntMatrix &a, Reg b,
                     linalg::IntMatrix &out) const;

    /** For each col j pardo: minLeafToRoot(Col, j, all, src). */
    ModelTime batchColMin(Reg src);

    /**
     * For each col j pardo: minLeafToRoot(Col, j, regEq(key, j), src)
     * then rootToLeaf(Col, j, dst_sel, dst), with dst_sel Sel::all()
     * or Sel::diag() — the graph algorithms' per-component minimum
     * (members of component j have key == j).
     */
    ModelTime batchMinColsByKeyIndexToLeaves(Reg key, Reg src,
                                             const Sel &dst_sel, Reg dst);

    /**
     * For each row i pardo: minLeafToRoot(Row, i, all, src) then
     * rootToLeaf(Row, i, dst_sel, dst), with dst_sel Sel::all() or
     * Sel::diag().  A Candidate src is not expanded: each row minimum
     * walks the set bits of its source's presence mask.
     */
    ModelTime batchMinRowsToLeaves(Reg src, const Sel &dst_sel, Reg dst);

    /** For each row i pardo: leafToLeaf(Row, i, diag, src, all, dst). */
    ModelTime batchDiagToRows(Reg src, Reg dst);

    /** For each col j pardo: leafToLeaf(Col, j, diag, src, all, dst). */
    ModelTime batchDiagToCols(Reg src, Reg dst);

    /** For each row i pardo: countLeafToLeaf(Row, i, flag, all, dst).
     *  A RankCount flag is counted without being expanded: its N row
     *  counts are the ranks simd::rankCounts takes from one stable
     *  order of each of its two vectors. */
    ModelTime batchCountRowsToLeaves(Reg flag, Reg dst);

    /**
     * For each col j pardo: leafToRoot(Col, j, regEq(key, j), src) —
     * the enumeration sort's output step: column j's root receives the
     * src word of the unique leaf whose key register equals j (kNull
     * if none; more than one is asserted, as in leafToRoot).
     */
    ModelTime batchPickColByKeyIndex(Reg key, Reg src);

    /**
     * baseOp computing flag = (a > b || (a == b && i > j)) ? 1 : 0 at
     * every BP(i, j) — the enumeration sort's rank comparison, charged
     * one bit-serial op like the equivalent baseOp call.  With a
     * RowConst a and a ColConst b (SORT-OTN's steps 1 and 2), neither
     * of them `flag`, the flags are a function of the two broadcast
     * vectors: `flag` is tagged RankCount with copies of them and no
     * flag word is written.  Otherwise the flags are written dense.
     */
    ModelTime batchCompareRank(Reg a, Reg b, Reg flag);

    /**
     * baseOp computing out = (key == j) ? val : kNull at every
     * BP(i, j), charged one bit-serial op.  A RowConst key leaves out
     * RowOneHot (the gather scratch: one value per row).
     */
    ModelTime batchSelectValAtKeyIndex(Reg key, Reg val, Reg out);

    /**
     * baseOp computing out = simd::candidate(rule, a, mine, theirs, i, j)
     * at every BP(i, j), with mine = b(i, j) and theirs = c(i, j):
     * CONNECT's or MST's candidate step, charged one bit-serial op.  b
     * must be RowConst and c ColConst (the label fan-outs just before
     * the step), and out none of a, b, c.  No word of out is written:
     * it is tagged Candidate on a (materialized first if tagged) with
     * copies of the two label vectors, and a later write to a expands
     * it (simd::RegFile).
     */
    ModelTime batchCandidates(simd::CandidateRule rule, Reg a, Reg b, Reg c,
                              Reg out);

    /**
     * PERMUTE-LEAFTOLEAF: route dst(perm(k)) := src(k) along one
     * vector through its tree.
     *
     * The cost is congestion-priced: every word whose source and
     * destination lie in different child subtrees of an internal node
     * must cross that node, bit-serially; with the IPs forwarding in
     * a pipeline the completion time is one traversal plus the
     * busiest node's queue drained at word separation.  An identity
     * or shift-by-one permutation therefore costs one traversal,
     * while a reversal serializes K words at the root — exactly the
     * physics that makes LEAFTOLEAF-style algorithms prefer local
     * exchanges.
     *
     * `perm` must be a permutation of 0..n-1 (asserted).
     */
    ModelTime permuteLeafToLeaf(Axis axis, std::size_t idx,
                                std::span<const std::size_t> perm, Reg src,
                                Reg dst);

    /**
     * Cost of routing `perm` through one tree without performing it
     * (exposed for benches and for algorithms that route the same
     * pattern on many vectors at once).
     */
    ModelTime permutationCost(std::span<const std::size_t> perm) const;

    /**
     * PREFIX-LEAFTOLEAF: inclusive prefix sums along a vector,
     * dst(k) = sum of src(0..k).  The classic two-sweep tree scan
     * (up-sweep accumulates subtree sums in the IPs, down-sweep feeds
     * each subtree its left-context), so it costs two combining
     * traversals — the same O(log^2 N) class as the other primitives.
     * Unselected leaves contribute 0 but still receive their prefix.
     */
    ModelTime prefixSumLeafToLeaf(Axis axis, std::size_t idx,
                                  const Selector &src_sel, Reg src,
                                  Reg dst);

    // ------------------------------------------------------------------
    // Base processing
    // ------------------------------------------------------------------

    /**
     * One parallel step of processing in the base: apply `op(i, j)` to
     * every BP and charge `op_cost` once (all BPs run concurrently).
     * Typical costs: cost().bitSerialOp() for compare/add,
     * cost().bitSerialMultiply() for multiply.  Machines that
     * *emulate* the OTN base with fewer processors (the OTC,
     * Section V-A) dilate the charge through baseOpCost().
     */
    template <typename Op>
    ModelTime
    baseOp(ModelTime op_cost, Op &&op)
    {
        for (std::size_t i = 0; i < _n; ++i)
            for (std::size_t j = 0; j < _n; ++j)
                op(i, j);
        return chargeBaseOp(op_cost);
    }

    /**
     * A baseOp whose op acts on the diagonal BPs only (every other BP
     * idles): applies `op(i)` at BP(i, i), charged like baseOp.
     */
    template <typename Op>
    ModelTime
    baseOpDiag(ModelTime op_cost, Op &&op)
    {
        for (std::size_t i = 0; i < _n; ++i)
            op(i);
        return chargeBaseOp(op_cost);
    }

    /**
     * A baseOp computing out = fn(a, b) elementwise, one plane row at
     * a time through a kernel-table slot (kernelTable().addSatRow).
     */
    ModelTime baseOpRows(ModelTime op_cost, simd::BinaryRowFn fn, Reg a,
                         Reg b, Reg out);

    /**
     * A baseOp that overwrites plane `out` one row at a time:
     * `op(i, o, in)` writes row i of out to o[0, n) from in[k], row i
     * of `inputs[k]` (at most kRowScratchBufs of them), charged like
     * baseOp.  Inputs are read through their shapes, never
     * materialized; an input that is also `out` is materialized first
     * and read in place.
     */
    template <typename RowOp>
    ModelTime
    baseOpByRow(ModelTime op_cost, Reg out, std::initializer_list<Reg> inputs,
                RowOp &&op)
    {
        assert(inputs.size() <= kRowScratchBufs);
        std::uint64_t *o = overwritePlane(out, inputs);
        std::array<const std::uint64_t *, kRowScratchBufs> in{};
        for (std::size_t i = 0; i < _n; ++i) {
            unsigned k = 0;
            for (Reg r : inputs) {
                in[k] = readRow(r, i, rowScratch(k));
                ++k;
            }
            op(i, o + i * _n, in.data());
        }
        return chargeBaseOp(op_cost);
    }

    /**
     * Per-word transfer cost of one tree traversal (root<->leaf).
     * Cached at first use; emulating machines substitute their own
     * geometry by overriding computeTreeTraversalCost().
     */
    ModelTime
    treeTraversalCost() const
    {
        if (_traversalCost == kCostUnset)
            _traversalCost = computeTreeTraversalCost();
        return _traversalCost;
    }

    /** Per-word cost of a combining traversal (COUNT/SUM/MIN). */
    ModelTime
    treeReduceCost() const
    {
        if (_reduceCost == kCostUnset)
            _reduceCost = computeTreeReduceCost();
        return _reduceCost;
    }

    /** Charge an explicitly computed pipeline cost (pipedo blocks). */
    void charge(ModelTime dt) { _engine.charge(dt); }

    /**
     * Run `body` with the clock stopped, returning what it *would*
     * have charged (the sum of its chains).  Used by "pipedo" blocks:
     * the i-th instance of a pipelined computation repeats the work of
     * the first functionally, but only the pipeline separation is
     * charged for it (Section III-A).
     */
    ModelTime
    runUncharged(const std::function<void()> &body)
    {
        return _engine.runUncharged(body);
    }

    /**
     * Load a matrix into base register r, m(i, j) -> BP(i, j).  If
     * `charged`, models feeding N words through every row tree in a
     * pipeline with the given separation (default: word separation).
     */
    ModelTime loadBase(Reg r, const linalg::IntMatrix &m,
                       bool charged = true, ModelTime separation = 0);

    /** loadBase of a Boolean matrix: nonzero cells load as 1. */
    ModelTime loadBase(Reg r, const linalg::BoolMatrix &m,
                       bool charged = true, ModelTime separation = 0);

    /** loadBase of a matrix whose `absent` cells (a weight matrix's
     *  no-edge sentinel) load as kNull. */
    ModelTime loadBaseAbsent(Reg r, const linalg::IntMatrix &m,
                             std::uint64_t absent, bool charged = true,
                             ModelTime separation = 0);

    /** Read base register r back into a matrix (host-side view). */
    linalg::IntMatrix readBase(Reg r) const;

  protected:
    /**
     * Model time one base-processing step of nominal cost `op_cost`
     * actually takes on this machine.  The OTN runs the base at full
     * width (identity); emulating machines dilate it (the OTC
     * multiplies by the cycle length).  This is the one virtual
     * base-op hook: baseOp() and every batch base op charge through
     * it, so all formulations price base work identically.
     */
    virtual ModelTime
    baseOpCost(ModelTime op_cost) const
    {
        return op_cost;
    }

    /** Geometry-derived traversal cost; see treeTraversalCost(). */
    virtual ModelTime computeTreeTraversalCost() const;

    /** Geometry-derived combining cost; see treeReduceCost(). */
    virtual ModelTime computeTreeReduceCost() const;

  private:
    static constexpr ModelTime kCostUnset = ~ModelTime{0};

    /** The network's stat counters, one per primitive. */
    enum class Ctr : unsigned {
        RootToLeaf,
        LeafToRoot,
        CountLeafToRoot,
        SumLeafToRoot,
        MinLeafToRoot,
        LeafToLeaf,
        CountLeafToLeaf,
        PermuteLeafToLeaf,
        PrefixSumLeafToLeaf,
        BaseOp,
        Count,
    };

    /**
     * Counter `c`, looked up in the stat set on its first bump and
     * cached: the hot path builds no string and walks no map, and a
     * counter never bumped stays absent from stats().
     */
    sim::Counter &counter(Ctr c);

    /**
     * Count, trace and charge one per-tree primitive `c` of cost `dt`
     * on tree `idx` of `axis`, moving `words` through its root.
     */
    ModelTime chargeTree(Ctr c, ModelTime dt, Axis axis, std::size_t idx,
                         std::uint64_t words);

    /** Replay step of primitive `c` on one tree of `axis`. */
    sim::ChainEngine::ReplayStep treeStep(Ctr c, Axis axis, ModelTime dur);

    /** Replay step that only bumps `c` (a composite's own counter). */
    sim::ChainEngine::ReplayStep countStep(Ctr c);

    /** replayPardo over all N trees. */
    ModelTime
    replayTrees(std::initializer_list<sim::ChainEngine::ReplayStep> chain)
    {
        return _engine.replayPardo(_n, "otn", {chain.begin(), chain.size()});
    }

    /** Count, trace and charge one base step of nominal `op_cost`. */
    ModelTime chargeBaseOp(ModelTime op_cost);

    /** Replay of the row broadcast and of the column sums of a batch
     *  (their counters, spans and charges). */
    ModelTime replayRowBroadcast();
    ModelTime replayColSum();

    /** Write m into plane r with kNull padding (`word` converts a
     *  cell), then charge the load as loadBase does. */
    template <typename T, typename Word>
    ModelTime writeBase(Reg r, const linalg::Matrix<T> &m, Word &&word,
                        bool charged, ModelTime separation);

    /** Resolve (axis, idx, k) to a BP address. */
    std::pair<std::size_t, std::size_t>
    leafAddr(Axis axis, std::size_t idx, std::size_t k) const
    {
        return axis == Axis::Row ? std::make_pair(idx, k)
                                 : std::make_pair(k, idx);
    }

    /** Evaluate a flat selector at BP(i, j). */
    bool
    selected(const Sel &sel, std::size_t i, std::size_t j) const
    {
        switch (sel.kind()) {
        case Sel::Kind::All:
            return true;
        case Sel::Kind::None:
            return false;
        case Sel::Kind::Diag:
            return i == j;
        case Sel::Kind::RowIs:
            return i == sel.index();
        case Sel::Kind::ColIs:
            return j == sel.index();
        case Sel::Kind::EvenAlong:
            return (sel.axis() == Axis::Row ? j : i) % 2 == 0;
        case Sel::Kind::RegEq:
            return reg(sel.selReg(), i, j) == sel.value();
        }
        return false;
    }

    std::uint64_t &rootReg(Axis axis, std::size_t idx);

    /** Row i of register r's plane for writing (materializes r). */
    std::uint64_t *
    regRow(Reg r, std::size_t i)
    {
        assert(i < _n);
        return regPlane(r) + i * _n;
    }

    /** Row i of register r for reading, without materializing it
     *  (simd::RegFile::row; `buf` holds n words). */
    const std::uint64_t *readRow(Reg r, std::size_t i,
                                 std::uint64_t *buf) const;

    /** Row buffers per host thread: one per input of a row-wise op. */
    static constexpr unsigned kRowScratchBufs = 3;

    /** Per-host-thread row buffer `which` (< kRowScratchBufs) of n
     *  words. */
    std::uint64_t *
    rowScratch(unsigned which) const
    {
        thread_local std::vector<std::uint64_t> bufs[kRowScratchBufs];
        bufs[which].resize(_n);
        return bufs[which].data();
    }

    /**
     * Plane `out`, about to be overwritten whole from `inputs`
     * (simd::RegFile::overwrite: materialized only if also an input).
     */
    std::uint64_t *overwritePlane(Reg out, std::initializer_list<Reg> inputs);

    /** Tag plane r `shape` and return its two shape vectors. */
    std::uint64_t *
    tagPlane(Reg r, simd::Shape shape)
    {
        return _regs.tag(static_cast<unsigned>(r), shape);
    }

    /** Tag plane r RowConst or ColConst with the n words of `v`. */
    void tagConst(Reg r, simd::Shape shape, const std::uint64_t *v);

    /**
     * Level-by-level combining reduction up one tree; `combine` is
     * applied by each IP to its two sons' values (kNull = absent).
     * `leaf_value(k)` yields the word contributed by leaf k.
     */
    template <typename LeafValue, typename Combine>
    std::uint64_t reduceTree(LeafValue &&leaf_value, Combine &&combine);

    std::size_t _n;
    CostModel _cost;
    layout::OtnLayout _layout;
    TimeAccountant _acct;
    sim::StatSet _stats;
    sim::ChainEngine _engine;
    std::array<sim::Counter *, static_cast<std::size_t>(Ctr::Count)>
        _counters{};

    mutable ModelTime _traversalCost = kCostUnset;
    mutable ModelTime _reduceCost = kCostUnset;

    simd::Backend _backend;
    const simd::KernelTable *_kernels;
    // Mutable because materializing is invisible to readers: a const
    // access that needs raw words (regPlane, readBase) expands first.
    // Const members read through std::as_const(_regs), so they never
    // mark a plane dirty by accident.
    mutable simd::RegFile _regs;
    std::vector<std::uint64_t> _rowRoot;
    std::vector<std::uint64_t> _colRoot;
};

} // namespace ot::otn
