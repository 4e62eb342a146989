/**
 * @file
 * Matrix algorithms on the OTN (Section III-A of the paper).
 *
 * The building block is the vector-matrix product: with B stored in
 * the base (b(k, j) in BP(k, j)), a vector entering at the row roots
 * is broadcast down the row trees, multiplied pointwise, and summed up
 * the column trees — O(log^2 N) per vector.
 *
 * A full product A * B is the N vector products A_i * B executed
 * "pipedo": successive rows of A enter the network O(log N) time
 * apart, so the total time is O(N log N + log^2 N) (Section III-A),
 * with result rows emerging at the output ports every O(log N) units.
 *
 * For Boolean matrices the word shrinks to one bit, the pipeline
 * separation drops to O(1), and — Section VI-B / Table II — a larger
 * machine (one OTN block per row of A, the simulation of the
 * (N^2 x N^2)-OTN) reaches O(log^2 N) total time.  That variant is
 * boolMatMulReplicated below.
 *
 * The host computes the data of a whole-matrix product's N vector
 * products in one pass and replays each product's accounting, which
 * does not depend on the data; only the last product runs the
 * register data path, so the machine ends in the state the per-row
 * formulation leaves.
 */

#pragma once

#include "linalg/matrix.hh"
#include "otn/network.hh"

namespace ot::otn {

/** Outcome of a matrix product run on the machine. */
struct MatMulResult
{
    linalg::IntMatrix product;
    /** Model time for the whole (pipelined) computation. */
    ModelTime time = 0;
    /** Model time from first input to first output row. */
    ModelTime firstRowLatency = 0;
    /** Model time between successive output rows (pipeline beat). */
    ModelTime rowInterval = 0;
};

/**
 * VECTORMATRIXMULT-OTN: c = a * B on an OTN whose base already holds
 * B in register B.  `a` enters at the row roots; the result appears at
 * the column roots.  Returns the product and charges O(log^2 N).
 */
std::vector<std::uint64_t> vecMatMulOtn(OrthogonalTreesNetwork &net,
                                        const std::vector<std::uint64_t> &a);

/**
 * MATRIXMULT-OTN: C = A * B by pipelining the N vector products
 * (Section III-A "pipedo").  Builds on an (n x n)-OTN where
 * n = A.rows() = B side.
 */
MatMulResult matMulPipelined(OrthogonalTreesNetwork &net,
                             const linalg::IntMatrix &a,
                             const linalg::IntMatrix &b);

/**
 * Boolean MATRIXMULT on the OTN with the same pipeline but O(1)
 * element separation (entries are single bits): O(N + log^2 N) time.
 */
MatMulResult boolMatMulPipelined(OrthogonalTreesNetwork &net,
                                 const linalg::BoolMatrix &a,
                                 const linalg::BoolMatrix &b);

/** Result of a pipelined stream of matrix products. */
struct MatMulStreamResult
{
    /** Per-matrix products, in submission order. */
    std::vector<linalg::IntMatrix> products;
    /** Model time from first input to last output. */
    ModelTime totalTime = 0;
    /** Beat between successive *matrices* once the pipe is full. */
    ModelTime matrixInterval = 0;
};

/**
 * Section VIII applied to matrix multiplication: a stream of matrices
 * A_0, A_1, ... against the resident B.  Within one product the rows
 * ride the Section III-A pipeline; across products, A_{i+1}'s first
 * row follows A_i's last row one word-beat later, so the machine emits
 * one product every ~N log N with a single fill latency up front.
 */
MatMulStreamResult matMulStream(OrthogonalTreesNetwork &net,
                                const std::vector<linalg::IntMatrix> &as,
                                const linalg::IntMatrix &b);

/**
 * The Table II machine: N OTN blocks working on all rows of A
 * simultaneously (the practical simulation of the (N^2 x N^2)-OTN /
 * big-OTC construction).  All vector products run in parallel; the
 * charged time is the broadcast of B to the blocks (a pipelined
 * O(log^2 N) distribution) plus ONE vector product: O(log^2 N) total.
 * The simulation reuses a single physical block for every row, which
 * is exact because the products are independent.
 */
MatMulResult boolMatMulReplicated(OrthogonalTreesNetwork &block,
                                  const linalg::BoolMatrix &a,
                                  const linalg::BoolMatrix &b);

} // namespace ot::otn
