#include "otn/patterns.hh"

namespace ot::otn {

ModelTime
diagToRows(OrthogonalTreesNetwork &net, Reg src, Reg dst)
{
    // Batch form of: for each row i pardo
    //   leafToLeaf(Row, i, diag, src, all, dst).
    return net.batchDiagToRows(src, dst);
}

ModelTime
diagToCols(OrthogonalTreesNetwork &net, Reg src, Reg dst)
{
    // Batch form of: for each col j pardo
    //   leafToLeaf(Col, j, diag, src, all, dst).
    return net.batchDiagToCols(src, dst);
}

ModelTime
gatherAtIndex(OrthogonalTreesNetwork &net, Reg key_by_row, Reg val_by_col,
              Reg out, Reg scratch)
{
    ModelTime dt = 0;

    // Each BP checks whether it sits at (i, key(i)); the selected BP
    // copies the column-broadcast value into the scratch register.
    dt += net.batchSelectValAtKeyIndex(key_by_row, val_by_col, scratch);

    // Row reduction brings the (unique or absent) value to the root,
    // and the root writes it back to the diagonal.
    dt += net.batchMinRowsToLeaves(scratch, Sel::diag(), out);
    return dt;
}

} // namespace ot::otn
