// otcheck:fixture-path src/sim/fixture_bad_layering.cc
//
// Known-bad layering fixture: a src/sim file reaching *up* the layer
// DAG.  sim may include only sim/, trace/ and vlsi/ (see DESIGN.md);
// everything else below is a back-edge, and the umbrella header is
// banned everywhere inside src/.
#include "sim/time_accountant.hh"
#include "vlsi/delay.hh"

#include "graph/graph.hh"         // expect: layering
#include "layout/geometry.hh"     // expect: layering
#include "orthotree/orthotree.hh" // expect: layering
#include "otc/network.hh"         // expect: layering
#include "otn/sort.hh"            // expect: layering

int
fixtureUnused()
{
    return 0;
}
