// otcheck:fixture-path src/topo/fixture_bad_layering.cc
//
// Known-bad layering fixture: the topology layer reaching *up* the
// layer DAG into its own consumers.  topo may not include workload/
// or scenario/ (they depend on it), nor analysis/ or the umbrella
// header.
#include "topo/machine.hh"
#include "vlsi/delay.hh"

#include "analysis/table.hh"      // expect: layering
#include "orthotree/orthotree.hh" // expect: layering
#include "scenario/spec.hh"       // expect: layering
#include "workload/engine.hh"     // expect: layering

int
fixtureUnused()
{
    return 0;
}
