// otcheck:fixture-path src/topo/fixture_good_layering.cc
//
// Known-good layering fixture for the topology plugin layer: src/topo
// sits between the orthogonal-tree simulators and the workload
// engine, so it may include the OTN and OTC simulators and every layer
// below them.  Must check clean.
#include "topo/machine.hh"

#include <cstdint>

#include "graph/graph.hh"
#include "layout/baseline_layouts.hh"
#include "layout/geometry.hh"
#include "linalg/matrix.hh"
#include "otc/network.hh"
#include "otn/network.hh"
#include "sim/time_accountant.hh"
#include "simd/kernels.hh"
#include "trace/tracer.hh"
#include "vlsi/delay.hh"

int
fixtureUnused()
{
    return 0;
}
