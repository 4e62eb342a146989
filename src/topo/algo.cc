#include "topo/algo.hh"

namespace ot::topo {

const char *
toString(Algo algo)
{
    switch (algo) {
      case Algo::Sort:
        return "sort";
      case Algo::MatMul:
        return "matmul";
      case Algo::BoolMatMul:
        return "boolmm";
      case Algo::ConnectedComponents:
        return "cc";
      case Algo::Mst:
        return "mst";
      case Algo::ShortestPaths:
        return "sssp";
    }
    return "?";
}

bool
algoFromString(const std::string &s, Algo &out)
{
    for (Algo algo : allAlgos()) {
        if (s == toString(algo)) {
            out = algo;
            return true;
        }
    }
    return false;
}

std::string
shortName(vlsi::DelayModel model)
{
    switch (model) {
      case vlsi::DelayModel::Constant:
        return "const";
      case vlsi::DelayModel::Logarithmic:
        return "log";
      case vlsi::DelayModel::Linear:
        return "linear";
    }
    return "?";
}

bool
modelFromShortName(const std::string &s, vlsi::DelayModel &out)
{
    for (vlsi::DelayModel model :
         {vlsi::DelayModel::Constant, vlsi::DelayModel::Logarithmic,
          vlsi::DelayModel::Linear}) {
        if (s == shortName(model)) {
            out = model;
            return true;
        }
    }
    return false;
}

} // namespace ot::topo
