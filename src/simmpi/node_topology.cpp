#include "simmpi/node_topology.hpp"

#include "util/error.hpp"

namespace dsouth::simmpi {

NodeTopology NodeTopology::ranks_per_node(int num_ranks, int ranks_per_node) {
  DSOUTH_CHECK(num_ranks >= 1);
  DSOUTH_CHECK_MSG(ranks_per_node >= 1,
                   "ranks_per_node must be >= 1, got " << ranks_per_node);
  return NodeTopology(num_ranks, ranks_per_node);
}

}  // namespace dsouth::simmpi
