// Per-operation host costs of single layers, timed through each layer's
// public functions at the sizes a workload reached. Traced rounds multiply
// them by the operation counts the program reports to build the ladders:
// the sum over layers next to the measured time, with the residual named.
#pragma once

#include <cstddef>
#include <cstdint>

#include "hashtree/tree.hpp"
#include "sim/time.hpp"

namespace perfbench {

/// sim: one event scheduled and executed with `pending` other events queued.
double event_ns(std::size_t pending);

/// platform: one one-way message sent and dispatched between two agents on
/// two nodes (network hop, inbox, service, handler), and how many simulator
/// events each message costs.
struct DispatchCost {
  double ns_per_message = 0.0;
  double events_per_message = 0.0;
};
DispatchCost send_dispatch_cost(agentloc::sim::SimTime service_time);

/// hashtree: one `lookup_id` on a copy of `tree`.
double tree_lookup_ns(const agentloc::hashtree::HashTree& tree);
/// hashtree: one mutation (a simple split or the merge that undoes it) on a
/// copy of `tree`.
double tree_mutation_ns(const agentloc::hashtree::HashTree& tree);

/// core: one newest-seq-wins `LocationTable::apply` on a table holding
/// `entries` bindings.
double table_apply_ns(std::size_t entries);

/// net: one kLocate frame encoded / decoded by the frame codec.
double frame_encode_ns();
double frame_decode_ns();

/// net: `LocateDirectory` costs at `partitions` leaves and `bindings` held:
/// routing an id to its partition, a locate probe and an update.
struct DirectoryCost {
  double route_ns = 0.0;
  double locate_ns = 0.0;
  double update_ns = 0.0;
};
DirectoryCost directory_cost(std::size_t partitions, std::size_t bindings);

}  // namespace perfbench
