// VM/hardware procurement. Acquiring a node type launches a VM on it after
// a procurement delay (the paper sizes its prediction lookahead, ~4 s, "so
// as to allow enough time to acquire the hardware"). Acquisition happens in
// the background while current hardware keeps serving (Section IV-A).
#pragma once

#include <functional>

#include "src/common/units.hpp"
#include "src/hw/node_spec.hpp"
#include "src/sim/simulator.hpp"

namespace paldia::cluster {

struct ProvisionerConfig {
  DurationMs procurement_delay_ms = 4000.0;
};

class Provisioner {
 public:
  Provisioner(sim::Simulator& simulator, ProvisionerConfig config = {})
      : simulator_(&simulator), config_(config) {}

  /// Begin procuring the node type; on_ready fires after the delay.
  void procure(hw::NodeType type, std::function<void(hw::NodeType)> on_ready);

  DurationMs procurement_delay_ms() const { return config_.procurement_delay_ms; }

 private:
  sim::Simulator* simulator_;
  ProvisionerConfig config_;
};

}  // namespace paldia::cluster
