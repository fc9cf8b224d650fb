#include "src/cluster/provisioner.hpp"

namespace paldia::cluster {

void Provisioner::procure(hw::NodeType type,
                          std::function<void(hw::NodeType)> on_ready) {
  simulator_->schedule_in(
      config_.procurement_delay_ms,
      [type, on_ready = std::move(on_ready)] { on_ready(type); });
}

}  // namespace paldia::cluster
