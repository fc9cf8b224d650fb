#include "src/hw/catalog.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace paldia::hw {

namespace {

std::vector<NodeSpec> default_specs() {
  std::vector<NodeSpec> specs(kNodeTypeCount);

  // GPU nodes. Host CPUs on GPU instances run request plumbing only; their
  // inference role is nil, but they contribute to the power model.
  specs[static_cast<int>(NodeType::kP3_2xlarge)] = NodeSpec{
      .instance = "p3.2xlarge",
      .kind = DeviceKind::kGpu,
      .price_per_hour = 3.06,
      .cpu = CpuSpec{"Intel Broadwell", 8, 0.75, 35.0, 105.0},
      .gpu = GpuSpec{"V100", 1.0, 900.0, GiB(16), 80, 55.0, 300.0},
      .family = "nvidia-volta",
  };
  specs[static_cast<int>(NodeType::kP2_xlarge)] = NodeSpec{
      .instance = "p2.xlarge",
      .kind = DeviceKind::kGpu,
      .price_per_hour = 0.90,
      .cpu = CpuSpec{"Intel Broadwell", 4, 0.75, 25.0, 70.0},
      .gpu = GpuSpec{"K80", 0.20, 240.0, GiB(12), 13, 62.0, 149.0},
      .family = "nvidia-kepler",
  };
  specs[static_cast<int>(NodeType::kG3s_xlarge)] = NodeSpec{
      .instance = "g3s.xlarge",
      .kind = DeviceKind::kGpu,
      .price_per_hour = 0.75,
      .cpu = CpuSpec{"Intel Broadwell", 4, 0.75, 25.0, 70.0},
      .gpu = GpuSpec{"M60", 0.30, 160.0, GiB(8), 16, 40.0, 150.0},
      .family = "nvidia-maxwell",
  };

  // CPU-only nodes.
  specs[static_cast<int>(NodeType::kC6i_4xlarge)] = NodeSpec{
      .instance = "c6i.4xlarge",
      .kind = DeviceKind::kCpu,
      .price_per_hour = 0.68,
      .cpu = CpuSpec{"Intel IceLake", 16, 1.0, 45.0, 180.0},
      .gpu = std::nullopt,
      .family = "intel-icelake",
  };
  specs[static_cast<int>(NodeType::kC6i_2xlarge)] = NodeSpec{
      .instance = "c6i.2xlarge",
      .kind = DeviceKind::kCpu,
      .price_per_hour = 0.34,
      .cpu = CpuSpec{"Intel IceLake", 8, 1.0, 30.0, 110.0},
      .gpu = std::nullopt,
      .family = "intel-icelake",
  };
  // The paper's Table II lists m4.xlarge with 2 vCPUs; we follow the paper.
  specs[static_cast<int>(NodeType::kM4_xlarge)] = NodeSpec{
      .instance = "m4.xlarge",
      .kind = DeviceKind::kCpu,
      .price_per_hour = 0.20,
      .cpu = CpuSpec{"Intel Broadwell", 2, 0.72, 20.0, 65.0},
      .gpu = std::nullopt,
      .family = "intel-broadwell",
  };
  return specs;
}

}  // namespace

Catalog::Catalog() : specs_(default_specs()) { build_indexes(); }

Catalog::Catalog(std::vector<NodeSpec> specs) : specs_(std::move(specs)) {
  if (specs_.empty()) throw std::invalid_argument("catalog requires at least one spec");
  build_indexes();
}

const NodeSpec& Catalog::spec(NodeType type) const {
  const auto index = static_cast<std::size_t>(type);
  assert(index < specs_.size());
  return specs_[index];
}

void Catalog::build_indexes() {
  cost_ascending_.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) cost_ascending_.push_back(NodeType(i));
  std::sort(cost_ascending_.begin(), cost_ascending_.end(),
            [this](NodeType a, NodeType b) {
              const Dollars pa = spec(a).price_per_hour;
              const Dollars pb = spec(b).price_per_hour;
              if (pa != pb) return pa < pb;
              return node_index(a) < node_index(b);
            });

  for (NodeType type : cost_ascending_) {
    if (spec(type).is_gpu()) gpus_by_capability_.push_back(type);
  }
  std::sort(gpus_by_capability_.begin(), gpus_by_capability_.end(),
            [this](NodeType a, NodeType b) {
              const double sa = spec(a).gpu->speed;
              const double sb = spec(b).gpu->speed;
              if (sa != sb) return sa < sb;
              return node_index(a) < node_index(b);
            });
  if (!gpus_by_capability_.empty()) most_performant_gpu_ = gpus_by_capability_.back();
}

const Catalog& Catalog::instance() {
  static const Catalog catalog;
  return catalog;
}

}  // namespace paldia::hw
