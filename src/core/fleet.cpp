#include "src/core/fleet.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "src/common/rng.hpp"
#include "src/trace/trace.hpp"

namespace paldia::core {

std::vector<std::vector<int>> slice_catalog(const hw::Catalog& catalog,
                                            int endpoints) {
  assert(endpoints >= 1);
  std::vector<std::vector<int>> slices(static_cast<std::size_t>(endpoints));
  // Deal CPUs first so truncation to kNodeTypeCount can never evict a
  // slice's only CPU node (slices are started on their cheapest CPU).
  int dealt_cpu = 0;
  int dealt_gpu = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const bool want_gpu = pass == 1;
    for (int i = 0; i < static_cast<int>(catalog.size()); ++i) {
      if (catalog.spec(hw::NodeType(i)).is_gpu() != want_gpu) continue;
      int& dealt = want_gpu ? dealt_gpu : dealt_cpu;
      slices[static_cast<std::size_t>(dealt % endpoints)].push_back(i);
      ++dealt;
    }
  }
  for (auto& slice : slices) {
    if (static_cast<int>(slice.size()) > hw::kNodeTypeCount) {
      slice.resize(static_cast<std::size_t>(hw::kNodeTypeCount));
    }
    std::sort(slice.begin(), slice.end());
  }
  return slices;
}

int Fleet::route(std::uint64_t route_seed, std::uint64_t sequence,
                 int endpoints) {
  std::uint64_t state = route_seed ^ sequence;
  return static_cast<int>(splitmix64(state) %
                          static_cast<std::uint64_t>(endpoints));
}

Fleet::Fleet(sim::Simulator& simulator, Rng rng, const models::Zoo& zoo,
             const hw::Catalog& global_catalog, FleetConfig config,
             PolicyFactory make_policy, ConfigureFn configure)
    : simulator_(&simulator), config_(config) {
  assert(config.endpoints >= 1);
  assert(make_policy != nullptr);
  const auto slices = slice_catalog(global_catalog, config.endpoints);
  for (int e = 0; e < config.endpoints; ++e) {
    if (!slices[static_cast<std::size_t>(e)].empty()) continue;
    const auto gpus = global_catalog.gpus_by_capability_ascending().size();
    const auto cpus = global_catalog.size() - gpus;
    throw std::invalid_argument(
        "fleet endpoint " + std::to_string(e) +
        " gets no nodes: the catalog has " + std::to_string(cpus) + " CPU and " +
        std::to_string(gpus) + " GPU nodes, so a fleet takes at most " +
        std::to_string(std::max(cpus, gpus)) + " endpoints");
  }
  endpoints_.reserve(static_cast<std::size_t>(config.endpoints));
  for (int e = 0; e < config.endpoints; ++e) {
    Endpoint endpoint;
    endpoint.id = e;
    endpoint.global_nodes = slices[static_cast<std::size_t>(e)];

    std::vector<hw::NodeSpec> specs;
    specs.reserve(endpoint.global_nodes.size());
    for (const int node : endpoint.global_nodes) {
      specs.push_back(global_catalog.spec(hw::NodeType(node)));
    }
    endpoint.catalog = std::make_unique<hw::Catalog>(std::move(specs));
    endpoint.profile = std::make_unique<models::ProfileTable>(*endpoint.catalog);

    // Endpoints share no mutable state and schedule only their own events,
    // so each drains its own partition in the order one shared queue would
    // give it.
    sim::Simulator& partition = simulator.add_partition();
    endpoint.cluster = std::make_unique<cluster::Cluster>(
        partition, rng.fork("fleet-cluster-" + std::to_string(e)), zoo,
        *endpoint.catalog, config_.cluster);

    FrameworkConfig framework_config = config_.framework;
    framework_config.endpoint_id = e;
    if (!framework_config.initial_node.has_value()) {
      // Cheapest node of the slice; the dealing order guarantees a CPU
      // node while the catalog has one per endpoint.
      framework_config.initial_node = endpoint.catalog->by_cost_ascending().front();
    }
    if (configure) configure(e, *endpoint.catalog, framework_config);

    endpoint.framework = std::make_unique<Framework>(
        partition, *endpoint.cluster,
        make_policy(e, *endpoint.catalog, *endpoint.profile),
        rng.fork("fleet-framework-" + std::to_string(e)), zoo,
        framework_config);
    endpoints_.push_back(std::move(endpoint));
  }
}

Fleet::~Fleet() = default;

void Fleet::add_workload(models::ModelId model,
                         const trace::Trace& global_trace) {
  const int count = endpoint_count();
  // Per-endpoint arrival counts per epoch: route every arrival of the
  // global trace in sequence order. The sequence is per model and runs
  // across epochs, so the split is independent of epoch boundaries.
  std::vector<std::vector<std::uint32_t>> counts(
      static_cast<std::size_t>(count),
      std::vector<std::uint32_t>(global_trace.epoch_count(), 0));
  std::uint64_t state = config_.route_seed + static_cast<std::uint64_t>(model);
  const std::uint64_t model_seed = splitmix64(state);
  std::uint64_t sequence = 0;
  for (std::size_t epoch = 0; epoch < global_trace.epoch_count(); ++epoch) {
    for (std::uint32_t k = 0; k < global_trace.count_at(epoch); ++k) {
      const int target = route(model_seed, sequence++, count);
      ++counts[static_cast<std::size_t>(target)][epoch];
    }
  }
  for (int e = 0; e < count; ++e) {
    auto& endpoint = endpoints_[static_cast<std::size_t>(e)];
    trace::Trace sub(global_trace.name() + "-e" + std::to_string(e),
                     global_trace.epoch_ms(),
                     std::move(counts[static_cast<std::size_t>(e)]));
    endpoint.requests += sub.total_requests();
    total_requests_ += sub.total_requests();
    endpoint.framework->add_workload(model, std::move(sub));
  }
}

TimeMs Fleet::hard_end() const {
  TimeMs end = 0.0;
  for (const auto& endpoint : endpoints_) {
    end = std::max(end, endpoint.framework->hard_end());
  }
  return end;
}

TimeMs Fleet::run() {
  for (auto& endpoint : endpoints_) endpoint.framework->begin_run();
  const TimeMs end = simulator_->run_until(hard_end());
  for (auto& endpoint : endpoints_) endpoint.framework->finish_run(end);
  return end;
}

}  // namespace paldia::core
