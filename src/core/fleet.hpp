// Multi-gateway fleet simulation: E independent serving loops (endpoints)
// over one shared simulator and one global node catalog. Each endpoint owns
// a gateway + scheduler policy + autoscaler + trackers over a small *slice*
// of the catalog (at most hw::kNodeTypeCount nodes, so every fixed-size
// telemetry path keeps working), and all endpoints advance in lockstep
// through the shared event queue — one run_until drives the whole fleet.
//
// Determinism contract:
//   * Request ids are globally unique across gateways: endpoint e's
//     IdAllocator tags every id with e in the high bits
//     (cluster::IdAllocator), so tracing, sampling and attribution never
//     alias across endpoints. Endpoint 0's ids are bit-identical to a
//     standalone Framework's.
//   * Routing is a pure function of (route_seed, model, arrival sequence):
//     request k of a model goes to endpoint splitmix64(seed ^ k) % E,
//     precomputed into per-endpoint sub-traces before the run. No event
//     ordering or thread count can change it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.hpp"
#include "src/core/framework.hpp"
#include "src/hw/catalog.hpp"
#include "src/models/profile.hpp"

namespace paldia::core {

struct FleetConfig {
  /// Serving endpoints (gateways). Must be >= 1 and at most the larger of
  /// the global catalog's CPU and GPU node counts: slice_catalog leaves
  /// every later slice empty, and Fleet throws std::invalid_argument. An
  /// endpoint past the CPU count gets no CPU node and starts on a GPU.
  int endpoints = 4;
  /// Seed of the splitmix64 request router.
  std::uint64_t route_seed = 0x9a1d1a;
  /// Per-endpoint serving template. endpoint_id is overwritten per
  /// endpoint; the observability pointers can be redirected per endpoint
  /// via the configure callback.
  FrameworkConfig framework;
  /// Per-endpoint cluster template.
  cluster::ClusterConfig cluster;
};

class Fleet {
 public:
  /// Builds endpoint e's scheduler policy over its slice catalog/profile.
  using PolicyFactory = std::function<std::unique_ptr<SchedulerPolicy>(
      int endpoint, const hw::Catalog& slice,
      const models::ProfileTable& profile)>;
  /// Optional per-endpoint hook run before the endpoint's Framework is
  /// built — redirect tracer/rollup/health/profiler slots or pick a
  /// slice-aware initial node here.
  using ConfigureFn = std::function<void(int endpoint, const hw::Catalog& slice,
                                         FrameworkConfig&)>;

  /// Throws std::invalid_argument when an endpoint's slice is empty (more
  /// endpoints than the catalog's CPU or GPU nodes; see
  /// FleetConfig::endpoints).
  Fleet(sim::Simulator& simulator, Rng rng, const models::Zoo& zoo,
        const hw::Catalog& global_catalog, FleetConfig config,
        PolicyFactory make_policy, ConfigureFn configure = nullptr);
  ~Fleet();

  /// Endpoint serving the k-th arrival of a model: splitmix64(seed ^ k) % E.
  static int route(std::uint64_t route_seed, std::uint64_t sequence,
                   int endpoints);

  /// Register a fleet-wide workload: the global trace is split into one
  /// sub-trace per endpoint by routing each arrival in sequence order.
  /// Every endpoint serves the model (possibly with an all-zero trace).
  void add_workload(models::ModelId model, const trace::Trace& global_trace);

  /// Run every endpoint to completion over the shared simulator; returns
  /// the simulated end time.
  TimeMs run();

  /// Latest hard drain deadline across endpoints. Valid after
  /// add_workload().
  TimeMs hard_end() const;

  int endpoint_count() const { return static_cast<int>(endpoints_.size()); }
  Framework& framework(int endpoint) { return *endpoints_[endpoint].framework; }
  const Framework& framework(int endpoint) const {
    return *endpoints_[endpoint].framework;
  }
  cluster::Cluster& cluster(int endpoint) { return *endpoints_[endpoint].cluster; }
  const hw::Catalog& slice(int endpoint) const {
    return *endpoints_[endpoint].catalog;
  }
  /// Global-catalog indices backing the endpoint's slice, ascending.
  const std::vector<int>& slice_nodes(int endpoint) const {
    return endpoints_[endpoint].global_nodes;
  }

  /// Requests routed so far, fleet-wide and per endpoint.
  std::uint64_t total_requests() const { return total_requests_; }
  std::uint64_t endpoint_requests(int endpoint) const {
    return endpoints_[endpoint].requests;
  }

 private:
  struct Endpoint {
    int id = 0;
    std::uint64_t requests = 0;
    std::vector<int> global_nodes;
    // unique_ptr keeps addresses stable: the profile, cluster and policies
    // hold pointers into the slice catalog. Declaration order matters for
    // teardown: the cluster must be destroyed BEFORE the framework, because
    // in-flight device jobs hold request blocks carved from the framework's
    // arena — so `cluster` is declared after `framework` (members are
    // destroyed in reverse declaration order). A run stopped before the
    // drain completes (benchmark stepping, hard caps) hits this.
    std::unique_ptr<hw::Catalog> catalog;
    std::unique_ptr<models::ProfileTable> profile;
    std::unique_ptr<Framework> framework;
    std::unique_ptr<cluster::Cluster> cluster;
  };

  sim::Simulator* simulator_;
  FleetConfig config_;
  std::vector<Endpoint> endpoints_;
  std::uint64_t total_requests_ = 0;
};

/// Partition a catalog's node indices into `endpoints` slices of at most
/// hw::kNodeTypeCount nodes each: CPU nodes are dealt round-robin first
/// (so every slice gets one while supplies last), then GPU nodes; each
/// slice keeps its first hw::kNodeTypeCount cards and sorts them by global
/// index. Exposed for tests and for fleet drivers that report placement.
std::vector<std::vector<int>> slice_catalog(const hw::Catalog& catalog,
                                            int endpoints);

}  // namespace paldia::core
