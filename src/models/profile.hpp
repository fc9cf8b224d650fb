// Performance envelopes: isolated batch latency and FBR of each model on
// each hardware type, as a function of batch size.
//
// This is the information the paper's provider obtains "through profiling
// the workloads over time" (Section III). The analytic form lives here; the
// Profiler (profiler.hpp) additionally verifies it against the simulated
// devices, mirroring how a real deployment would fill these tables from
// measurements.
//
// GPU model:
//   solo(bs)  = solo_v100 * (1 / gpu.speed) * scale(bs) * stretch
//   scale(bs) = fixed_fraction + (1 - fixed_fraction) * bs / max_batch
//   fbr(bs)   = min(0.95, fbr_raw),    and when fbr_raw > 0.95 the batch is
//               bandwidth-bound even solo, so solo stretches by
//               fbr_raw / 0.95 (stretch above).
//   fbr_raw   = fbr_v100 * (gpu.speed * v100.bandwidth / gpu.bandwidth)
//               * fbr_scale(bs),  fbr_scale = 0.6 + 0.4 * bs / max_batch.
// The gpu.speed factor models that a faster GPU issues memory traffic
// proportionally faster; dividing by the GPU's own bandwidth converts the
// demand into the fraction of *that* device's bandwidth.
//
// CPU model (framework batched CPU mode):
//   solo(bs) = fixed + cpu_per_item * bs * (ref_vcpus / vcpus)^0.85
//              / per_core_speed
// with ref_vcpus = 16 (c6i.4xlarge) and imperfect scaling exponent 0.85.
#pragma once

#include <vector>

#include "src/hw/catalog.hpp"
#include "src/hw/node_spec.hpp"
#include "src/models/model_spec.hpp"

namespace paldia::models {

inline constexpr double kMaxFbr = 0.95;
inline constexpr double kV100Bandwidth = 900.0;
inline constexpr double kCpuRefVcpus = 16.0;
inline constexpr double kCpuScalingExponent = 0.85;
inline constexpr DurationMs kCpuFixedOverheadMs = 8.0;

/// Isolated execution time of a `bs`-sized batch on the given GPU.
DurationMs gpu_solo_ms(const ModelSpec& model, const hw::GpuSpec& gpu, int bs);

/// FBR of a `bs`-sized batch on the given GPU (capped at kMaxFbr).
double gpu_fbr(const ModelSpec& model, const hw::GpuSpec& gpu, int bs);

/// Compute (SM) occupancy fraction of a `bs`-sized batch on the given GPU:
///   compute_v100 * (v100.speed / gpu.speed) * (0.3 + 0.7 * bs / max_batch)
/// capped just below 1 — a weaker GPU is occupied proportionally more by
/// the same batch, and small batches leave SMs idle (what MPS recovers).
double gpu_compute(const ModelSpec& model, const hw::GpuSpec& gpu, int bs);

inline constexpr double kMaxCompute = 0.98;

/// Isolated execution time of a `bs`-sized batch in the CPU batched mode.
DurationMs cpu_solo_ms(const ModelSpec& model, const hw::CpuSpec& cpu, int bs);

/// One profiled operating point.
struct ProfileEntry {
  DurationMs solo_ms = 0.0;
  double fbr = 0.0;      // 0 for CPU nodes (no MPS concept there)
  double compute = 0.0;  // SM occupancy fraction; 0 for CPU nodes
};

/// Profile lookup across the whole catalog: a facade over the analytic
/// envelopes that evaluates each node's batch-independent constant (the CPU
/// core penalty) once, at construction. The Profiler can overwrite entries
/// with measured values (calibration), which is why it is a class and not
/// free functions.
class ProfileTable {
 public:
  explicit ProfileTable(const hw::Catalog& catalog = hw::Catalog::instance());

  ProfileEntry lookup(const ModelSpec& model, hw::NodeType node, int bs) const;

  /// lookup(model, node, bs).solo_ms without the FBR and compute terms.
  DurationMs solo_ms(const ModelSpec& model, hw::NodeType node, int bs) const;

  /// Max batch size whose isolated latency fits within `budget_ms` on the
  /// node; 0 when even a single request does not fit.
  ///
  /// Binary search. It relies on solo_ms(model, node, bs) never decreasing
  /// as bs grows, which holds on GPU and CPU nodes for non-negative model
  /// and silicon parameters: every operation in the envelopes is monotone
  /// under IEEE rounding. The answer is therefore the one a linear prefix
  /// scan over 1..max_batch gives, for any budget (NaN fits nothing).
  int max_batch_within(const ModelSpec& model, hw::NodeType node,
                       DurationMs budget_ms) const;

  /// Isolated steady-state throughput (requests/s) at the best batch size
  /// no larger than the model max. Used to prune the hardware pool.
  Rps peak_solo_throughput(const ModelSpec& model, hw::NodeType node) const;

  const hw::Catalog& catalog() const { return *catalog_; }

  /// Table over the default catalog, shared like Catalog::instance().
  static const ProfileTable& instance();

 private:
  const hw::Catalog* catalog_;
  /// Per node type: (kCpuRefVcpus / vcpus)^kCpuScalingExponent of its CPU.
  std::vector<double> cpu_core_penalty_;
};

}  // namespace paldia::models
