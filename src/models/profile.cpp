#include "src/models/profile.hpp"

#include <algorithm>
#include <cmath>
#include <ranges>

namespace paldia::models {

namespace {

double batch_scale(const ModelSpec& model, int bs) {
  const double frac = std::clamp(static_cast<double>(bs) / model.max_batch, 0.0, 1.0);
  return model.fixed_fraction + (1.0 - model.fixed_fraction) * frac;
}

double fbr_scale(const ModelSpec& model, int bs) {
  const double frac = std::clamp(static_cast<double>(bs) / model.max_batch, 0.0, 1.0);
  return 0.6 + 0.4 * frac;
}

double raw_fbr(const ModelSpec& model, const hw::GpuSpec& gpu, int bs) {
  return model.fbr_v100 * (gpu.speed * kV100Bandwidth / gpu.mem_bandwidth_gbps) *
         fbr_scale(model, bs);
}

double cpu_core_penalty(const hw::CpuSpec& cpu) {
  return std::pow(kCpuRefVcpus / static_cast<double>(cpu.vcpus), kCpuScalingExponent);
}

DurationMs cpu_solo_with_penalty(const ModelSpec& model, const hw::CpuSpec& cpu,
                                 int bs, double core_penalty) {
  bs = std::max(bs, 1);
  return kCpuFixedOverheadMs +
         model.cpu_per_item_ms * static_cast<double>(bs) * core_penalty /
             cpu.per_core_speed;
}

}  // namespace

DurationMs gpu_solo_ms(const ModelSpec& model, const hw::GpuSpec& gpu, int bs) {
  bs = std::clamp(bs, 1, model.max_batch);
  double solo = model.solo_v100_ms * (1.0 / gpu.speed) * batch_scale(model, bs);
  const double fbr = raw_fbr(model, gpu, bs);
  if (fbr > kMaxFbr) {
    // Bandwidth-bound even in isolation: execution stretches until the
    // demanded traffic fits in the device's bandwidth.
    solo *= fbr / kMaxFbr;
  }
  return solo;
}

double gpu_fbr(const ModelSpec& model, const hw::GpuSpec& gpu, int bs) {
  bs = std::clamp(bs, 1, model.max_batch);
  return std::min(kMaxFbr, raw_fbr(model, gpu, bs));
}

double gpu_compute(const ModelSpec& model, const hw::GpuSpec& gpu, int bs) {
  bs = std::clamp(bs, 1, model.max_batch);
  const double frac = static_cast<double>(bs) / model.max_batch;
  const double scale = 0.3 + 0.7 * frac;
  return std::min(kMaxCompute, model.compute_v100 * (1.0 / gpu.speed) * scale);
}

DurationMs cpu_solo_ms(const ModelSpec& model, const hw::CpuSpec& cpu, int bs) {
  return cpu_solo_with_penalty(model, cpu, bs, cpu_core_penalty(cpu));
}

ProfileTable::ProfileTable(const hw::Catalog& catalog) : catalog_(&catalog) {
  cpu_core_penalty_.reserve(catalog.size());
  for (const hw::NodeSpec& spec : catalog.all()) {
    cpu_core_penalty_.push_back(spec.is_gpu() ? 0.0 : cpu_core_penalty(spec.cpu));
  }
}

const ProfileTable& ProfileTable::instance() {
  static const ProfileTable table(hw::Catalog::instance());
  return table;
}

ProfileEntry ProfileTable::lookup(const ModelSpec& model, hw::NodeType node,
                                  int bs) const {
  const hw::NodeSpec& spec = catalog_->spec(node);
  if (spec.is_gpu()) {
    return ProfileEntry{gpu_solo_ms(model, *spec.gpu, bs),
                        gpu_fbr(model, *spec.gpu, bs),
                        gpu_compute(model, *spec.gpu, bs)};
  }
  return ProfileEntry{solo_ms(model, node, bs), 0.0, 0.0};
}

DurationMs ProfileTable::solo_ms(const ModelSpec& model, hw::NodeType node,
                                 int bs) const {
  const hw::NodeSpec& spec = catalog_->spec(node);
  if (spec.is_gpu()) return gpu_solo_ms(model, *spec.gpu, bs);
  return cpu_solo_with_penalty(model, spec.cpu, bs,
                               cpu_core_penalty_[static_cast<std::size_t>(node)]);
}

int ProfileTable::max_batch_within(const ModelSpec& model, hw::NodeType node,
                                   DurationMs budget_ms) const {
  // The sizes that fit form a prefix of 1..max_batch (see the header), so
  // the answer is the length of that prefix.
  const auto sizes = std::views::iota(1, std::max(model.max_batch, 0) + 1);
  const auto first_misfit = std::ranges::partition_point(
      sizes, [&](int bs) { return solo_ms(model, node, bs) <= budget_ms; });
  return static_cast<int>(first_misfit - sizes.begin());
}

Rps ProfileTable::peak_solo_throughput(const ModelSpec& model, hw::NodeType node) const {
  Rps best = 0.0;
  for (int bs = 1; bs <= model.max_batch; bs *= 2) {
    const auto entry = lookup(model, node, bs);
    best = std::max(best, static_cast<double>(bs) / (entry.solo_ms / kMsPerSecond));
  }
  const auto entry = lookup(model, node, model.max_batch);
  best = std::max(best,
                  static_cast<double>(model.max_batch) / (entry.solo_ms / kMsPerSecond));
  return best;
}

}  // namespace paldia::models
