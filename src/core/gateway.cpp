#include "src/core/gateway.hpp"

#include <algorithm>
#include <cassert>

#include "src/obs/tracer.hpp"

namespace paldia::core {

Gateway::Gateway(Rng rng, cluster::RequestArena* arena, int endpoint_tag)
    : rng_(rng),
      ids_(endpoint_tag),
      per_model_(static_cast<std::size_t>(models::kModelCount)) {
  if (arena == nullptr) {
    owned_arena_ = std::make_unique<cluster::RequestArena>();
    arena_ = owned_arena_.get();
  } else {
    arena_ = arena;
  }
}

void Gateway::add_workload(models::ModelId model) {
  auto& per_model = per_model_[static_cast<std::size_t>(model)];
  if (per_model.registered) return;
  per_model.registered = true;
  workloads_.push_back(model);
}

Gateway::PerModel& Gateway::state(models::ModelId model) {
  auto& per_model = per_model_[static_cast<std::size_t>(model)];
  assert(per_model.registered);
  return per_model;
}

const Gateway::PerModel& Gateway::state(models::ModelId model) const {
  const auto& per_model = per_model_[static_cast<std::size_t>(model)];
  assert(per_model.registered);
  return per_model;
}

void Gateway::inject(models::ModelId model, int count, TimeMs epoch_start,
                     DurationMs epoch_ms) {
  if (count <= 0) return;
  if (tracer_ != nullptr) tracer_->count("arrivals", count);
  auto& per_model = state(model);
  // Uniform offsets, sorted so the queue stays ordered by arrival.
  auto& offsets = offsets_scratch_;
  offsets.resize(static_cast<std::size_t>(count));
  for (auto& offset : offsets) offset = rng_.uniform(0.0, epoch_ms);
  std::sort(offsets.begin(), offsets.end());
  for (double offset : offsets) {
    cluster::Request request;
    request.id = ids_.next_request();
    request.model = model;
    request.arrival_ms = epoch_start + offset;
    per_model.queue.push_back(request);
    per_model.window.record(request.arrival_ms);
  }
}

void Gateway::requeue(models::ModelId model, cluster::RequestBlock requests) {
  if (requests.empty()) return;
  if (tracer_ != nullptr) {
    tracer_->count("requeues", static_cast<double>(requests.size()));
  }
  // Keep oldest-first ordering after mixing re-queued with fresh arrivals:
  // the ring sorts the same element sequence the deque-based gateway did.
  state(model).queue.append_and_sort(requests.data(), requests.size());
}

cluster::RequestBlock Gateway::take(models::ModelId model, int max_count,
                                    TimeMs now) {
  auto& per_model = state(model);
  cluster::RequestBlock taken = arena_->acquire();
  const std::size_t arrived = per_model.queue.arrived_before(now);
  const std::size_t n =
      std::min(arrived, static_cast<std::size_t>(std::max(max_count, 0)));
  per_model.queue.pop_front_into(n, taken);
  return taken;
}

int Gateway::pending(models::ModelId model, TimeMs now) const {
  // Queue is sorted by arrival; count the prefix that has arrived.
  return static_cast<int>(state(model).queue.arrived_before(now));
}

int Gateway::pending_total(models::ModelId model) const {
  return static_cast<int>(state(model).queue.size());
}

DurationMs Gateway::oldest_age(models::ModelId model, TimeMs now) const {
  const auto& queue = state(model).queue;
  if (queue.empty() || queue.front().arrival_ms > now) return 0.0;
  return now - queue.front().arrival_ms;
}

TimeMs Gateway::queued_arrival(models::ModelId model, std::size_t index) const {
  const auto& queue = state(model).queue;
  return index < queue.size() ? queue.at(index).arrival_ms : kTimeNever;
}

Rps Gateway::observed_rate(models::ModelId model, TimeMs now) const {
  return state(model).window.rate(now);
}

predictor::EwmaPredictor& Gateway::predictor(models::ModelId model) {
  return state(model).predictor;
}

}  // namespace paldia::core
