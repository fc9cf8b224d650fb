#include "src/obs/tracer.hpp"

#include <cstring>

namespace paldia::obs {

bool Tracer::reserve(std::size_t n) {
  if (units_ + n > config_.event_capacity) {
    dropped_events_ += n;
    return false;
  }
  units_ += n;
  return true;
}

void Tracer::push(const TraceEvent& event) { events_.push_back(event); }

bool Tracer::sample_keep(std::int64_t request_id, models::ModelId model,
                         hw::NodeType node, TimeMs arrival_ms, TimeMs end_ms) {
  if (sampler_.pass_through()) return true;
  const auto m = static_cast<int>(model);
  const DurationMs slo =
      (m >= 0 && m < models::kModelCount) ? slo_ms_[static_cast<std::size_t>(m)]
                                          : kTimeNever;
  const bool violated = end_ms - arrival_ms > slo;
  if (sampler_.keep(request_id, violated)) return true;
  const auto n = static_cast<int>(node);
  if (m >= 0 && m < models::kModelCount && n >= 0 && n < hw::kNodeTypeCount) {
    ++sampled_out_[static_cast<std::size_t>(m) * hw::kNodeTypeCount +
                   static_cast<std::size_t>(n)];
  }
  ++sampled_out_total_;
  return false;
}

void Tracer::record_request_lifecycle(std::int64_t request_id, models::ModelId model,
                                      hw::NodeType node, cluster::ShareMode mode,
                                      int batch_size, int spatial, int temporal,
                                      TimeMs arrival_ms, TimeMs submit_ms,
                                      TimeMs start_ms, TimeMs end_ms,
                                      DurationMs solo_ms, DurationMs interference_ms,
                                      DurationMs cold_ms) {
  if (!sample_keep(request_id, model, node, arrival_ms, end_ms)) return;
  if (!reserve(kLifecycleUnits)) return;
  TraceEvent event;
  event.type = TraceEvent::Type::kRequest;
  event.mode = mode;
  event.model = static_cast<std::int16_t>(model);
  event.node = static_cast<std::int16_t>(node);
  event.batch_size = batch_size;
  event.spatial = spatial;
  event.temporal = temporal;
  event.id = request_id;
  event.name = "request";
  event.start_ms = arrival_ms;
  event.end_ms = end_ms;
  event.submit_ms = submit_ms;
  event.exec_start_ms = start_ms;
  event.solo_ms = solo_ms;
  event.interference_ms = interference_ms;
  event.cold_ms = cold_ms;
  push(event);
}

void Tracer::record_batch(std::int64_t batch_id, models::ModelId model,
                          hw::NodeType node, cluster::ShareMode mode, int batch_size,
                          TimeMs submit_ms, TimeMs start_ms, TimeMs end_ms,
                          DurationMs solo_ms, DurationMs cold_ms) {
  if (!reserve(1)) return;
  TraceEvent event;
  event.type = TraceEvent::Type::kBatch;
  event.mode = mode;
  event.model = static_cast<std::int16_t>(model);
  event.node = static_cast<std::int16_t>(node);
  event.batch_size = batch_size;
  event.id = batch_id;
  event.name = "batch";
  event.start_ms = start_ms;
  event.end_ms = end_ms;
  event.solo_ms = solo_ms;
  event.cold_ms = cold_ms;
  event.value = start_ms - submit_ms;  // lane/container wait
  push(event);
}

void Tracer::instant(const char* name, TimeMs now, hw::NodeType node, double value) {
  if (!reserve(1)) return;
  TraceEvent event;
  event.type = TraceEvent::Type::kInstant;
  event.name = name;
  event.node = static_cast<std::int16_t>(node);
  event.start_ms = event.end_ms = now;
  event.value = value;
  push(event);
}

void Tracer::instant(const char* name, TimeMs now, double value) {
  if (!reserve(1)) return;
  TraceEvent event;
  event.type = TraceEvent::Type::kInstant;
  event.name = name;
  event.start_ms = event.end_ms = now;
  event.value = value;
  push(event);
}

void Tracer::request_requeued(std::int64_t request_id, models::ModelId model,
                              TimeMs now, hw::NodeType node) {
  if (!reserve(1)) return;
  TraceEvent event;
  event.type = TraceEvent::Type::kInstant;
  event.name = "request_requeued";
  event.id = request_id;
  event.model = static_cast<std::int16_t>(model);
  event.node = static_cast<std::int16_t>(node);
  event.start_ms = event.end_ms = now;
  push(event);
}

void Tracer::begin_span(const char* name, TimeMs now) {
  span_stack_.push_back(name);
  if (!reserve(1)) return;
  TraceEvent event;
  event.type = TraceEvent::Type::kSpanBegin;
  event.name = name;
  event.start_ms = event.end_ms = now;
  push(event);
}

void Tracer::end_span(const char* name, TimeMs now) {
  if (span_stack_.empty() || std::strcmp(span_stack_.back(), name) != 0) {
    ++unbalanced_;
    return;
  }
  span_stack_.pop_back();
  if (!reserve(1)) return;
  TraceEvent event;
  event.type = TraceEvent::Type::kSpanEnd;
  event.name = name;
  event.start_ms = event.end_ms = now;
  push(event);
}

void Tracer::count(std::string_view name, double delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) it = counters_.emplace(std::string(name), 0.0).first;
  it->second += delta;
}

void Tracer::gauge(const char* name, TimeMs now, double value, int model_tag) {
  if (!reserve(1)) return;
  TraceEvent event;
  event.type = TraceEvent::Type::kCounter;
  event.name = name;
  event.model = static_cast<std::int16_t>(model_tag);
  event.start_ms = event.end_ms = now;
  event.value = value;
  push(event);
}

void Tracer::flush_sampled_out_counters() {
  if (sampled_out_total_ == 0) return;
  for (int m = 0; m < models::kModelCount; ++m) {
    for (int n = 0; n < hw::kNodeTypeCount; ++n) {
      const std::uint64_t dropped =
          sampled_out_[static_cast<std::size_t>(m) * hw::kNodeTypeCount +
                       static_cast<std::size_t>(n)];
      if (dropped == 0) continue;
      std::string key = "sampled_out:";
      key += models::model_id_name(static_cast<models::ModelId>(m));
      key += ':';
      key += hw::node_type_name(static_cast<hw::NodeType>(n));
      counters_[key] = static_cast<double>(dropped);  // cumulative, not +=
    }
  }
}

void Tracer::sample_counters(TimeMs now) {
  flush_sampled_out_counters();
  for (const auto& [name, value] : counters_) {  // map order: deterministic
    if (!reserve(1)) return;
    TraceEvent event;
    event.type = TraceEvent::Type::kCounter;
    event.name = name.c_str();
    event.start_ms = event.end_ms = now;
    event.value = value;
    push(event);
  }
}

double Tracer::counter_value(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

DecisionRecord* Tracer::begin_decision(TimeMs now, hw::NodeType current) {
  if (decisions_.size() >= config_.decision_capacity) {
    ++dropped_decisions_;
    open_decision_ = nullptr;
    return nullptr;
  }
  decisions_.emplace_back();
  open_decision_ = &decisions_.back();
  open_decision_->t_ms = now;
  open_decision_->current = current;
  open_decision_->final_choice = current;
  return open_decision_;
}

void Tracer::end_decision(hw::NodeType final_choice, bool switch_begun) {
  if (open_decision_ == nullptr) return;
  open_decision_->final_choice = final_choice;
  open_decision_->switch_begun = switch_begun;
  open_decision_ = nullptr;
}

std::uint64_t RunTrace::dropped_events() const {
  std::uint64_t total = 0;
  for (const auto& rep : reps) {
    if (rep) total += rep->dropped_events();
  }
  return total;
}

std::uint64_t RunTrace::dropped_decisions() const {
  std::uint64_t total = 0;
  for (const auto& rep : reps) {
    if (rep) total += rep->dropped_decisions();
  }
  return total;
}

std::uint64_t RunTrace::sampled_out() const {
  std::uint64_t total = 0;
  for (const auto& rep : reps) {
    if (rep) total += rep->sampled_out_total();
  }
  return total;
}

}  // namespace paldia::obs
