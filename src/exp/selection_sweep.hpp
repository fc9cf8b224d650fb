// Selection sweep: the large-catalog stress for Algorithm 1 behind
// bench/fleet_frontier. A generated device catalog (hw/catalog_gen.hpp) is
// driven by 100+ model endpoints, each with a deterministic random-walk
// demand schedule, through HardwareSelection::choose directly — no
// Framework, no simulator, so the catalog is free to exceed
// kNodeTypeCount. The serving fleet, with gateways and a simulator, is
// core::Fleet.
//
// The output is a cost-vs-SLO frontier (fig. 5 style): sweep slo_headroom
// and report fleet $/hour against SLO attainment at each point.
//
// Determinism contract: the demand schedule and every choice are pure
// functions of (SelectionSweepConfig, catalog).
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/scheduler_policy.hpp"
#include "src/hw/catalog.hpp"
#include "src/models/profile.hpp"
#include "src/models/zoo.hpp"

namespace paldia::exp {

struct SelectionSweepConfig {
  int endpoints = 120;        // model endpoints (node groups) in the fleet
  int ticks = 40;             // monitor ticks simulated per endpoint
  std::uint64_t seed = 2026;  // demand random-walk seed
  double slo_headroom = 0.85; // HardwareSelectionConfig::slo_headroom
};

/// One endpoint's demand at one tick: the co-resident models' snapshots.
struct SweepDemand {
  std::vector<core::DemandSnapshot> models;
};

/// The full demand schedule: schedule[endpoint][tick]. A pure function
/// of (config.seed, endpoints, ticks) — independent of headroom, so every
/// frontier point sees identical inputs.
std::vector<std::vector<SweepDemand>> build_sweep_schedule(
    const SelectionSweepConfig& config, const models::Zoo& zoo);

struct SelectionSweepResult {
  int endpoints = 0;
  int ticks = 0;
  long long choices = 0;        // endpoints * ticks
  long long feasible = 0;       // choices whose T_max met the headroomed SLO
  long long cpu_choices = 0;    // choices that landed on a CPU node
  double fleet_cost_per_hour = 0.0;  // sum of chosen prices, averaged over ticks
  double slo_attainment = 0.0;       // feasible / choices
  double micros_per_choice = 0.0;    // wall-clock
};

/// Run the sweep over a prebuilt schedule. `catalog` is typically
/// generated (hw::generate_catalog) but any catalog works; `profile` must be
/// built over the same catalog.
SelectionSweepResult run_selection_sweep(
    const SelectionSweepConfig& config,
    const std::vector<std::vector<SweepDemand>>& schedule,
    const models::Zoo& zoo, const hw::Catalog& catalog,
    const models::ProfileTable& profile);

/// Convenience: build the schedule internally and run.
SelectionSweepResult run_selection_sweep(const SelectionSweepConfig& config,
                                         const models::Zoo& zoo,
                                         const hw::Catalog& catalog,
                                         const models::ProfileTable& profile);

}  // namespace paldia::exp
