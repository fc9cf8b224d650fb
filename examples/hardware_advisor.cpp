// Hardware advisor: for a model and a range of request rates, show what
// Paldia's Hardware Selection module (Algorithm 1) would pick and why —
// the predicted worst-case latency (T_max) per candidate node and the
// winning choice. A direct window into Section III/IV-A.
//
//   ./build/examples/hardware_advisor [--threads=N] [model-index 0..15]
#include <cstdlib>
#include <iostream>

#include "examples/example_common.hpp"
#include "src/common/table.hpp"
#include "src/core/hardware_selection.hpp"
#include "src/models/zoo.hpp"

int main(int argc, char** argv) {
  using namespace paldia;
  const auto args = examples::parse_args(argc, argv);

  const int model_index =
      std::clamp(examples::positional(args, 0, 0), 0, models::kModelCount - 1);
  const auto model = models::ModelId(model_index);

  models::ProfileTable profile(hw::Catalog::instance());
  // --threads=N parallelizes the per-node y-sweep; the best split found is
  // the same either way (the sweep space is scanned exhaustively).
  perfmodel::YOptimizer optimizer(perfmodel::TmaxModel(0.2),
                                  examples::pool_for(args));
  core::HardwareSelection selection(models::Zoo::instance(), hw::Catalog::instance(),
                                    profile, optimizer);

  std::cout << "Hardware advisor for " << models::model_id_name(model)
            << " (SLO 200 ms). T_max = predicted worst-case completion per "
               "Eq. (1); '-' = single request already busts the SLO.\n\n";

  std::vector<std::string> columns = {"Rate (rps)"};
  for (const auto& spec : hw::Catalog::instance().all()) {
    columns.push_back(spec.display_name());
  }
  columns.push_back("CHOSEN");
  Table table(columns);

  for (const Rps rate : {1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 250.0, 500.0, 800.0}) {
    core::DemandSnapshot demand;
    demand.model = model;
    demand.observed_rps = demand.predicted_rps = demand.smoothed_rps = rate;

    std::vector<std::string> row = {Table::num(rate, 0)};
    for (int i = 0; i < hw::kNodeTypeCount; ++i) {
      const auto choice = selection.evaluate(hw::NodeType(i), {demand});
      const auto& spec = hw::Catalog::instance().spec(hw::NodeType(i));
      if (profile.lookup(models::Zoo::instance().spec(model), hw::NodeType(i), 1)
              .solo_ms > 200.0) {
        row.push_back("-");
      } else {
        std::string cell = Table::num(choice.t_max_ms, 0) + " ms";
        if (!choice.feasible) cell += " !";
        if (spec.is_gpu() && choice.best_y > 0) {
          cell += " y=" + std::to_string(choice.best_y);
        }
        row.push_back(cell);
      }
    }
    row.push_back(std::string(hw::node_type_name(selection.choose({demand}).node)));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n('!' = infeasible: predicted T_max above the SLO budget; "
               "y = requests the hybrid split would queue)\n";
  return 0;
}
