#include "workload.h"

#include <algorithm>
#include <utility>

#include "common/parallel.h"
#include "data/csv.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"

namespace repairbench {

using ftrepair::RepairAlgorithm;

// README.md gives the reason for each workload and the layers it
// stresses.
const Workload kWorkloads[] = {
    {"hosp-greedy", 10000, RepairAlgorithm::kGreedy, 1, 0},
    {"hosp-greedy-mt", 10000, RepairAlgorithm::kGreedy, 0, 0},
    {"hosp-appro", 10000, RepairAlgorithm::kApproJoin, 1, 0},
    {"hosp-deadline", 20000, RepairAlgorithm::kGreedy, 1, 1000},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

ftrepair::Result<Inputs> MakeInputs(int rows, uint64_t gen_seed,
                                    uint64_t noise_seed, int instances) {
  Inputs in;
  ftrepair::HospOptions hosp;
  hosp.num_rows = rows;
  hosp.seed = gen_seed;
  FTR_ASSIGN_OR_RETURN(in.dataset, ftrepair::GenerateHosp(hosp));
  for (int i = 0; i < instances; ++i) {
    ftrepair::NoiseOptions noise;
    noise.error_rate = 0.04;
    noise.seed = noise_seed + static_cast<uint64_t>(i) * 1000003;
    FTR_ASSIGN_OR_RETURN(
        ftrepair::Table dirty,
        ftrepair::InjectErrors(in.dataset.clean, in.dataset.fds, noise));
    in.dirty_csv.push_back(ftrepair::WriteCsvString(dirty));
  }
  return in;
}

ftrepair::RepairOptions MakeOptions(const Workload& workload,
                                    const ftrepair::Dataset& dataset) {
  ftrepair::RepairOptions options;
  options.semantics = "ft-cost";
  options.algorithm = workload.algorithm;
  options.w_l = dataset.recommended_w_l;
  options.w_r = dataset.recommended_w_r;
  options.tau_by_fd = dataset.recommended_tau;
  options.threads = workload.threads > 0
                        ? workload.threads
                        : std::min(4, ftrepair::HardwareThreads());
  return options;
}

}  // namespace repairbench
