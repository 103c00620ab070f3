// Seeded synthetic generators reproducing the *statistical* structure of the
// paper's five real datasets (Table 2) at laptop scale — see
// docs/ARCHITECTURE.md, "Scale and calibration", for the substitution
// rationale. Cardinalities are scaled; metric type, dimensionality and
// cluster structure match the originals.
#ifndef GTS_DATA_GENERATORS_H_
#define GTS_DATA_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "metric/dataset.h"
#include "metric/distance.h"

namespace gts {

enum class DatasetId { kWords, kTLoc, kVector, kDna, kColor };

inline constexpr DatasetId kAllDatasets[] = {
    DatasetId::kWords, DatasetId::kTLoc, DatasetId::kVector, DatasetId::kDna,
    DatasetId::kColor};

struct DatasetSpec {
  DatasetId id;
  const char* name;
  MetricKind metric;
  /// Scaled default cardinality used by tests/benches (the paper's default:
  /// 100% of each dataset, 20% of Color — §6.1).
  uint32_t default_cardinality;
  /// "Full" scaled cardinality (Fig. 11 sweeps 20%..100% of this).
  uint32_t full_cardinality;
  /// The paper's default cardinality, used to scale memory budgets.
  uint64_t paper_cardinality;
  uint32_t dimensionality;  // vector dim, or max string length
};

const DatasetSpec& GetDatasetSpec(DatasetId id);

/// Generates `n` objects of the given dataset family, deterministically.
Dataset GenerateDataset(DatasetId id, uint32_t n, uint64_t seed);

/// Fig. 10 workload: only ceil(n * distinct_fraction) distinct objects; the
/// remainder are exact duplicates of random distinct ones.
Dataset GenerateWithDistinctFraction(DatasetId id, uint32_t n,
                                     double distinct_fraction, uint64_t seed);

/// Convenience: the metric each dataset family is evaluated with.
std::unique_ptr<DistanceMetric> MakeDatasetMetric(DatasetId id);

}  // namespace gts

#endif  // GTS_DATA_GENERATORS_H_
