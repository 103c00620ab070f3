// Device-wide parallel primitives of the simulator: distance-kernel
// charging, the table sort by encoded key (the paper's global
// partitioning workhorse), scans and top-k selection. Each primitive
// executes on the host and charges the device clock according to the
// lane-parallel model. RadixSort, the host sort under the table sort, is
// shared with the range path's hit lists and the baselines' builders, and
// charges nothing itself.
#ifndef GTS_GPU_PRIMITIVES_H_
#define GTS_GPU_PRIMITIVES_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "gpu/device.h"
#include "metric/distance.h"

namespace gts::gpu {

/// Charges one kernel of distance computations whose elementary-op cost is
/// measured from the metric's per-thread op counter (exact even while other
/// threads compute distances concurrently — the kernel's work never leaves
/// this thread). Work items are the individual distance evaluations; pass
/// kAutoItems when the count is not known upfront (it is then taken from
/// the call-count delta). Charges the device's shared clock, or — for
/// callers that fold concurrent timelines with SimClock::MergeConcurrent,
/// like the per-call query contexts — any private clock. Usage:
///   { KernelDistanceScope scope(device, metric, items);
///     ... compute distances via metric ... }
class KernelDistanceScope {
 public:
  static constexpr uint64_t kAutoItems = 0;

  KernelDistanceScope(SimClock* clock, const DistanceMetric* metric,
                      uint64_t items)
      : clock_(clock), items_(items),
        start_(DistanceMetric::ThreadStats()) {
    (void)metric;  // the per-thread counters are metric-instance-agnostic
  }
  KernelDistanceScope(Device* device, const DistanceMetric* metric,
                      uint64_t items)
      : KernelDistanceScope(&device->clock(), metric, items) {}
  ~KernelDistanceScope() {
    const DistanceStats now = DistanceMetric::ThreadStats();
    const uint64_t items =
        items_ != kAutoItems ? items_ : now.calls - start_.calls;
    if (items > 0) {
      clock_->ChargeKernel(items, now.ops - start_.ops);
    }
  }
  KernelDistanceScope(const KernelDistanceScope&) = delete;
  KernelDistanceScope& operator=(const KernelDistanceScope&) = delete;

 private:
  SimClock* clock_;
  uint64_t items_;
  DistanceStats start_;
};

/// Stable LSD radix sort by ascending unsigned key, 8 bits per pass:
/// permutes `payload` with `keys` when it is non-empty (it then holds one
/// value per key), and skips every digit on which all keys agree, so keys
/// with few significant bits take few passes. A host helper that charges
/// nothing: callers charge the kernel the model describes, if any.
void RadixSort(std::span<uint32_t> keys, std::span<uint32_t> payload = {});
void RadixSort(std::span<uint64_t> keys, std::span<uint32_t> payload = {});

/// A RadixSort key for a float of either sign: key order is float order
/// for every non-NaN value, and -0 gets the key of +0, as they compare
/// equal, so a stable radix sort by these keys orders exactly as a stable
/// comparison sort by `<` on the floats.
inline uint32_t FloatKey(float f) {
  const uint32_t bits = std::bit_cast<uint32_t>(f + 0.0f);  // -0 -> +0
  return bits & 0x80000000u ? ~bits : bits | 0x80000000u;
}

/// Algorithm 3's encode key for one table slot, exact: the rank of the
/// slot's node within its level in the high 32 bits, the bits of its
/// distance to the node's pivot in the low 32. Distances are non-negative,
/// and non-negative floats order as their bits (+inf below NaN), so key
/// order is (rank, distance) order for every distance range. The paper's
/// `rank + d / (maxd + 1)` loses d whenever maxd dwarfs it.
inline uint64_t TableKey(uint32_t rank, float dis) {
  return uint64_t{rank} << 32 | std::bit_cast<uint32_t>(dis);
}

/// The global concurrent sort of Algorithm 3 over TableKey keys, carrying
/// the table list: sorts `keys` ascending (stable, so slots with equal keys
/// keep their input order), permutes `objects` with them, and decodes each
/// slot's distance back from its key into `dis`, as the paper does — the
/// decode is exact because the key holds the float's bits. Charges one
/// device sort of keys.size() items.
void SortTableByKey(Device* device, std::span<uint64_t> keys,
                    std::span<uint32_t> objects, std::span<float> dis);

/// Exclusive prefix sum.
void ExclusiveScan(Device* device, std::span<const uint32_t> in,
                   std::span<uint32_t> out);

/// Returns the indices of the k smallest values (delegate-centric partial
/// selection in the spirit of Dr. Top-k [23]): lanes-many segments produce
/// local candidates which are then merged and sorted.
std::vector<uint32_t> SelectKSmallest(Device* device,
                                      std::span<const float> values,
                                      uint32_t k);

}  // namespace gts::gpu

#endif  // GTS_GPU_PRIMITIVES_H_
