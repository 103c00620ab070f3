// Simulated execution clocks.
//
// This environment has no CUDA device (and a single CPU core), so the paper's
// performance comparisons are reproduced with an execution-model simulator:
// algorithms run for real (producing exact results), while their *time* is
// accounted on a simulated clock parameterized by
//   - lanes: number of concurrently executing lanes (GPU ≈ thousands,
//     CPU baseline ≈ 1),
//   - ns_per_op: cost of one elementary operation on one lane,
//   - launch_overhead_ns: fixed cost per kernel launch (0 for the host).
// A kernel processing `items` work items whose total measured work is
// `total_ops` elementary operations costs
//   ceil(items / lanes) * (total_ops / items) * ns_per_op + launch_overhead.
// Elementary-op counts come from the real computation (metric op counters,
// DP cells, comparisons), so the model is driven by measured work.
#ifndef GTS_GPU_SIM_CLOCK_H_
#define GTS_GPU_SIM_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace gts::gpu {

/// Calibration constants (documented in docs/ARCHITECTURE.md, "Scale and
/// calibration"). The CPU:GPU per-lane speed ratio models "one fast SIMD
/// core vs thousands of slow lanes": 0.05 ns/op ≈ 20 Gop/s for a vectorized
/// single core, so the full-device gap is 4096 lanes / (1.2/0.05) ≈ 170x —
/// the paper's "up to two orders of magnitude" band.
inline constexpr double kGpuNsPerOp = 1.2;
inline constexpr double kCpuNsPerOp = 0.05;
inline constexpr double kGpuLaunchOverheadNs = 3000.0;
inline constexpr uint32_t kDefaultGpuLanes = 4096;
/// Host-to-device transfer cost (~12 GB/s PCIe 3).
inline constexpr double kPcieNsPerByte = 0.08;

struct ClockConfig {
  uint32_t lanes = kDefaultGpuLanes;
  double ns_per_op = kGpuNsPerOp;
  double launch_overhead_ns = kGpuLaunchOverheadNs;
};

/// Accumulates simulated time. Charging is thread-safe (relaxed atomic
/// accumulation), so concurrent query threads may share one clock without
/// data races. Deliberately lock-free: this sits on every query's hot
/// path, so there is no mutex here for the thread-safety analysis to
/// check — the contract is "every member is a std::atomic, or const
/// after construction" (config_), and the invariant linter's
/// naked-primitives rule keeps it that way. Concurrent callers that want parallel-makespan semantics
/// (overlapping work counted once, not summed) accumulate on a private
/// SimClock and fold it in with MergeConcurrent on completion — the
/// per-call QueryContext clocks in core/gts.h do exactly that, so
/// concurrent queries advance the shared clock by the max of their
/// per-call times instead of over-charging it with the sum.
class SimClock {
 public:
  SimClock() = default;
  explicit SimClock(ClockConfig config) : config_(config) {}

  const ClockConfig& config() const { return config_; }

  /// Charges one kernel over `items` work items with `total_ops` measured
  /// elementary operations. No-op when items == 0.
  void ChargeKernel(uint64_t items, uint64_t total_ops);

  /// Charges a device-wide comparison sort of n keys
  /// (bitonic/radix-style: ceil(n/lanes) * log2^2(n)-ish; we use
  /// ceil(n/lanes) * kSortOpsPerKey * log2(n) as in [30]).
  void ChargeSort(uint64_t n);

  /// Charges a device-wide scan / reduction over n items.
  void ChargeScan(uint64_t n);

  /// Adds raw nanoseconds (e.g. host-device transfer models).
  void ChargeRawNs(double ns) { AddNs(ns); }

  /// Folds a concurrently-accumulated sub-timeline into this clock. The
  /// sub-timeline started when this clock read `start_ns` and accumulated
  /// `delta_ns` of simulated time and `kernels` launches; the clock
  /// advances to at least start_ns + delta_ns. Sub-timelines that began at
  /// the same reading therefore combine as their parallel makespan (max),
  /// while serial callers (each starting after the previous merge) still
  /// sum exactly as if they had charged this clock directly.
  void MergeConcurrent(double start_ns, double delta_ns, uint64_t kernels);

  double ElapsedNs() const {
    return elapsed_ns_.load(std::memory_order_relaxed);
  }
  double ElapsedSeconds() const { return ElapsedNs() * 1e-9; }
  uint64_t kernels_launched() const {
    return kernels_launched_.load(std::memory_order_relaxed);
  }

  void Reset() {
    elapsed_ns_.store(0.0, std::memory_order_relaxed);
    kernels_launched_.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr double kSortOpsPerKey = 4.0;

  // CAS loop instead of atomic<double>::fetch_add: identical semantics,
  // supported by every toolchain in the CI matrix.
  void AddNs(double ns) {
    double cur = elapsed_ns_.load(std::memory_order_relaxed);
    while (!elapsed_ns_.compare_exchange_weak(cur, cur + ns,
                                              std::memory_order_relaxed)) {
    }
  }

  ClockConfig config_;
  std::atomic<double> elapsed_ns_{0.0};
  std::atomic<uint64_t> kernels_launched_{0};
};

/// Clock configuration for CPU (host) baselines: one lane, faster per-op,
/// no kernel-launch overhead.
inline ClockConfig HostClockConfig() {
  return ClockConfig{.lanes = 1, .ns_per_op = kCpuNsPerOp,
                     .launch_overhead_ns = 0.0};
}

}  // namespace gts::gpu

#endif  // GTS_GPU_SIM_CLOCK_H_
