#include "serve/query_executor.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "common/fault.h"
#include "serve/latch.h"

namespace gts::serve {

QueryExecutor::QueryExecutor(const GtsIndex* index, ExecutorOptions options)
    : index_(index), options_(options) {
  uint32_t n = options_.num_threads;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

QueryExecutor::~QueryExecutor() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.SignalAll();
  for (std::thread& t : workers_) t.join();
}

void QueryExecutor::WorkerLoop(uint32_t worker) {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stop_ && queue_.empty()) work_cv_.Wait(&mu_);
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Injection site: a straggling worker. Disarmed (the default) this is
    // one relaxed load; armed, the delay lands BEFORE the task so the
    // task's own timing (latch countdowns, promise resolution) is intact.
    const uint64_t delay = fault::Registry::Instance().TripDelayMicros(
        "executor.task-delay", worker);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
    }
    task();
  }
}

void QueryExecutor::Submit(std::function<void()> fn) {
  {
    MutexLock lock(&mu_);
    queue_.push_back(std::move(fn));
  }
  work_cv_.SignalOne();
}

void QueryExecutor::Submit(std::vector<std::function<void()>> fns) {
  if (fns.empty()) return;
  {
    MutexLock lock(&mu_);
    for (std::function<void()>& fn : fns) {
      queue_.push_back(std::move(fn));
    }
  }
  // One pool-wide wake for the whole group (RunAll's pattern): cheaper
  // than SignalOne per item once the group spans several workers.
  work_cv_.SignalAll();
}

void QueryExecutor::RunAll(std::vector<std::function<void()>>* tasks) {
  if (tasks->empty()) return;
  CountdownLatch latch(tasks->size());
  {
    MutexLock lock(&mu_);
    for (std::function<void()>& t : *tasks) {
      queue_.push_back([&latch, fn = std::move(t)] {
        fn();
        latch.CountDown();
      });
    }
  }
  work_cv_.SignalAll();
  latch.Wait();
}

std::vector<std::pair<uint32_t, uint32_t>> QueryExecutor::ShardBounds(
    uint32_t n) const {
  std::vector<std::pair<uint32_t, uint32_t>> bounds;
  if (n == 0) return bounds;
  uint32_t shard = options_.shard_size;
  if (shard == 0) {
    // ~4 shards per worker: coarse enough to amortize per-shard overhead,
    // fine enough that the tail shard cannot dominate the makespan.
    const uint32_t target = num_threads() * 4;
    shard = std::max(1u, (n + target - 1) / target);
  }
  bounds.reserve((n + shard - 1) / shard);
  for (uint32_t begin = 0; begin < n; begin += shard) {
    bounds.emplace_back(begin, std::min(n, begin + shard));
  }
  return bounds;
}

Status QueryExecutor::RunSharded(
    const std::vector<std::pair<uint32_t, uint32_t>>& bounds,
    const std::function<Status(size_t, uint32_t, uint32_t)>& run_shard) {
  std::vector<Status> statuses(bounds.size(), Status::Ok());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(bounds.size());
  for (size_t si = 0; si < bounds.size(); ++si) {
    tasks.push_back([&, si] {
      statuses[si] = run_shard(si, bounds[si].first, bounds[si].second);
    });
  }
  RunAll(&tasks);
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Result<RangeResults> QueryExecutor::RangeQueryBatch(
    const Dataset& queries, std::span<const float> radii,
    GtsQueryStats* stats_out) {
  // The prechecks mirror GtsIndex's own validation on purpose, not
  // redundantly: an invalid *empty* batch spawns no shards, so only this
  // layer can return the same status the single-threaded call would; and
  // the radii length must be proven before the per-shard subspan below.
  // (CompatibleData reads only the index's immutable kind/dim, so the
  // check needs no snapshot and cannot race with concurrent updates.)
  if (index_ == nullptr) {
    return Status::InvalidArgument("pool-only executor has no index");
  }
  if (queries.size() != radii.size()) {
    return Status::InvalidArgument("one radius per query required");
  }
  if (!index_->CompatibleData(queries)) {
    return Status::InvalidArgument("query objects incompatible with dataset");
  }
  RangeResults out(queries.size());
  const auto bounds = ShardBounds(queries.size());
  std::vector<GtsQueryStats> shard_stats(bounds.size());
  GTS_RETURN_IF_ERROR(RunSharded(
      bounds, [&](size_t si, uint32_t begin, uint32_t end) -> Status {
        std::vector<uint32_t> ids(end - begin);
        std::iota(ids.begin(), ids.end(), begin);
        const Dataset shard = queries.Slice(ids);
        auto res = index_->RangeQueryBatch(
            shard, radii.subspan(begin, end - begin), &shard_stats[si]);
        if (!res.ok()) return res.status();
        for (uint32_t q = begin; q < end; ++q) {
          out[q] = std::move(res.value()[q - begin]);
        }
        return Status::Ok();
      }));
  if (stats_out != nullptr) {
    *stats_out = GtsQueryStats{};
    for (const GtsQueryStats& s : shard_stats) *stats_out += s;
  }
  return out;
}

Result<KnnResults> QueryExecutor::KnnQueryBatch(const Dataset& queries,
                                                uint32_t k,
                                                GtsQueryStats* stats_out,
                                                const KnnOptions& options) {
  // See RangeQueryBatch for why the prechecks are repeated here; the
  // bounds length must likewise be proven before the per-shard subspan.
  if (index_ == nullptr) {
    return Status::InvalidArgument("pool-only executor has no index");
  }
  if (!(options.candidate_fraction > 0.0 &&
        options.candidate_fraction <= 1.0)) {
    return Status::InvalidArgument("candidate_fraction must be in (0, 1]");
  }
  if (!options.initial_bounds.empty() &&
      options.initial_bounds.size() != queries.size()) {
    return Status::InvalidArgument("one initial bound per query required");
  }
  if (!index_->CompatibleData(queries)) {
    return Status::InvalidArgument("query objects incompatible with dataset");
  }
  KnnResults out(queries.size());
  const auto bounds = ShardBounds(queries.size());
  std::vector<GtsQueryStats> shard_stats(bounds.size());
  GTS_RETURN_IF_ERROR(RunSharded(
      bounds, [&](size_t si, uint32_t begin, uint32_t end) -> Status {
        std::vector<uint32_t> ids(end - begin);
        std::iota(ids.begin(), ids.end(), begin);
        const Dataset shard = queries.Slice(ids);
        KnnOptions shard_options = options;
        if (!options.initial_bounds.empty()) {
          shard_options.initial_bounds =
              options.initial_bounds.subspan(begin, end - begin);
        }
        auto res =
            index_->KnnQueryBatch(shard, k, &shard_stats[si], shard_options);
        if (!res.ok()) return res.status();
        for (uint32_t q = begin; q < end; ++q) {
          out[q] = std::move(res.value()[q - begin]);
        }
        return Status::Ok();
      }));
  if (stats_out != nullptr) {
    *stats_out = GtsQueryStats{};
    for (const GtsQueryStats& s : shard_stats) *stats_out += s;
  }
  return out;
}

}  // namespace gts::serve
