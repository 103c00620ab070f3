#include "serve/query_session.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <span>
#include <thread>
#include <utility>

#include "common/fault.h"
#include "serve/latch.h"

namespace gts::serve {

namespace {

/// Percentile of an already-sorted sample (the bench harness's rank
/// convention: ceil(q·n)).
double SortedPercentile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

QuerySession::QuerySession(GtsIndex* index, QueryExecutor* executor,
                           SessionOptions options)
    : index_(index), executor_(executor), options_(options) {
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.max_queue < options_.max_batch) {
    options_.max_queue = options_.max_batch;
  }
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

QuerySession::~QuerySession() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_dispatch_.SignalAll();
  cv_space_.SignalAll();
  dispatcher_.join();
}

SessionStats QuerySession::stats() const {
  SessionStats out;
  std::vector<double> window;
  {
    MutexLock lock(&mu_);
    out = stats_;
    window = latency_ms_;
  }
  // Sort outside the lock — stats() is a poller path and must not stall
  // admission or flush composition for a 2048-sample sort.
  std::sort(window.begin(), window.end());
  out.p50_latency_ms = SortedPercentile(window, 0.50);
  out.p95_latency_ms = SortedPercentile(window, 0.95);
  return out;
}

bool QuerySession::AdmitRead() {
  if (stop_) return false;
  if (reads_.size() < options_.max_queue) return true;
  if (options_.admission == AdmissionPolicy::kReject) return false;
  // The dispatcher may not have been woken for the entries already pushed
  // in this same (batched) call — wake it, or the kBlock wait below would
  // deadlock on a queue only the dispatcher can drain.
  cv_dispatch_.SignalAll();
  while (!stop_ && reads_.size() >= options_.max_queue) cv_space_.Wait(&mu_);
  return !stop_;
}

QuerySession::PendingRead QuerySession::TranslateRead(RequestPayload* payload) {
  PendingRead out;
  if (auto* range = std::get_if<RangePayload>(payload)) {
    out.kind = PendingRead::Kind::kRange;
    out.query = std::move(range->query);
    out.radius = range->radius;
  } else if (auto* knn = std::get_if<KnnPayload>(payload)) {
    out.kind = PendingRead::Kind::kKnn;
    out.query = std::move(knn->query);
    out.k = knn->k;
    out.bound_cap = knn->bound_cap;
  } else if (auto* approx = std::get_if<KnnApproxPayload>(payload)) {
    out.kind = PendingRead::Kind::kKnn;
    out.query = std::move(approx->query);
    out.k = approx->k;
    out.candidate_fraction = approx->candidate_fraction;
  }
  return out;
}

Response QuerySession::ReadError(const PendingRead& read,
                                 const Status& status) {
  return read.kind == PendingRead::Kind::kRange
             ? Response{RangeResult(status)}
             : Response{KnnResult(status)};
}

void QuerySession::EnqueueRead(PendingRead read, uint64_t deadline_micros,
                               Clock::time_point submitted_at) {
  read.enqueued_at = submitted_at;
  read.seq = next_seq_++;
  read.has_deadline = deadline_micros > 0;
  if (read.has_deadline) ++queued_deadlines_;
  // The EDF key. A deadline-free read's implicit slack deadline is a
  // fixed absolute instant, so a sustained stream of later urgent
  // arrivals eventually ranks behind it — bounded waiting, no starvation.
  read.deadline =
      read.enqueued_at +
      std::chrono::microseconds(read.has_deadline
                                    ? deadline_micros
                                    : options_.no_deadline_slack_micros);
  reads_.push_back(std::move(read));
  ++stats_.submitted;
}

std::future<Response> QuerySession::Submit(Request request) {
  if (!request.is_read()) return SubmitWrite(std::move(request));
  std::vector<Request> one;
  one.push_back(std::move(request));
  return std::move(SubmitBatch(std::move(one))[0]);
}

std::vector<std::future<Response>> QuerySession::SubmitBatch(
    std::vector<Request> requests) {
  const auto submitted_at = Clock::now();
  std::vector<std::future<Response>> futures(requests.size());

  // Validate + translate off-lock (ValidRead reads only the index's
  // immutable kind/dim); rejections and updates resolve per request. The
  // admissible reads then enter the queue in one pass.
  std::vector<std::pair<PendingRead, uint64_t>> admit;  // (read, deadline)
  admit.reserve(requests.size());
  size_t invalid = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    Request& request = requests[i];
    if (!request.is_read()) {
      futures[i] = SubmitWrite(std::move(request));
      continue;
    }
    if (!ValidRead(request, *index_)) {
      futures[i] = ResolvedFuture(ErrorResponse(
          request,
          Status::InvalidArgument("query object invalid for this index")));
      ++invalid;
      continue;
    }
    PendingRead read = TranslateRead(&request.payload);
    futures[i] = read.promise.get_future();
    admit.emplace_back(std::move(read), request.deadline_micros);
  }

  bool enqueued_any = false;
  {
    MutexLock lock(&mu_);
    stats_.rejected += invalid;
    for (auto& [read, deadline_micros] : admit) {
      if (!AdmitRead()) {
        ++stats_.rejected;
        read.promise.set_value(ReadError(
            read, Status::ResourceExhausted("session read queue full")));
        continue;
      }
      EnqueueRead(std::move(read), deadline_micros, submitted_at);
      enqueued_any = true;
    }
  }
  // ONE dispatcher wake for the whole group — the amortization this entry
  // point exists for.
  if (enqueued_any) cv_dispatch_.SignalAll();
  return futures;
}

std::future<Response> QuerySession::SubmitWrite(Request request) {
  PendingWrite write;
  std::visit(
      [&](auto&& payload) {
        using P = std::decay_t<decltype(payload)>;
        if constexpr (std::is_same_v<P, InsertPayload>) {
          write.kind = PendingWrite::Kind::kInsert;
          write.payload = std::move(payload.object);
        } else if constexpr (std::is_same_v<P, RemovePayload>) {
          write.kind = PendingWrite::Kind::kRemove;
          write.remove_id = payload.id;
        } else if constexpr (std::is_same_v<P, BatchUpdatePayload>) {
          write.kind = PendingWrite::Kind::kBatchUpdate;
          write.payload = std::move(payload.inserts);
          write.removals = std::move(payload.removals);
        } else if constexpr (std::is_same_v<P, RebuildPayload>) {
          write.kind = PendingWrite::Kind::kRebuild;
        } else {
          // Reads take the SubmitBatch path.
          static_assert(std::is_same_v<P, RangePayload> ||
                        std::is_same_v<P, KnnPayload> ||
                        std::is_same_v<P, KnnApproxPayload>);
        }
      },
      std::move(request.payload));
  auto future = write.promise.get_future();

  if (write.kind == PendingWrite::Kind::kInsert &&
      write.payload.size() != 1) {
    write.promise.set_value(Response{
        InsertResult(Status::InvalidArgument("insert index out of range"))});
    return future;
  }

  MutexLock lock(&mu_);
  if (stop_) {
    const Status stopped = Status::ResourceExhausted("session stopped");
    write.promise.set_value(write.kind == PendingWrite::Kind::kInsert
                                ? Response{InsertResult(stopped)}
                                : Response{UpdateResult(stopped)});
    return future;
  }
  // Updates are applied in submission order regardless of deadline, but
  // the envelope's target is recorded so a fan-out layer (the sharded
  // frontend's BatchUpdate/Rebuild scatter) can be audited end to end.
  if (request.deadline_micros > 0) ++stats_.writer_deadline_carried;
  writes_.push_back(std::move(write));
  cv_dispatch_.SignalAll();
  return future;
}

void QuerySession::Flush() {
  MutexLock lock(&mu_);
  // Only nudge when something is queued: a stale flush_now_ would turn
  // the next submission into a degenerate singleton batch.
  if (reads_.empty()) return;
  flush_now_ = true;
  cv_dispatch_.SignalAll();
}

void QuerySession::Drain() {
  MutexLock lock(&mu_);
  if (!reads_.empty()) {
    flush_now_ = true;
    cv_dispatch_.SignalAll();
  }
  while (!(reads_.empty() && writes_.empty() && !busy_)) {
    cv_drained_.Wait(&mu_);
  }
}

void QuerySession::DispatchLoop() {
  // The dispatcher holds mu_ for the whole loop except the off-lock
  // RunWriter/RunFlush windows; explicit Lock/Unlock (rather than a
  // scoped MutexLock) keeps those windows expressible — the analysis
  // checks the lock is held at the loop head and released on return.
  mu_.Lock();
  for (;;) {
    while (!stop_ && reads_.empty() && writes_.empty()) {
      cv_dispatch_.Wait(&mu_);
    }
    if (stop_ && reads_.empty() && writes_.empty()) {
      mu_.Unlock();
      return;
    }

    // Writes first: every queued update is applied, in submission order,
    // before the next read flush is composed. A queued writer therefore
    // waits for at most the one flush that was already in flight when it
    // arrived — and since the index's read path is lock-free, applying it
    // contends with nothing; in-flight readers keep their pinned versions.
    if (!writes_.empty()) {
      std::vector<PendingWrite> writes;
      writes.swap(writes_);
      busy_ = true;
      mu_.Unlock();
      for (PendingWrite& w : writes) RunWriter(&w);
      mu_.Lock();
      busy_ = false;
      stats_.writer_ops += writes.size();
      cv_drained_.SignalAll();
      continue;
    }
    if (reads_.empty()) continue;

    // Dynamic batching: wait for the batch to fill or the oldest entry's
    // max-wait expiry — unless already full, nudged, stopping, or a writer
    // is queued (writes go first). The oldest entry is found by scan:
    // an EDF sort at a previous flush may have reordered the queue, so the
    // front is not necessarily the earliest arrival.
    if (reads_.size() < options_.max_batch && !flush_now_ && !stop_ &&
        writes_.empty()) {
      auto oldest = reads_.front().enqueued_at;
      for (const PendingRead& r : reads_) {
        oldest = std::min(oldest, r.enqueued_at);
      }
      const auto wait_until =
          oldest + std::chrono::microseconds(options_.max_wait_micros);
      while (!stop_ && !flush_now_ && writes_.empty() &&
             reads_.size() < options_.max_batch) {
        if (cv_dispatch_.WaitUntil(&mu_, wait_until)) break;  // timed out
      }
      if (reads_.empty()) continue;
    }

    const size_t take =
        std::min<size_t>(reads_.size(), options_.max_batch);
    // EDF composition: when the backlog exceeds the batch and any queued
    // read carries an explicit deadline, drain the most urgent `take`
    // instead of the oldest. (With none, every EDF key is arrival +
    // no_deadline_slack, i.e. arrival order already; and a whole-queue
    // flush needs no ordering — every entry goes into the same
    // snapshot-pinned cycle either way.) The WHOLE queue is sorted, not
    // just the drained prefix: the tail must be left in EDF order so
    // that once the last explicit deadline drains, the skip-sort fast
    // path above pops the remaining deadline-free reads in their
    // documented submission order (a partial_sort's unspecified tail
    // would scramble them).
    if (queued_deadlines_ > 0 && take < reads_.size()) {
      std::sort(reads_.begin(), reads_.end(),
                [](const PendingRead& a, const PendingRead& b) {
                  if (a.deadline != b.deadline) return a.deadline < b.deadline;
                  return a.seq < b.seq;  // unique: a total order
                });
    }
    std::vector<PendingRead> batch;
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      if (reads_.front().has_deadline) --queued_deadlines_;
      batch.push_back(std::move(reads_.front()));
      reads_.pop_front();
    }
    if (reads_.empty()) flush_now_ = false;
    ++stats_.flushes;
    busy_ = true;
    cv_space_.SignalAll();  // admission room freed
    mu_.Unlock();
    RunFlush(&batch);
    mu_.Lock();
    busy_ = false;
    stats_.completed += batch.size();
    cv_drained_.SignalAll();
  }
}

void QuerySession::RunWriter(PendingWrite* write) {
  switch (write->kind) {
    case PendingWrite::Kind::kInsert:
      write->promise.set_value(
          Response{InsertResult(index_->Insert(write->payload, 0))});
      break;
    case PendingWrite::Kind::kRemove:
      write->promise.set_value(
          Response{UpdateResult(index_->Remove(write->remove_id))});
      break;
    case PendingWrite::Kind::kBatchUpdate:
      write->promise.set_value(Response{
          UpdateResult(index_->BatchUpdate(write->payload, write->removals))});
      break;
    case PendingWrite::Kind::kRebuild:
      write->promise.set_value(Response{UpdateResult(index_->Rebuild())});
      break;
  }
}

void QuerySession::RunFlush(std::vector<PendingRead>* batch) {
  if (options_.on_flush) {
    std::vector<uint64_t> seqs;
    seqs.reserve(batch->size());
    for (const PendingRead& item : *batch) seqs.push_back(item.seq);
    options_.on_flush(seqs);
  }

  // Injection sites (common/fault.h; disarmed = one relaxed load each).
  // A `session.flush-delay` fire stalls this whole flush cycle — the
  // slow-replica case the frontend's per-attempt deadline failover
  // exists for. A `session.flush` fire fails the cycle: every promise
  // resolves kUnavailable, the retryable signal the sharded frontend
  // fails over on. The failure happens BEFORE any query executes, so an
  // injected "dead replica" does no work and diverges no state.
  fault::Registry& faults = fault::Registry::Instance();
  const uint64_t stall =
      faults.TripDelayMicros("session.flush-delay", options_.fault_key);
  if (stall > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(stall));
  }
  if (faults.Trip("session.flush", options_.fault_key)) {
    const Status down =
        Status::Unavailable("injected fault: session.flush");
    const auto now = Clock::now();
    MutexLock lock(&mu_);
    for (PendingRead& item : *batch) {
      item.promise.set_value(ReadError(item, down));
      if (item.has_deadline && now > item.deadline) {
        ++stats_.deadline_missed;
      }
    }
    return;
  }

  // Coalesce into homogeneous groups: all range queries form one batched
  // call; kNN queries group by (k, candidate_fraction), the parameters a
  // batched call shares.
  std::vector<size_t> range_items;
  std::map<std::pair<uint32_t, double>, std::vector<size_t>> knn_groups;
  for (size_t i = 0; i < batch->size(); ++i) {
    const PendingRead& item = (*batch)[i];
    if (item.kind == PendingRead::Kind::kRange) {
      range_items.push_back(i);
    } else {
      knn_groups[{item.k, item.candidate_fraction}].push_back(i);
    }
  }

  // Pin one snapshot for the whole cycle: every query of this flush —
  // across groups and shards, on any worker thread — observes the same
  // index version. The pin is an epoch guard, not a lock: it costs one
  // CAS, never blocks, and never delays the updates the dispatcher will
  // apply right after this cycle. Anchoring declares the cycle's shard
  // tasks one concurrent device wave: their modeled times fold as a
  // parallel makespan even on a host with fewer cores than workers
  // (each task makes exactly one query call, so nothing serial folds).
  GtsIndex::ReadSnapshot snapshot = index_->SnapshotForRead();
  snapshot.AnchorClock();

  struct ShardTask {
    const std::vector<size_t>* items;
    uint32_t begin, end;
    bool is_range;
    uint32_t k = 0;
    double fraction = 1.0;
  };
  std::vector<ShardTask> tasks;
  const auto shard_group = [&](const std::vector<size_t>& items,
                               bool is_range, uint32_t k, double fraction) {
    for (const auto& [begin, end] :
         executor_->ShardBounds(static_cast<uint32_t>(items.size()))) {
      tasks.push_back(ShardTask{&items, begin, end, is_range, k, fraction});
    }
  };
  shard_group(range_items, /*is_range=*/true, 0, 1.0);
  for (const auto& [key, items] : knn_groups) {
    shard_group(items, /*is_range=*/false, key.first, key.second);
  }

  CountdownLatch latch(tasks.size());
  // Per-item resolution instants, written by the task that resolves the
  // item and read after the latch (the latch's lock orders the accesses):
  // a fast group's reads must not be charged a slow sibling group's
  // finish time in the deadline/latency accounting below.
  std::vector<Clock::time_point> resolved_at(batch->size());
  std::vector<std::function<void()>> fns;
  fns.reserve(tasks.size());
  for (const ShardTask& task : tasks) {
    fns.push_back([batch, &snapshot, &latch, &task, &resolved_at] {
      // Reassemble this shard's one-object queries into one batch.
      Dataset queries = (*batch)[(*task.items)[task.begin]].query;
      for (uint32_t i = task.begin + 1; i < task.end; ++i) {
        queries.AppendFrom((*batch)[(*task.items)[i]].query, 0);
      }
      // Resolves the task's items from the batched call's per-query
      // results, in the alternative of the result type.
      const auto resolve = [&](auto res) {
        using Batch = std::decay_t<decltype(res.value())>;
        using One = Result<typename Batch::value_type>;
        for (uint32_t i = task.begin; i < task.end; ++i) {
          (*batch)[(*task.items)[i]].promise.set_value(
              res.ok() ? Response{One(std::move(res.value()[i - task.begin]))}
                       : Response{One(res.status())});
        }
      };
      // Per-query radius (range) or kNN cap: the sharded frontend's refined
      // scatter sets caps, and bound-capped reads ride the same coalesced
      // call — grouping stays keyed on (k, fraction) only (+inf = no cap).
      std::vector<float> params(task.end - task.begin);
      for (uint32_t i = task.begin; i < task.end; ++i) {
        const PendingRead& item = (*batch)[(*task.items)[i]];
        params[i - task.begin] = task.is_range ? item.radius : item.bound_cap;
      }
      if (task.is_range) {
        resolve(snapshot.RangeQueryBatch(queries, params));
      } else {
        resolve(snapshot.KnnQueryBatch(
            queries, task.k, nullptr,
            KnnOptions{.candidate_fraction = task.fraction,
                       .initial_bounds = params}));
      }
      const auto done = Clock::now();
      for (uint32_t i = task.begin; i < task.end; ++i) {
        resolved_at[(*task.items)[i]] = done;
      }
      latch.CountDown();
    });
  }
  // Batched scatter: the whole cycle's shard tasks enter the pool under
  // one lock acquisition and one pool-wide wake.
  executor_->Submit(std::move(fns));
  latch.Wait();

  // Every promise of this flush is resolved; charge each item's latency
  // and deadline accounting at its own group's resolution instant.
  MutexLock lock(&mu_);
  for (size_t i = 0; i < batch->size(); ++i) {
    const PendingRead& item = (*batch)[i];
    const double ms = std::chrono::duration<double, std::milli>(
                          resolved_at[i] - item.enqueued_at)
                          .count();
    if (latency_ms_.size() < kLatencyWindow) {
      latency_ms_.push_back(ms);
    } else {
      latency_ms_[latency_next_] = ms;
    }
    latency_next_ = (latency_next_ + 1) % kLatencyWindow;
    if (item.has_deadline && resolved_at[i] > item.deadline) {
      ++stats_.deadline_missed;
    }
  }
  stats_.coalesced_batches += (range_items.empty() ? 0 : 1) + knn_groups.size();
}

}  // namespace gts::serve
