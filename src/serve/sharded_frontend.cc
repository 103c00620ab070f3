#include "serve/sharded_frontend.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/fault.h"

namespace gts::serve {

namespace {

/// FNV-1a over a byte range — stable across processes and platforms, so
/// insert routing is reproducible (unlike std::hash, which libstdc++ may
/// seed differently).
uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr float kInf = std::numeric_limits<float>::infinity();

/// MergeShards limit of a range read: every hit is kept.
constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();

/// Floor for a failover attempt's deadline slice: below this the retry
/// budget math would spin through replicas faster than a flush can serve.
constexpr int64_t kMinAttemptSliceMicros = 50;

/// An error response in the SAME alternative `like` holds — the
/// injected-drop paths have a successful response in hand but must report
/// it lost, and the alternative has to keep matching the request's
/// payload family (request.h's ErrorResponse contract).
Response SameAlternativeError(const Response& like, Status status) {
  return std::visit(
      [&](const auto& r) -> Response {
        using T = std::decay_t<decltype(r)>;
        return Response{T(std::move(status))};
      },
      like.result);
}

/// One queried shard's answer to a scatter read, in shard-local ids.
using ShardAnswer = std::pair<uint32_t, Response>;

/// The id an answer entry carries: a range hit, or a kNN neighbor's.
uint32_t& IdOf(uint32_t& id) { return id; }
uint32_t& IdOf(Neighbor& nb) { return nb.id; }

/// The canonical result order: ascending id for range (search_range.cc
/// sorts each per-query result), ascending (dist, id) for kNN (the order
/// GtsIndex::KnnQueryBatch maintains internally).
bool CanonicalLess(uint32_t a, uint32_t b) { return a < b; }
bool CanonicalLess(const Neighbor& a, const Neighbor& b) {
  if (a.dist != b.dist) return a.dist < b.dist;
  return a.id < b.id;
}

/// The one gather merge of every scatter read (T = uint32_t for range,
/// Neighbor for kNN): remaps each shard's answer to global ids, sorts the
/// union in the canonical order and keeps the first `limit` entries.
/// Selection by a total order commutes with partitioning, so on a
/// round-robin partition the merge is byte-identical to a single index
/// over the whole corpus. Pruned shards contribute nothing by
/// construction (their balls cannot intersect the query ball), and capped
/// kNN shards only dropped neighbors strictly beyond the bound, which the
/// truncation would discard anyway. The first failing answer (in order) or
/// overflowing global id fails the read.
template <typename T>
Response MergeShards(std::vector<ShardAnswer> answers, uint32_t num_shards,
                     size_t limit) {
  using Part = Result<std::vector<T>>;
  std::vector<T> merged;
  for (auto& [shard, answer] : answers) {
    Part& part = std::get<Part>(answer.result);
    if (!part.ok()) return Response{Part(part.status())};
    for (T entry : part.value()) {
      auto gid = ShardedFrontend::ComposeGlobalId(IdOf(entry), shard,
                                                  num_shards);
      if (!gid.ok()) return Response{Part(gid.status())};
      IdOf(entry) = gid.value();
      merged.push_back(entry);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const T& a, const T& b) { return CanonicalLess(a, b); });
  if (merged.size() > limit) merged.resize(limit);
  return Response{Part(std::move(merged))};
}

}  // namespace

// Shared gather state of one SubmitBatch call's exact-kNN reads. Phase 1
// (the seed sub-queries) is submitted by SubmitBatch; phase 2 is run by
// the phase-2 driver or the first gather, whichever gets there first —
// under the mutex it collects every item's seed result (with failover),
// derives the per-item bound, prunes the deferred shards the bound
// disqualifies, and fans the survivors out as ONE batched submission per
// shard for the whole group. Later gathers (and the rest of the first
// one) only touch their own item.
struct ShardedFrontend::KnnScatter {
  struct Item {
    Dataset query = Dataset::Strings();  ///< one-object copy for phase 2
    uint32_t k = 0;
    float client_cap = kInf;  ///< the request's own bound_cap
    uint64_t deadline_micros = 0;
    SubRead seed;  ///< phase-1 sub-query on the seed shard
    /// Non-seed candidate shards and their lower bounds d(q, pivot) - r.
    std::vector<std::pair<uint32_t, float>> deferred;
    // Filled by RunPhase2:
    KnnResult seed_result{std::vector<Neighbor>{}};
    std::vector<SubRead> phase2;
  };

  ShardedFrontend* frontend = nullptr;
  Mutex mu;
  bool phase2_done GUARDED_BY(mu) = false;
  /// Written before the scatter is shared; after RunPhase2 flips
  /// phase2_done each gather touches only its own item (items is
  /// deliberately not guarded — the mutex serializes only phase 2).
  std::vector<Item> items;

  /// Idempotent; the first caller does the work.
  void RunPhase2() REQUIRES(mu) {
    if (phase2_done) return;
    phase2_done = true;
    const uint32_t n = frontend->num_shards();
    // Collect every seed first: the whole group's phase-2 submissions
    // coalesce below, so no item's phase 2 can start before the slowest
    // seed anyway — and the seeds all ride one session flush cycle.
    // AwaitRead fails a dead seed replica over before the seed resolves.
    for (Item& item : items) {
      item.seed_result = std::move(frontend->AwaitRead(&item.seed).knn());
    }
    std::vector<std::vector<Request>> shard_reqs(n);
    std::vector<std::vector<std::pair<size_t, size_t>>> placements(n);
    uint64_t pruned = 0;
    for (size_t i = 0; i < items.size(); ++i) {
      Item& item = items[i];
      if (!item.seed_result.ok()) {
        // The gather resolves with the seed's error regardless; the
        // deferred shards are never queried.
        pruned += item.deferred.size();
        continue;
      }
      // The seed's k-th distance bounds the global k-th from above only
      // once the seed produced k results; otherwise the client's own cap
      // is all that is proven.
      float cap = item.client_cap;
      if (item.k > 0 && item.seed_result.value().size() >= item.k) {
        cap = std::min(cap, item.seed_result.value().back().dist);
      }
      for (const auto& [shard, lb] : item.deferred) {
        // Strict: a shard whose bound touches the cap may hold ties that
        // beat the in-hand candidates on id order.
        if (lb > cap) {
          ++pruned;
          continue;
        }
        Request sub;
        sub.deadline_micros = item.deadline_micros;
        sub.payload = KnnPayload{item.query, item.k, cap};
        placements[shard].emplace_back(i, item.phase2.size());
        item.phase2.emplace_back();
        shard_reqs[shard].push_back(std::move(sub));
      }
    }
    frontend->pruned_.fetch_add(pruned, std::memory_order_relaxed);
    for (uint32_t s = 0; s < n; ++s) {
      if (shard_reqs[s].empty()) continue;
      auto subs = frontend->SubmitShardWave(s, std::move(shard_reqs[s]));
      for (size_t j = 0; j < subs.size(); ++j) {
        const auto [item, slot] = placements[s][j];
        items[item].phase2[slot] = std::move(subs[j]);
      }
    }
  }

  Response Gather(size_t idx) {
    {
      MutexLock lock(&mu);
      RunPhase2();
    }
    // After RunPhase2, each gather touches only its own item.
    Item& item = items[idx];
    std::vector<ShardAnswer> answers;
    answers.emplace_back(item.seed.shard,
                         Response{std::move(item.seed_result)});
    for (SubRead& sub : item.phase2) {
      answers.emplace_back(sub.shard, frontend->AwaitRead(&sub));
    }
    return MergeShards<Neighbor>(std::move(answers), frontend->num_shards(),
                                 item.k);
  }
};

ShardedFrontend::ShardedFrontend(std::vector<std::vector<GtsIndex*>> shards,
                                 FrontendOptions options)
    : options_(options) {
  // One pool-only executor shared by every replica session: the worker
  // budget is fixed no matter the shard or replica count (replication
  // adds availability, not compute).
  executor_ = std::make_unique<QueryExecutor>(
      nullptr, ExecutorOptions{options_.executor_threads, 0});
  // A malformed layout (no shards, a shard with no replicas, ragged
  // replica counts, a null index) yields a frontend with no shards —
  // every submission then errors.
  bool valid = !shards.empty();
  const size_t rf = valid ? shards[0].size() : 0;
  valid &= rf > 0;
  for (const auto& replicas : shards) {
    valid &= replicas.size() == rf;
    for (const GtsIndex* index : replicas) valid &= index != nullptr;
  }
  if (valid) {
    groups_.reserve(shards.size());
    for (auto& replicas : shards) {
      auto group = std::make_unique<ReplicaGroup>(rf);
      group->replicas.reserve(rf);
      for (size_t r = 0; r < rf; ++r) {
        // The replica index is the session's fault key, so a test can
        // address "replica 1 of every shard" through one fault site.
        SessionOptions session = options_.session;
        session.fault_key = r;
        group->replicas.push_back(std::make_unique<QuerySession>(
            replicas[r], executor_.get(), session));
        group->healthy[r].store(true, std::memory_order_relaxed);
      }
      groups_.push_back(std::move(group));
    }
  }
  driver_ = std::thread([this] { DriverLoop(); });
}

ShardedFrontend::~ShardedFrontend() {
  {
    MutexLock lock(&driver_mu_);
    driver_stop_ = true;
  }
  driver_cv_.SignalAll();
  driver_.join();
  // Session destructors drain; explicit reset before the executor dies.
  groups_.clear();
}

void ShardedFrontend::DriverLoop() {
  for (;;) {
    std::shared_ptr<KnnScatter> state;
    {
      MutexLock lock(&driver_mu_);
      while (!driver_stop_ && driver_queue_.empty()) {
        driver_cv_.Wait(&driver_mu_);
      }
      if (driver_queue_.empty()) return;  // stop requested, queue drained
      state = std::move(driver_queue_.front());
      driver_queue_.pop_front();
    }
    // Blocks on the group's seed futures, then submits its phase-2
    // fan-out. A caller that gathered first already did both (the flag
    // makes this a no-op); a caller gathering concurrently waits on the
    // state mutex, exactly as if it had raced another gatherer.
    MutexLock lock(&state->mu);
    state->RunPhase2();
  }
}

uint32_t ShardedFrontend::replication_factor() const {
  return groups_.empty()
             ? 0
             : static_cast<uint32_t>(groups_[0]->replicas.size());
}

QuerySession* ShardedFrontend::session(uint32_t shard, uint32_t replica) {
  if (shard >= groups_.size()) return nullptr;
  if (replica >= groups_[shard]->replicas.size()) return nullptr;
  return groups_[shard]->replicas[replica].get();
}

uint32_t ShardedFrontend::ShardForObject(const Dataset& src,
                                         uint32_t idx) const {
  uint64_t h = 1469598103934665603ull;
  if (src.kind() == DataKind::kFloatVector) {
    const auto v = src.Vector(idx);
    h = Fnv1a(h, v.data(), v.size_bytes());
  } else {
    const auto s = src.String(idx);
    h = Fnv1a(h, s.data(), s.size());
  }
  return static_cast<uint32_t>(h % num_shards());
}

Result<uint32_t> ShardedFrontend::ComposeGlobalId(uint64_t local,
                                                  uint32_t shard,
                                                  uint32_t num_shards) {
  const uint64_t global = local * num_shards + shard;
  if (global > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "global id overflows the 32-bit id space");
  }
  return static_cast<uint32_t>(global);
}

// --- Replica picking and failover ------------------------------------------

uint32_t ShardedFrontend::PickReplica(uint32_t shard) {
  ReplicaGroup& group = *groups_[shard];
  const uint32_t rf = static_cast<uint32_t>(group.replicas.size());
  if (rf == 1) return 0;  // nothing to pick (and no counters to move)
  // Probe cadence first: every probe_period-th pick of this shard is
  // offered to an unhealthy replica (if any), so a recovered replica is
  // rediscovered without a caller ever opting in.
  const uint32_t pick = group.picks.fetch_add(1, std::memory_order_relaxed);
  if (options_.probe_period > 0 && (pick + 1) % options_.probe_period == 0) {
    for (uint32_t r = 0; r < rf; ++r) {
      if (!group.healthy[r].load(std::memory_order_relaxed)) {
        health_probes_.fetch_add(1, std::memory_order_relaxed);
        return r;
      }
    }
  }
  const uint32_t start = group.rr.fetch_add(1, std::memory_order_relaxed);
  for (uint32_t i = 0; i < rf; ++i) {
    const uint32_t r = (start + i) % rf;
    if (group.healthy[r].load(std::memory_order_relaxed)) return r;
  }
  // Nothing is healthy: serve anyway (degraded) — a marked-unhealthy
  // replica may well answer, and failing fast here would turn a health
  // blip into an outage.
  degraded_reads_.fetch_add(1, std::memory_order_relaxed);
  return start % rf;
}

uint32_t ShardedFrontend::NextReplica(uint32_t shard, uint32_t after) {
  ReplicaGroup& group = *groups_[shard];
  const uint32_t rf = static_cast<uint32_t>(group.replicas.size());
  for (uint32_t i = 1; i < rf; ++i) {
    const uint32_t r = (after + i) % rf;
    if (group.healthy[r].load(std::memory_order_relaxed)) return r;
  }
  degraded_reads_.fetch_add(1, std::memory_order_relaxed);
  return (after + 1) % rf;
}

void ShardedFrontend::MarkReplicaResult(uint32_t shard, uint32_t replica,
                                        bool served) {
  ReplicaGroup& group = *groups_[shard];
  // CAS so only the attempt that actually flips the flag counts the
  // transition (concurrent gathers may mark the same replica at once).
  bool expected = !served;
  if (group.healthy[replica].compare_exchange_strong(
          expected, served, std::memory_order_relaxed)) {
    if (served) {
      replica_recoveries_.fetch_add(1, std::memory_order_relaxed);
    } else {
      unhealthy_transitions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::vector<ShardedFrontend::SubRead> ShardedFrontend::SubmitShardWave(
    uint32_t shard, std::vector<Request> requests) {
  ReplicaGroup& group = *groups_[shard];
  const uint32_t replica = PickReplica(shard);
  // Failover needs the requests back verbatim; an unreplicated shard has
  // nowhere to fail over to, so the copies are skipped.
  const bool keep = group.replicas.size() > 1;
  std::vector<Request> copies;
  if (keep) copies = requests;
  auto futures = group.replicas[replica]->SubmitBatch(std::move(requests));
  std::vector<SubRead> subs(futures.size());
  for (size_t j = 0; j < futures.size(); ++j) {
    subs[j].shard = shard;
    subs[j].replica = replica;
    if (keep) subs[j].request = std::move(copies[j]);
    subs[j].future = std::move(futures[j]);
  }
  return subs;
}

Response ShardedFrontend::AwaitRead(SubRead* sub) {
  ReplicaGroup& group = *groups_[sub->shard];
  // One attempt per replica of the shard.
  const auto budget = static_cast<uint32_t>(group.replicas.size());
  const auto start = std::chrono::steady_clock::now();
  bool first_retry = true;
  for (uint32_t attempt = 1;; ++attempt) {
    const bool last = attempt >= budget;
    // A deadline-enveloped read splits its REMAINING budget evenly over
    // the attempts still possible; an attempt that exceeds its slice is
    // abandoned (the replica may still resolve the promise later — the
    // shared state outlives the failover) and the read moves on. Reads
    // with no deadline wait indefinitely: only an unavailable answer
    // fails over. The last attempt always blocks to a result, so a read
    // never comes back empty-handed merely because the budget ran out.
    bool timed_out = false;
    if (!last && sub->request.deadline_micros > 0) {
      const int64_t elapsed =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      const int64_t remaining =
          static_cast<int64_t>(sub->request.deadline_micros) - elapsed;
      int64_t slice = remaining / static_cast<int64_t>(budget - attempt + 1);
      if (slice < kMinAttemptSliceMicros) slice = kMinAttemptSliceMicros;
      timed_out = sub->future.wait_for(std::chrono::microseconds(slice)) !=
                  std::future_status::ready;
    }
    if (!timed_out) {
      Response response = sub->future.get();
      // Injection site: the gather loses this replica's answer in
      // flight. Keyed by replica, so "kill replica 1 of every shard" is
      // one armed site.
      const bool dropped =
          fault::Registry::Instance().Trip("shard.read", sub->replica);
      const bool unavailable =
          dropped || (!response.ok() &&
                      response.status().code() == StatusCode::kUnavailable);
      if (!unavailable) {
        // Non-unavailable errors (invalid argument, quota) pass through:
        // every replica holds identical content and would answer them
        // identically — retrying elsewhere cannot help.
        MarkReplicaResult(sub->shard, sub->replica, /*served=*/true);
        return response;
      }
      MarkReplicaResult(sub->shard, sub->replica, /*served=*/false);
      if (last) {
        if (dropped && response.ok()) {
          return SameAlternativeError(
              response, Status::Unavailable("injected fault: shard.read"));
        }
        return response;
      }
    } else {
      MarkReplicaResult(sub->shard, sub->replica, /*served=*/false);
    }
    if (first_retry) {
      first_retry = false;
      failovers_.fetch_add(1, std::memory_order_relaxed);
    }
    read_retries_.fetch_add(1, std::memory_order_relaxed);
    sub->replica = NextReplica(sub->shard, sub->replica);
    Request retry = sub->request;  // resubmitted verbatim
    sub->future = group.replicas[sub->replica]->Submit(std::move(retry));
  }
}

// --- Write fan-out ----------------------------------------------------------

std::vector<std::future<Response>> ShardedFrontend::FanWrite(
    uint32_t shard, const Request& request) {
  ReplicaGroup& group = *groups_[shard];
  std::vector<std::future<Response>> acks;
  acks.reserve(group.replicas.size());
  // The write mutex pins one cross-replica apply order per shard: every
  // replica's writer sees this shard's updates in the SAME sequence, so
  // local ids never diverge and replica content stays byte-identical.
  // Health is deliberately ignored — skipping an unhealthy replica would
  // silently fork its content, which is strictly worse than a failed ack.
  MutexLock lock(&group.write_mu);
  for (auto& replica : group.replicas) {
    Request copy = request;
    acks.push_back(replica->Submit(std::move(copy)));
  }
  return acks;
}

Status ShardedFrontend::GatherAcks(uint32_t shard,
                                   std::vector<std::future<Response>>* acks,
                                   std::vector<Response>* replies) {
  std::vector<Response> own;
  if (replies == nullptr) replies = &own;
  fault::Registry& faults = fault::Registry::Instance();
  const auto rf = static_cast<uint32_t>(acks->size());
  std::vector<uint32_t> failed;
  for (uint32_t r = 0; r < rf; ++r) {
    Response reply = (*acks)[r].get();
    // Injection site: the replica APPLIED the write, its ack was lost —
    // replica content stays identical, only the acknowledgement degrades.
    // (This is why the site lives at the gather, after the apply.)
    if (reply.ok() && faults.Trip("shard.write-ack", r)) {
      reply = SameAlternativeError(
          reply, Status::Unavailable("injected fault: shard.write-ack"));
    }
    if (!reply.ok()) failed.push_back(r);
    replies->push_back(std::move(reply));
  }
  if (failed.empty()) return Status::Ok();
  const Status first = (*replies)[failed[0]].status();
  if (failed.size() == rf) {
    // Unanimous identical rejection: at one replica this is the plain
    // pass-through of the session's answer.
    bool uniform = first.code() != StatusCode::kUnavailable;
    for (const uint32_t r : failed) {
      uniform &= (*replies)[r].status().code() == first.code();
    }
    if (uniform) return first;
  } else {
    partial_write_acks_.fetch_add(1, std::memory_order_relaxed);
  }
  std::string msg = "shard " + std::to_string(shard) +
                    " write ack failed on replica set {";
  for (size_t i = 0; i < failed.size(); ++i) {
    if (i > 0) msg += ",";
    msg += std::to_string(failed[i]);
  }
  msg += "}: " + first.message();
  return Status::Unavailable(std::move(msg));
}

std::future<Response> ShardedFrontend::GatherStatus(
    std::vector<std::vector<std::future<Response>>> acks) {
  return std::async(
      std::launch::deferred, [this, acks = std::move(acks)]() mutable {
        Status first_bad = Status::Ok();
        // Every shard's acks are gathered even after a failure — each
        // replica's outcome must land in the health/ack accounting.
        for (uint32_t s = 0; s < acks.size(); ++s) {
          if (acks[s].empty()) continue;
          Status status = GatherAcks(s, &acks[s]);
          if (!status.ok() && first_bad.ok()) first_bad = std::move(status);
        }
        return Response{UpdateResult(std::move(first_bad))};
      });
}

// --- The unified entry points ----------------------------------------------

std::future<Response> ShardedFrontend::Submit(Request request) {
  if (groups_.empty() || !request.is_read()) {
    return SubmitUpdate(std::move(request));
  }
  std::vector<Request> one;
  one.push_back(std::move(request));
  auto futures = SubmitBatch(std::move(one));
  return std::move(futures[0]);
}

std::vector<std::future<Response>> ShardedFrontend::SubmitBatch(
    std::vector<Request> requests) {
  std::vector<std::future<Response>> futures(requests.size());
  const uint32_t n = num_shards();
  if (n == 0) {
    for (size_t i = 0; i < requests.size(); ++i) {
      futures[i] = ResolvedFuture(ErrorResponse(
          requests[i], Status::InvalidArgument("frontend has no shards")));
    }
    return futures;
  }

  // Pin one snapshot per shard for the whole planning pass: every pruning
  // decision of this batch reads one consistent ball + routing distance
  // per shard. Planning reads the PRIMARY replica's version — replicas
  // are content-identical, so any one of them is authoritative for
  // routing. (The replica sessions still pin their own flush-time
  // versions for the queries themselves.)
  const GtsIndex& primary = *groups_[0]->replicas[0]->index();
  std::vector<GtsIndex::ReadSnapshot> snaps;
  bool any_read = false;
  for (const Request& r : requests) any_read |= r.is_read();
  if (any_read) {
    snaps.reserve(n);
    for (auto& group : groups_) {
      snaps.push_back(group->replicas[0]->index()->SnapshotForRead());
      // The batch's routing probes against this shard are one
      // concurrent probe wave, not a serial chain (AnchorClock).
      snaps.back().AnchorClock();
    }
  }

  // --- Plan: decide, per read, which shards to query -------------------
  struct GatherRef {
    uint32_t shard;
    size_t pos;  // index into shard_reqs[shard]
  };
  struct ScatterPlan {
    size_t index;  // position in requests/futures
    bool is_range;
    uint32_t k = 0;  // kNN truncation (unused for range)
    std::vector<GatherRef> subs;
  };
  struct KnnPlan {
    size_t index;  // position in requests/futures
    size_t item;   // KnnScatter item
    GatherRef seed;
  };
  std::vector<ScatterPlan> scatter_plans;
  std::vector<KnnPlan> knn_plans;
  std::shared_ptr<KnnScatter> knn_state;
  std::vector<std::vector<Request>> shard_reqs(n);

  // Queues one sub-query of `request` (same deadline) on shard `s`.
  const auto add_sub = [&](uint32_t s, const Request& request,
                           RequestPayload payload) {
    Request sub;
    sub.deadline_micros = request.deadline_micros;
    sub.payload = std::move(payload);
    shard_reqs[s].push_back(std::move(sub));
    return GatherRef{s, shard_reqs[s].size() - 1};
  };

  for (size_t i = 0; i < requests.size(); ++i) {
    Request& request = requests[i];
    if (!request.is_read()) {
      futures[i] = SubmitUpdate(std::move(request));
      continue;
    }
    // The same predicate QuerySession applies, so a rejected read never
    // reaches the planner.
    if (!ValidRead(request, primary)) {
      futures[i] = ResolvedFuture(ErrorResponse(
          request,
          Status::InvalidArgument("query object invalid for this index")));
      continue;
    }
    scatter_reads_.fetch_add(1, std::memory_order_relaxed);

    // Approximate kNN always fans to every shard (file comment).
    if (const auto* approx = std::get_if<KnnApproxPayload>(&request.payload)) {
      ScatterPlan plan{i, /*is_range=*/false, approx->k, {}};
      for (uint32_t s = 0; s < n; ++s) {
        plan.subs.push_back(add_sub(s, request, *approx));
      }
      scatter_plans.push_back(std::move(plan));
      continue;
    }

    if (const auto* range = std::get_if<RangePayload>(&request.payload)) {
      ScatterPlan plan{i, /*is_range=*/true, 0, {}};
      uint64_t pruned = 0;
      for (uint32_t s = 0; s < n; ++s) {
        const CoveringBall ball = snaps[s].covering_ball();
        // An emptied shard keeps a stale (conservative) ball after
        // removals; the alive count catches it either way.
        if (snaps[s].alive_size() == 0 || !ball.valid) {
          ++pruned;
          continue;
        }
        const float d = snaps[s].RoutingDistance(range->query, 0, ball.pivot);
        // Strict: a hit exactly at distance `radius` sits on the query
        // ball's boundary and must survive.
        if (d - ball.radius > range->radius) {
          ++pruned;
          continue;
        }
        plan.subs.push_back(add_sub(s, request, *range));
      }
      pruned_.fetch_add(pruned, std::memory_order_relaxed);
      if (plan.subs.empty()) {
        futures[i] =
            ResolvedFuture(Response{RangeResult(std::vector<uint32_t>{})});
      } else {
        scatter_plans.push_back(std::move(plan));
      }
      continue;
    }

    // Exact kNN: two-phase pruned scatter.
    auto* knn = std::get_if<KnnPayload>(&request.payload);
    if (knn->k == 0) {
      futures[i] =
          ResolvedFuture(Response{KnnResult(std::vector<Neighbor>{})});
      pruned_.fetch_add(n, std::memory_order_relaxed);
      continue;
    }
    std::vector<std::pair<uint32_t, float>> cands;  // (shard, lower bound)
    uint64_t pruned = 0;
    for (uint32_t s = 0; s < n; ++s) {
      const CoveringBall ball = snaps[s].covering_ball();
      if (snaps[s].alive_size() == 0 || !ball.valid) {
        ++pruned;
        continue;
      }
      const float d = snaps[s].RoutingDistance(knn->query, 0, ball.pivot);
      const float lb = d - ball.radius;  // may be negative
      if (lb > knn->bound_cap) {  // the client's own proven cap; strict
        ++pruned;
        continue;
      }
      cands.emplace_back(s, lb);
    }
    pruned_.fetch_add(pruned, std::memory_order_relaxed);
    if (cands.empty()) {
      futures[i] =
          ResolvedFuture(Response{KnnResult(std::vector<Neighbor>{})});
      continue;
    }
    size_t seed = 0;  // min lower bound; ties resolve to the lower shard
    for (size_t c = 1; c < cands.size(); ++c) {
      if (cands[c].second < cands[seed].second) seed = c;
    }
    if (!knn_state) {
      knn_state = std::make_shared<KnnScatter>();
      knn_state->frontend = this;
    }
    KnnScatter::Item item;
    item.k = knn->k;
    item.client_cap = knn->bound_cap;
    item.deadline_micros = request.deadline_micros;
    item.deferred.reserve(cands.size() - 1);
    for (size_t c = 0; c < cands.size(); ++c) {
      if (c != seed) item.deferred.push_back(cands[c]);
    }
    // Phase 1: the seed shard, under the client's cap only.
    const GatherRef seed_ref = add_sub(cands[seed].first, request, *knn);
    item.query = std::move(knn->query);
    knn_plans.push_back(KnnPlan{i, knn_state->items.size(), seed_ref});
    knn_state->items.push_back(std::move(item));
  }

  // --- Scatter: one batched submission per shard, to its picked replica
  std::vector<std::vector<SubRead>> shard_subs(n);
  for (uint32_t s = 0; s < n; ++s) {
    if (shard_reqs[s].empty()) continue;
    shard_subs[s] = SubmitShardWave(s, std::move(shard_reqs[s]));
  }

  // --- Gather: wire deferred merges (AwaitRead supplies the failover) --
  for (ScatterPlan& plan : scatter_plans) {
    std::vector<SubRead> subs;
    subs.reserve(plan.subs.size());
    for (const GatherRef& ref : plan.subs) {
      subs.push_back(std::move(shard_subs[ref.shard][ref.pos]));
    }
    futures[plan.index] = std::async(
        std::launch::deferred,
        [this, n, is_range = plan.is_range, k = plan.k,
         subs = std::move(subs)]() mutable -> Response {
          std::vector<ShardAnswer> answers;
          for (SubRead& sub : subs) {
            answers.emplace_back(sub.shard, AwaitRead(&sub));
          }
          if (is_range) {
            return MergeShards<uint32_t>(std::move(answers), n, kNoLimit);
          }
          return MergeShards<Neighbor>(std::move(answers), n, k);
        });
  }
  for (const KnnPlan& plan : knn_plans) {
    knn_state->items[plan.item].seed =
        std::move(shard_subs[plan.seed.shard][plan.seed.pos]);
    futures[plan.index] =
        std::async(std::launch::deferred,
                   [state = knn_state, item = plan.item]() -> Response {
                     return state->Gather(item);
                   });
  }
  if (knn_state) {
    // Hand the completed group to the phase-2 driver so the capped
    // fan-out starts as soon as the seeds land, not when the caller first
    // gathers (DriverLoop).
    {
      MutexLock lock(&driver_mu_);
      driver_queue_.push_back(knn_state);
    }
    driver_cv_.SignalOne();
  }
  return futures;
}

std::future<Response> ShardedFrontend::SubmitUpdate(Request request) {
  if (groups_.empty()) {
    return ResolvedFuture(ErrorResponse(
        request, Status::InvalidArgument("frontend has no shards")));
  }
  const uint32_t n = num_shards();

  if (const auto* insert = std::get_if<InsertPayload>(&request.payload)) {
    if (insert->object.size() != 1) {
      return ResolvedFuture(ErrorResponse(
          request, Status::InvalidArgument("insert object invalid")));
    }
    const uint32_t shard = ShardForObject(insert->object, 0);
    auto acks = FanWrite(shard, request);
    return std::async(
        std::launch::deferred,
        [this, n, shard, acks = std::move(acks)]() mutable -> Response {
          std::vector<Response> replies;
          Status verdict = GatherAcks(shard, &acks, &replies);
          // Every acked replica must have assigned the SAME local id — the
          // write mutex guarantees it; a mismatch means the replicas
          // forked and the global id would be a lie.
          const uint32_t* local = nullptr;
          for (const Response& reply : replies) {
            if (!reply.ok()) continue;
            if (local != nullptr && reply.inserted().value() != *local) {
              return Response{InsertResult(Status::Internal(
                  "replica local-id divergence on shard " +
                  std::to_string(shard)))};
            }
            local = &reply.inserted().value();
          }
          if (!verdict.ok()) return Response{InsertResult(std::move(verdict))};
          // An overflowing composition reports the error AFTER the shard
          // applied the insert — the id space is exhausted, not the
          // update rolled back.
          auto gid = ComposeGlobalId(*local, shard, n);
          if (!gid.ok()) return Response{InsertResult(gid.status())};
          return Response{InsertResult(gid.value())};
        });
  }
  if (auto* remove = std::get_if<RemovePayload>(&request.payload)) {
    // Id routing: shard and local id are both recoverable from the global
    // id. The removal fans to every replica of the owning shard, and the
    // gather demands every ack (file comment).
    const uint32_t shard = ShardOfId(remove->id);
    remove->id = LocalId(remove->id);
    auto acks = FanWrite(shard, request);
    return std::async(
        std::launch::deferred,
        [this, shard, acks = std::move(acks)]() mutable -> Response {
          return Response{UpdateResult(GatherAcks(shard, &acks))};
        });
  }
  if (const auto* batch = std::get_if<BatchUpdatePayload>(&request.payload)) {
    // Pre-validate the inserts against every shard BEFORE scattering: a
    // single index rejects an incompatible batch, or one holding a NaN or
    // infinite coordinate, before mutating anything (GtsIndex::BatchUpdate's
    // only pre-mutation checks), and the scatter must not let some shards
    // apply their sub-updates while another shard rejects.
    // Mid-update failures (a shard's memory budget, say) remain
    // per-shard — sharded atomicity without a 2PC is best-effort, and
    // the header says so. The primary replica stands in for the shard
    // (replicas share kind/dim by construction).
    for (const auto& group : groups_) {
      if (!batch->inserts.empty() &&
          !group->replicas[0]->index()->CompatibleData(batch->inserts)) {
        return ResolvedFuture(ErrorResponse(
            request, Status::InvalidArgument(
                         "inserted objects incompatible with dataset")));
      }
    }
    if (!batch->inserts.AllFinite(0, batch->inserts.size())) {
      return ResolvedFuture(ErrorResponse(
          request,
          Status::InvalidArgument("object coordinates must be finite")));
    }
    // Partition removals by id route and inserts by content hash, then
    // fan one BatchUpdate per shard — every shard reconstructs, matching
    // the single-index semantics (BatchUpdate always rebuilds). Each
    // sub-request inherits the envelope's deadline target, so a
    // deadline-audited fan-out is visible on every shard session
    // (SessionStats::writer_deadline_carried).
    std::vector<std::vector<uint32_t>> removals(n);
    for (const uint32_t id : batch->removals) {
      removals[ShardOfId(id)].push_back(LocalId(id));
    }
    std::vector<std::vector<uint32_t>> insert_ids(n);
    for (uint32_t i = 0; i < batch->inserts.size(); ++i) {
      insert_ids[ShardForObject(batch->inserts, i)].push_back(i);
    }
    std::vector<std::vector<std::future<Response>>> acks(n);
    for (uint32_t s = 0; s < n; ++s) {
      Request sub;
      sub.deadline_micros = request.deadline_micros;
      sub.payload = BatchUpdatePayload{batch->inserts.Slice(insert_ids[s]),
                                       std::move(removals[s])};
      acks[s] = FanWrite(s, sub);
    }
    return GatherStatus(std::move(acks));
  }
  // Rebuild: every shard (every replica) reconstructs, deadline target
  // included.
  std::vector<std::vector<std::future<Response>>> acks(n);
  for (uint32_t s = 0; s < n; ++s) {
    Request sub;
    sub.deadline_micros = request.deadline_micros;
    sub.payload = RebuildPayload{};
    acks[s] = FanWrite(s, sub);
  }
  return GatherStatus(std::move(acks));
}

void ShardedFrontend::Flush() {
  for (auto& group : groups_) {
    for (auto& replica : group->replicas) replica->Flush();
  }
}

void ShardedFrontend::Drain() {
  for (auto& group : groups_) {
    for (auto& replica : group->replicas) replica->Drain();
  }
}

FrontendStats ShardedFrontend::stats() const {
  FrontendStats out;
  const uint32_t rf = replication_factor();
  out.replication_factor = rf == 0 ? 1 : rf;
  out.shards.reserve(groups_.size() * rf);
  for (const auto& group : groups_) {
    for (const auto& replica : group->replicas) {
      const SessionStats s = replica->stats();
      out.submitted += s.submitted;
      out.rejected += s.rejected;
      out.completed += s.completed;
      out.writer_ops += s.writer_ops;
      out.deadline_missed += s.deadline_missed;
      out.shards.push_back(s);
    }
  }
  out.scatter_reads = scatter_reads_.load(std::memory_order_relaxed);
  out.pruned_shard_queries = pruned_.load(std::memory_order_relaxed);
  out.failovers = failovers_.load(std::memory_order_relaxed);
  out.read_retries = read_retries_.load(std::memory_order_relaxed);
  out.unhealthy_transitions =
      unhealthy_transitions_.load(std::memory_order_relaxed);
  out.health_probes = health_probes_.load(std::memory_order_relaxed);
  out.replica_recoveries =
      replica_recoveries_.load(std::memory_order_relaxed);
  out.degraded_reads = degraded_reads_.load(std::memory_order_relaxed);
  out.partial_write_acks =
      partial_write_acks_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace gts::serve
