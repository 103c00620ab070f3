// Multi-tenant session router — the serving front end over N GtsIndex
// instances (tenants or shards). Each tenant gets its own QuerySession
// (private bounded queue, private batcher, private deadline accounting);
// every tenant's flush cycles fan out over ONE shared pool-only
// QueryExecutor, so the worker budget is fixed no matter how many tenants
// are mounted. Routing is explicit: every serve::Request names its tenant
// id (Request::ForTenant), and one Submit(Request) entry point serves all
// seven operations; hash-routed sharding lives one layer up in
// serve::ShardedFrontend.
//
// Two isolation mechanisms stack on top of the per-session admission
// control:
//
//  - Structural queue isolation: tenant queues are disjoint, so a tenant
//    saturating its own bounded queue is rejected out of *its* queue and
//    cannot consume another tenant's admission room (the PR 3 single
//    shared queue had exactly that failure mode).
//  - Per-tenant inflight quota: `max_inflight_per_tenant` caps how many of
//    a tenant's reads may be admitted-but-unresolved at once, bounding the
//    share of the common worker pool one tenant can occupy. Quota
//    rejections resolve with kResourceExhausted and are counted separately
//    (TenantStats::quota_rejected) from queue rejections. The quota is
//    checked against a stats snapshot: concurrent submitters of the SAME
//    tenant can transiently overshoot by at most their count — a
//    best-effort bound, like most serving-side quotas.
//
// Deadlines pass straight through to the per-tenant sessions, which
// compose flushes earliest-deadline-first (see query_session.h); late
// resolutions are counted per tenant. RouterStats snapshots the whole
// plane: per-tenant counters, submit→resolve latency percentiles, and a
// consistent per-tenant index view read through GtsIndex::ReadSnapshot.
//
// Thread-safety: all submission entry points may be called from any number
// of threads concurrently. The tenant indexes must outlive the router;
// destroying the router drains every session.
#ifndef GTS_SERVE_SESSION_ROUTER_H_
#define GTS_SERVE_SESSION_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "core/gts.h"
#include "serve/query_executor.h"
#include "serve/query_session.h"
#include "serve/request.h"

namespace gts::serve {

struct RouterOptions {
  /// Per-tenant batcher/admission configuration; every tenant's
  /// QuerySession is constructed from this one template.
  SessionOptions session;
  /// Worker threads of the shared pool all tenants' flushes run on.
  /// 0 = std::thread::hardware_concurrency() (at least 1).
  uint32_t executor_threads = 4;
  /// Per-tenant quota: at most this many reads admitted but not yet
  /// resolved per tenant. 0 = no quota (each tenant is still bounded by
  /// its own session.max_queue).
  uint32_t max_inflight_per_tenant = 0;
};

/// One tenant's counters inside a RouterStats snapshot.
struct TenantStats {
  uint64_t submitted = 0;       ///< reads accepted into the tenant queue
  uint64_t rejected = 0;        ///< session-level rejections (queue/invalid)
  uint64_t quota_rejected = 0;  ///< router-level inflight-quota rejections
  uint64_t completed = 0;       ///< reads resolved
  uint64_t deadline_missed = 0; ///< reads resolved after their deadline
  uint64_t writer_ops = 0;      ///< update work items applied
  double p50_latency_ms = 0.0;  ///< submit→resolve, recent-window median
  double p95_latency_ms = 0.0;
  /// Snapshot-consistent tenant index size, read from the version current
  /// at sampling time. The poll pins an epoch guard — one CAS, never a
  /// lock — so a tenant mid-rebuild cannot stall it.
  uint64_t alive_objects = 0;
};

/// Whole-plane snapshot returned by SessionRouter::stats().
struct RouterStats {
  std::vector<TenantStats> tenants;
  uint64_t submitted = 0;        ///< sums over all tenants
  uint64_t rejected = 0;         ///< session + quota rejections
  uint64_t completed = 0;
  uint64_t deadline_missed = 0;

  /// Fraction of a tenant's submission attempts (accepted + rejected) that
  /// completed; 1.0 for a tenant with no attempts. The serve bench's
  /// fairness ratio is the minimum of this over the light tenants.
  double CompletionRatio(uint32_t tenant) const {
    const TenantStats& t = tenants[tenant];
    const uint64_t attempts = t.submitted + t.rejected + t.quota_rejected;
    if (attempts == 0) return 1.0;
    return static_cast<double>(t.completed) / static_cast<double>(attempts);
  }
};

/// The multi-tenant front door. See the file comment.
class SessionRouter {
 public:
  /// `tenants[i]` becomes tenant id `i`; every index must outlive the
  /// router. The indexes may share or differ in metric/device; each
  /// submission is validated against its own tenant's index.
  explicit SessionRouter(std::vector<GtsIndex*> tenants,
                         RouterOptions options = {});
  /// Drains every tenant session, then stops the shared pool.
  ~SessionRouter();
  SessionRouter(const SessionRouter&) = delete;
  SessionRouter& operator=(const SessionRouter&) = delete;

  /// Mounted tenants.
  uint32_t num_tenants() const {
    return static_cast<uint32_t>(tenants_.size());
  }

  // --- The unified entry point ------------------------------------------
  // Routes `request` to tenant `request.tenant`'s session (see
  // Request::ForTenant). An unknown tenant id resolves immediately with
  // kInvalidArgument; a READ for a tenant over its inflight quota
  // resolves with kResourceExhausted (updates are never quota-limited).
  // `request.deadline_micros` (0 = none) is the EDF scheduling target,
  // per query_session.h.

  std::future<Response> Submit(Request request);

  /// Nudges every tenant's batcher (QuerySession::Flush).
  void Flush();
  /// Blocks until every submission made before the call has completed,
  /// across all tenants.
  void Drain();

  /// Whole-plane counters snapshot. Per-tenant counters are each
  /// internally consistent (one session lock acquisition per tenant); the
  /// cross-tenant totals are not a single atomic cut.
  RouterStats stats() const;

  /// Direct access to one tenant's session (e.g. to flush a single tenant
  /// or to read its SessionStats); null for an unknown tenant id. The
  /// session is owned by the router.
  QuerySession* session(uint32_t tenant) {
    if (tenant >= tenants_.size()) return nullptr;
    return tenants_[tenant]->session.get();
  }

 private:
  /// Heap-allocated because the atomic makes the struct immovable.
  /// Routing state is lock-free by design: the tenant vector is immutable
  /// after construction (mounted once, never resized), each tenant's
  /// mutable state is this one atomic counter, and everything else locks
  /// inside the owned QuerySession's annotated gts::Mutex — so the router
  /// itself has no mutex for the thread-safety analysis to track.
  struct Tenant {
    GtsIndex* index = nullptr;
    std::unique_ptr<QuerySession> session;
    std::atomic<uint64_t> quota_rejected{0};
  };

  /// True when `tenant`'s inflight reads are at or over the quota; the
  /// check reads a stats snapshot (best-effort, see the file comment).
  bool OverQuota(const Tenant& tenant) const;

  RouterOptions options_;
  /// Declared before the tenants so sessions (whose dispatchers use the
  /// pool) are destroyed first.
  std::unique_ptr<QueryExecutor> executor_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
};

}  // namespace gts::serve

#endif  // GTS_SERVE_SESSION_ROUTER_H_
