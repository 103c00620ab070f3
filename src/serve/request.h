// The unified typed request plane of the serving stack. Both serving
// front ends — `QuerySession` (one index) and `ShardedFrontend`
// (hash-routed shards) — expose ONE entry point:
//
//   std::future<Response> Submit(Request);
//
// A `Request` is a common envelope (a deadline target) around a
// `std::variant` payload covering the seven operations the stack serves:
// Range / Knn / KnnApprox reads and Insert / Remove / BatchUpdate /
// Rebuild updates. A `Response` is the matching variant of typed results.
// Adding an operation means adding a payload alternative — not a new
// method on every layer — which is what keeps the serving surface fixed
// as scaling features (shard routing, weighted scheduling, replication)
// land on top.
//
// Every front end rejects an invalid read before admission through the
// one predicate below (ValidRead), so a read means the same thing at every
// layer.
//
// Payload construction copies the query/insert object out of the caller's
// dataset (Request::Range etc. slice object `idx` of `src`), so the
// source dataset may be destroyed as soon as the Request is built.
#ifndef GTS_SERVE_REQUEST_H_
#define GTS_SERVE_REQUEST_H_

#include <cstdint>
#include <future>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/gts.h"

namespace gts::serve {

// --- Request payloads ------------------------------------------------------
// Reads carry exactly one query object; the batching front ends coalesce
// independently-submitted reads themselves (that is their whole point).

/// Metric range query: all objects within `radius` of the query object.
struct RangePayload {
  Dataset query = Dataset::Strings();  ///< exactly one object
  float radius = 0.0f;  ///< must be non-negative (NaN rejects)
};

/// Exact k-nearest-neighbour query.
struct KnnPayload {
  Dataset query = Dataset::Strings();  ///< exactly one object
  uint32_t k = 0;
  /// Caller-proven upper bound on the k-th nearest distance (+inf =
  /// none). Plumbed into KnnOptions::initial_bounds so the search
  /// prunes against min(bound_cap, running k-th); results beyond the
  /// bound may be dropped — by the caller's premise they cannot matter.
  /// The sharded frontend's refined scatter sets this on the sub-requests
  /// it fans to non-seed shards (sharded_frontend.h); ordinary clients
  /// leave the default. Must be non-negative (NaN rejects).
  float bound_cap = std::numeric_limits<float>::infinity();
};

/// Approximate kNN (KnnOptions::candidate_fraction's candidate budget).
struct KnnApproxPayload {
  Dataset query = Dataset::Strings();  ///< exactly one object
  uint32_t k = 0;
  double candidate_fraction = 1.0;  ///< must be in (0, 1]
};

/// Streaming insert of one object.
struct InsertPayload {
  Dataset object = Dataset::Strings();  ///< exactly one object
};

/// Streaming delete by object id (a frontend-global id under
/// ShardedFrontend; see sharded_frontend.h for the id mapping).
struct RemovePayload {
  uint32_t id = 0;
};

/// Batch update: all removals + inserts, then reconstruction.
struct BatchUpdatePayload {
  Dataset inserts = Dataset::Strings();
  std::vector<uint32_t> removals;
};

/// Full reconstruction over the alive objects.
struct RebuildPayload {};

using RequestPayload =
    std::variant<RangePayload, KnnPayload, KnnApproxPayload, InsertPayload,
                 RemovePayload, BatchUpdatePayload, RebuildPayload>;

/// One serving request: envelope + typed payload. Build with the factory
/// helpers.
struct Request {
  /// EDF scheduling target for reads, in microseconds from submission
  /// (0 = none). A deadline shapes flush composition, it is not a
  /// timeout; late resolutions are counted, never cancelled. Ignored for
  /// updates.
  uint64_t deadline_micros = 0;
  RequestPayload payload = RebuildPayload{};

  /// True for the admission-controlled, dynamically-batched operations
  /// (Range/Knn/KnnApprox); false for the writer-gated updates.
  bool is_read() const {
    return std::holds_alternative<RangePayload>(payload) ||
           std::holds_alternative<KnnPayload>(payload) ||
           std::holds_alternative<KnnApproxPayload>(payload);
  }

  // --- Factories -----------------------------------------------------------
  // Each copies object `idx` of `src` out. An out-of-range `idx` yields an
  // empty payload dataset, which every Submit implementation resolves with
  // kInvalidArgument — the factories never fail, the plane rejects.

  static Request Range(const Dataset& src, uint32_t idx, float radius,
                       uint64_t deadline_micros = 0) {
    Request r;
    r.deadline_micros = deadline_micros;
    r.payload = RangePayload{SliceOne(src, idx), radius};
    return r;
  }
  static Request Knn(const Dataset& src, uint32_t idx, uint32_t k,
                     uint64_t deadline_micros = 0) {
    Request r;
    r.deadline_micros = deadline_micros;
    r.payload = KnnPayload{SliceOne(src, idx), k};
    return r;
  }
  static Request KnnApprox(const Dataset& src, uint32_t idx, uint32_t k,
                           double candidate_fraction,
                           uint64_t deadline_micros = 0) {
    Request r;
    r.deadline_micros = deadline_micros;
    r.payload = KnnApproxPayload{SliceOne(src, idx), k, candidate_fraction};
    return r;
  }
  static Request Insert(const Dataset& src, uint32_t idx) {
    Request r;
    r.payload = InsertPayload{SliceOne(src, idx)};
    return r;
  }
  static Request Remove(uint32_t id) {
    Request r;
    r.payload = RemovePayload{id};
    return r;
  }
  static Request BatchUpdate(Dataset inserts, std::vector<uint32_t> removals) {
    Request r;
    r.payload = BatchUpdatePayload{std::move(inserts), std::move(removals)};
    return r;
  }
  static Request Rebuild() {
    Request r;
    r.payload = RebuildPayload{};
    return r;
  }

 private:
  static Dataset SliceOne(const Dataset& src, uint32_t idx) {
    if (idx >= src.size()) return src.Slice(std::span<const uint32_t>{});
    const uint32_t ids[] = {idx};
    return src.Slice(ids);
  }
};

// --- Response --------------------------------------------------------------

/// Typed result alternatives, one per request family. A rejected or
/// invalid request resolves in the SAME alternative its payload selects
/// (see ErrorResponse), so typed consumers never face a foreign
/// alternative.
using RangeResult = Result<std::vector<uint32_t>>;   ///< Range
using KnnResult = Result<std::vector<Neighbor>>;     ///< Knn / KnnApprox
using InsertResult = Result<uint32_t>;               ///< Insert (new id)
using UpdateResult = Status;  ///< Remove / BatchUpdate / Rebuild

/// The unified response: exactly one alternative, selected by the
/// request's payload.
struct Response {
  std::variant<RangeResult, KnnResult, InsertResult, UpdateResult> result =
      UpdateResult();

  bool ok() const {
    // Status and Result<T> share the ok() spelling, so no type dispatch.
    return std::visit([](const auto& r) { return r.ok(); }, result);
  }
  /// The error (or Ok) status regardless of alternative.
  Status status() const {
    return std::visit(
        [](const auto& r) -> Status {
          if constexpr (std::is_same_v<std::decay_t<decltype(r)>, Status>) {
            return r;
          } else {
            return r.status();
          }
        },
        result);
  }

  // Typed views; calling the accessor that does not match the request's
  // payload family throws std::bad_variant_access (a programming error).
  RangeResult& range() { return std::get<RangeResult>(result); }
  KnnResult& knn() { return std::get<KnnResult>(result); }
  InsertResult& inserted() { return std::get<InsertResult>(result); }
  UpdateResult& update() { return std::get<UpdateResult>(result); }
  const RangeResult& range() const { return std::get<RangeResult>(result); }
  const KnnResult& knn() const { return std::get<KnnResult>(result); }
  const InsertResult& inserted() const {
    return std::get<InsertResult>(result);
  }
  const UpdateResult& update() const {
    return std::get<UpdateResult>(result);
  }
};

/// The error response whose alternative matches `request`'s payload family
/// — the immediate-reject paths (invalid argument, admission, a frontend
/// with no shards) all resolve through this so wrappers and typed callers
/// see the error in the alternative they expect.
inline Response ErrorResponse(const Request& request, Status status) {
  return std::visit(
      [&](const auto& payload) -> Response {
        using P = std::decay_t<decltype(payload)>;
        if constexpr (std::is_same_v<P, RangePayload>) {
          return Response{RangeResult(std::move(status))};
        } else if constexpr (std::is_same_v<P, KnnPayload> ||
                             std::is_same_v<P, KnnApproxPayload>) {
          return Response{KnnResult(std::move(status))};
        } else if constexpr (std::is_same_v<P, InsertPayload>) {
          return Response{InsertResult(std::move(status))};
        } else {
          return Response{UpdateResult(std::move(status))};
        }
      },
      request.payload);
}

/// The read-validation predicate of every front end: true when `request`
/// is a read whose payload carries exactly one query object compatible
/// with `index` (with finite coordinates when it is a vector), a
/// non-negative radius or bound_cap, and a candidate fraction in (0, 1].
/// The comparisons are phrased so that NaN fails them. False for updates.
/// Reads only the index's immutable kind/dim, so it needs no lock or
/// snapshot. It mirrors the batched core calls' own checks: a read that
/// failed them would fail every read coalesced into the same flush.
inline bool ValidRead(const Request& request, const GtsIndex& index) {
  const auto* range = std::get_if<RangePayload>(&request.payload);
  const auto* knn = std::get_if<KnnPayload>(&request.payload);
  const auto* approx = std::get_if<KnnApproxPayload>(&request.payload);
  const Dataset* query = nullptr;
  if (range != nullptr) query = &range->query;
  if (knn != nullptr) query = &knn->query;
  if (approx != nullptr) query = &approx->query;
  return query != nullptr && query->size() == 1 &&
         index.CompatibleData(*query) && query->AllFinite(0, 1) &&
         (range == nullptr || range->radius >= 0.0f) &&
         (knn == nullptr || knn->bound_cap >= 0.0f) &&
         (approx == nullptr || (approx->candidate_fraction > 0.0 &&
                                approx->candidate_fraction <= 1.0));
}

/// A future already resolved with `value` — the immediate-reject path of
/// every front end.
template <typename T>
std::future<T> ResolvedFuture(T value) {
  std::promise<T> promise;
  promise.set_value(std::move(value));
  return promise.get_future();
}

}  // namespace gts::serve

#endif  // GTS_SERVE_REQUEST_H_
