// Object storage for metric spaces. A Dataset is a columnar (SoA) container
// holding either fixed-dimension float vectors or variable-length strings —
// the two object families used by the paper's five datasets (L1/L2/cosine
// vectors; edit-distance words and DNA reads).
#ifndef GTS_METRIC_DATASET_H_
#define GTS_METRIC_DATASET_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string_view>

#include "common/status.h"

namespace gts {

enum class DataKind {
  kFloatVector,  ///< fixed-dim float vectors (T-Loc, Vector, Color)
  kString,       ///< variable-length byte strings (Words, DNA)
};

/// Columnar object container. Objects are addressed by dense uint32 ids in
/// insertion order. Append-only; removal is handled above this layer
/// (tombstones / compaction via Slice()).
///
/// Copies share storage. Every copy points at one append-only payload
/// through a shared_ptr, so a copy is O(1) whatever the size, and an append
/// is amortized O(1):
///   - A copy whose size equals the payload's committed count is the
///     payload's *tip*. The tip appends in place while capacity allows,
///     claiming the slot with one compare-exchange on that count.
///   - Any other copy, or a tip at capacity, first moves to a fresh payload
///     of doubled capacity that holds its own objects.
/// A slot below any copy's size is never written again, so an append to
/// one copy never changes what another copy reads: copies behave as
/// independent values. This is what lets GtsIndex publish each streaming
/// insert as a new version without copying the dataset.
///
/// Thread contract: one copy may be read (and copied) on any number of
/// threads while another copy of the same payload appends, which is how
/// readers of a published index version run beside the writer appending
/// to its successor. One Dataset object is still not safe to append to
/// from two threads, nor to read while it appends.
class Dataset {
 public:
  /// Creates an empty vector dataset with the given dimensionality.
  static Dataset FloatVectors(uint32_t dim);
  /// Creates an empty string dataset.
  static Dataset Strings();

  /// O(1): the copy shares the payload (see the class comment).
  Dataset(const Dataset&) = default;
  Dataset& operator=(const Dataset&) = default;
  /// A moved-from dataset is empty (size 0, same kind and dim) and may be
  /// appended to.
  Dataset(Dataset&& other) noexcept;
  Dataset& operator=(Dataset&& other) noexcept;

  DataKind kind() const { return kind_; }
  uint32_t dim() const { return dim_; }
  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Appends one vector; `v.size()` must equal dim().
  void AppendVector(std::span<const float> v);
  /// Appends one string.
  void AppendString(std::string_view s);
  /// Appends object `idx` of a compatible dataset. Used by the update paths
  /// (cache-table merge, compaction) and by workload generators.
  void AppendFrom(const Dataset& other, uint32_t idx);

  /// Read access. Calling the accessor that does not match kind() is a
  /// programming error (asserts in debug builds).
  std::span<const float> Vector(uint32_t i) const {
    assert(kind_ == DataKind::kFloatVector);
    assert(i < size_);
    return {flat_ + size_t{i} * dim_, dim_};
  }
  std::string_view String(uint32_t i) const {
    assert(kind_ == DataKind::kString);
    assert(i < size_);
    return {chars_ + offsets_[i], size_t{offsets_[i + 1] - offsets_[i]}};
  }

  /// True when objects [begin, end) have no NaN or infinite coordinate
  /// (always true for strings). The index and the serving plane reject
  /// objects failing it on every read and write path.
  bool AllFinite(uint32_t begin, uint32_t end) const;

  /// Storage footprint of one object / of the whole payload, in bytes.
  /// Used by the device-memory accounting.
  uint64_t ObjectBytes(uint32_t i) const;
  uint64_t TotalBytes() const;

  /// Returns a new dataset containing exactly the objects in `ids`, in order.
  Dataset Slice(std::span<const uint32_t> ids) const;

  /// True when `other` can donate objects to this dataset.
  bool CompatibleWith(const Dataset& other) const {
    return kind_ == other.kind_ && dim_ == other.dim_;
  }

  /// Binary serialization (used by GtsIndex::SaveTo / Load).
  void Serialize(std::ostream& out) const;
  static Result<Dataset> Deserialize(std::istream& in);

 private:
  struct Payload;  // dataset.cc

  Dataset(DataKind kind, uint32_t dim);
  /// Chars the string objects of this copy occupy (0 for vectors).
  uint64_t CharsUsed() const {
    return kind_ == DataKind::kString ? offsets_[size_] : 0;
  }
  /// Makes this copy the tip of a payload with room for one more object of
  /// `chars` chars and claims slot size_. Returns the payload this copy
  /// left, if it moved: the caller keeps it alive until the new object is
  /// copied in, since the source may view it.
  [[nodiscard]] std::shared_ptr<Payload> ClaimSlot(uint64_t chars);
  /// Moves this copy to a fresh payload with room for `slots` objects and
  /// `chars` chars, holding this copy's objects. Returns the one it left.
  std::shared_ptr<Payload> MoveToPayload(uint64_t slots, uint64_t chars);
  /// Empties this copy, keeping its kind and dim.
  void Clear();

  DataKind kind_;
  uint32_t dim_ = 0;
  uint32_t size_ = 0;
  std::shared_ptr<Payload> payload_;  // null while nothing is allocated
  // Cached from payload_, so reading an object is one load plus an index.
  const float* flat_ = nullptr;        // kFloatVector: dim_ floats a slot
  const uint32_t* offsets_ = nullptr;  // kString: size_ + 1 offsets
  const char* chars_ = nullptr;        // kString payload
};

}  // namespace gts

#endif  // GTS_METRIC_DATASET_H_
