// Object storage for metric spaces. A Dataset is a columnar (SoA) container
// holding either fixed-dimension float vectors or variable-length strings —
// the two object families used by the paper's five datasets (L1/L2/cosine
// vectors; edit-distance words and DNA reads).
#ifndef GTS_METRIC_DATASET_H_
#define GTS_METRIC_DATASET_H_

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace gts {

enum class DataKind {
  kFloatVector,  ///< fixed-dim float vectors (T-Loc, Vector, Color)
  kString,       ///< variable-length byte strings (Words, DNA)
};

/// Columnar object container. Objects are addressed by dense uint32 ids in
/// insertion order. Append-only; removal is handled above this layer
/// (tombstones / compaction via Slice()).
class Dataset {
 public:
  /// Creates an empty vector dataset with the given dimensionality.
  static Dataset FloatVectors(uint32_t dim);
  /// Creates an empty string dataset.
  static Dataset Strings();

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
  std::span<const float> Vector(uint32_t i) const;
  std::string_view String(uint32_t i) const;

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
  Dataset(DataKind kind, uint32_t dim) : kind_(kind), dim_(dim) {}

  DataKind kind_;
  uint32_t dim_ = 0;
  uint32_t size_ = 0;
  std::vector<float> flat_;        // kFloatVector payload, size_ * dim_
  std::vector<uint32_t> offsets_;  // kString: size_ + 1 offsets into chars_
  std::string chars_;              // kString payload
};

}  // namespace gts

#endif  // GTS_METRIC_DATASET_H_
