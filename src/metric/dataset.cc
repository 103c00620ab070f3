#include "metric/dataset.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/binary_io.h"

namespace gts {

namespace {

using binary_io::ReadPod;
using binary_io::ReadVec;
using binary_io::WritePod;
using binary_io::WriteVec;

}  // namespace

Dataset Dataset::FloatVectors(uint32_t dim) {
  assert(dim > 0);
  return Dataset(DataKind::kFloatVector, dim);
}

Dataset Dataset::Strings() {
  Dataset d(DataKind::kString, 0);
  d.offsets_.push_back(0);
  return d;
}

void Dataset::AppendVector(std::span<const float> v) {
  assert(kind_ == DataKind::kFloatVector);
  assert(v.size() == dim_);
  flat_.insert(flat_.end(), v.begin(), v.end());
  ++size_;
}

void Dataset::AppendString(std::string_view s) {
  assert(kind_ == DataKind::kString);
  chars_.append(s);
  offsets_.push_back(static_cast<uint32_t>(chars_.size()));
  ++size_;
}

void Dataset::AppendFrom(const Dataset& other, uint32_t idx) {
  assert(CompatibleWith(other));
  if (this == &other) {
    // Self-append: copy out first — the append may reallocate the payload
    // the source view points into.
    if (kind_ == DataKind::kFloatVector) {
      const std::vector<float> tmp(Vector(idx).begin(), Vector(idx).end());
      AppendVector(tmp);
    } else {
      const std::string tmp(String(idx));
      AppendString(tmp);
    }
    return;
  }
  if (kind_ == DataKind::kFloatVector) {
    AppendVector(other.Vector(idx));
  } else {
    AppendString(other.String(idx));
  }
}

std::span<const float> Dataset::Vector(uint32_t i) const {
  assert(kind_ == DataKind::kFloatVector);
  assert(i < size_);
  return std::span<const float>(flat_.data() + static_cast<size_t>(i) * dim_,
                                dim_);
}

std::string_view Dataset::String(uint32_t i) const {
  assert(kind_ == DataKind::kString);
  assert(i < size_);
  return std::string_view(chars_.data() + offsets_[i],
                          offsets_[i + 1] - offsets_[i]);
}

bool Dataset::AllFinite(uint32_t begin, uint32_t end) const {
  assert(begin <= end && end <= size_);
  if (kind_ != DataKind::kFloatVector) return true;
  return std::all_of(flat_.begin() + size_t{begin} * dim_,
                     flat_.begin() + size_t{end} * dim_,
                     [](float x) { return std::isfinite(x); });
}

uint64_t Dataset::ObjectBytes(uint32_t i) const {
  if (kind_ == DataKind::kFloatVector) return uint64_t{dim_} * sizeof(float);
  return offsets_[i + 1] - offsets_[i];
}

uint64_t Dataset::TotalBytes() const {
  if (kind_ == DataKind::kFloatVector) {
    return uint64_t{size_} * dim_ * sizeof(float);
  }
  return chars_.size() + offsets_.size() * sizeof(uint32_t);
}

void Dataset::Serialize(std::ostream& out) const {
  WritePod(out, static_cast<uint32_t>(kind_));
  WritePod(out, dim_);
  WritePod(out, size_);
  WriteVec(out, flat_);
  WriteVec(out, offsets_);
  WriteVec(out, chars_);
}

Result<Dataset> Dataset::Deserialize(std::istream& in) {
  uint32_t kind_raw = 0, dim = 0, size = 0;
  if (!ReadPod(in, &kind_raw) || kind_raw > 1 || !ReadPod(in, &dim) ||
      !ReadPod(in, &size)) {
    return Status::InvalidArgument("corrupt dataset header");
  }
  Dataset d(static_cast<DataKind>(kind_raw), dim);
  d.size_ = size;
  if (!ReadVec(in, &d.flat_) || !ReadVec(in, &d.offsets_) ||
      !ReadVec(in, &d.chars_)) {
    return Status::InvalidArgument("corrupt or truncated dataset payload");
  }
  // Structural validation.
  if (d.kind_ == DataKind::kFloatVector) {
    if (d.flat_.size() != uint64_t{d.size_} * d.dim_) {
      return Status::InvalidArgument("dataset vector payload size mismatch");
    }
  } else if (d.offsets_.size() != uint64_t{d.size_} + 1 ||
             (d.size_ > 0 && d.offsets_.back() != d.chars_.size())) {
    return Status::InvalidArgument("dataset string payload size mismatch");
  }
  return d;
}

Dataset Dataset::Slice(std::span<const uint32_t> ids) const {
  Dataset out(kind_, dim_);
  if (kind_ == DataKind::kString) out.offsets_.push_back(0);
  for (uint32_t id : ids) out.AppendFrom(*this, id);
  return out;
}

}  // namespace gts
