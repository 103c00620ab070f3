#include "metric/dataset.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <utility>

#include "common/binary_io.h"

namespace gts {

namespace {

using binary_io::BytesLeft;
using binary_io::ReadPod;
using binary_io::WritePod;
using binary_io::WriteVec;

/// The offsets of a string dataset with no payload yet: object 0 starts at
/// char 0.
constexpr uint32_t kNoOffsets[1] = {0};

/// Reads a length-prefixed array that must hold exactly `n` elements into
/// a fresh buffer. False when the prefix differs from `n`, or the stream
/// is shorter, before anything is allocated.
template <typename T>
bool ReadArray(std::istream& in, uint64_t n, std::unique_ptr<T[]>* out) {
  uint64_t prefix = 0;
  if (!ReadPod(in, &prefix) || prefix != n || n > BytesLeft(in) / sizeof(T)) {
    return false;
  }
  *out = std::make_unique_for_overwrite<T[]>(n);
  in.read(reinterpret_cast<char*>(out->get()),
          static_cast<std::streamsize>(n * sizeof(T)));
  return static_cast<bool>(in);
}

}  // namespace

/// Storage shared by the copies of a dataset. Buffers are raw arrays sized
/// by capacity: an appender writes only the slots it claimed, never a
/// member a reader of another copy reads (a std::vector's end pointer would
/// be one).
struct Dataset::Payload {
  std::unique_ptr<float[]> flat;        ///< kFloatVector: capacity * dim
  std::unique_ptr<uint32_t[]> offsets;  ///< kString: capacity + 1
  std::unique_ptr<char[]> chars;        ///< kString: char_capacity
  uint32_t capacity = 0;                ///< object slots
  uint64_t char_capacity = 0;
  /// Objects written: the size of the tip copy. Only ever grows.
  std::atomic<uint32_t> committed{0};
};

Dataset::Dataset(DataKind kind, uint32_t dim) : kind_(kind), dim_(dim) {
  Clear();
}

Dataset::Dataset(Dataset&& other) noexcept
    : kind_(other.kind_),
      dim_(other.dim_),
      size_(other.size_),
      payload_(std::exchange(other.payload_, nullptr)),
      flat_(other.flat_),
      offsets_(other.offsets_),
      chars_(other.chars_) {
  other.Clear();
}

Dataset& Dataset::operator=(Dataset&& other) noexcept {
  if (this != &other) {
    kind_ = other.kind_;
    dim_ = other.dim_;
    size_ = other.size_;
    payload_ = std::exchange(other.payload_, nullptr);
    flat_ = other.flat_;
    offsets_ = other.offsets_;
    chars_ = other.chars_;
    other.Clear();
  }
  return *this;
}

void Dataset::Clear() {
  size_ = 0;
  payload_.reset();
  flat_ = nullptr;
  offsets_ = kind_ == DataKind::kString ? kNoOffsets : nullptr;
  chars_ = nullptr;
}

Dataset Dataset::FloatVectors(uint32_t dim) {
  assert(dim > 0);
  return Dataset(DataKind::kFloatVector, dim);
}

Dataset Dataset::Strings() { return Dataset(DataKind::kString, 0); }

std::shared_ptr<Dataset::Payload> Dataset::MoveToPayload(uint64_t slots,
                                                         uint64_t chars) {
  assert(slots >= size_ && slots <= std::numeric_limits<uint32_t>::max());
  auto p = std::make_shared<Payload>();
  p->capacity = static_cast<uint32_t>(slots);
  if (kind_ == DataKind::kFloatVector) {
    p->flat = std::make_unique_for_overwrite<float[]>(slots * dim_);
    std::copy_n(flat_, size_t{size_} * dim_, p->flat.get());
  } else {
    assert(chars >= CharsUsed());
    p->offsets = std::make_unique_for_overwrite<uint32_t[]>(slots + 1);
    p->chars = std::make_unique_for_overwrite<char[]>(chars);
    p->char_capacity = chars;
    std::copy_n(offsets_, size_t{size_} + 1, p->offsets.get());
    std::copy_n(chars_, CharsUsed(), p->chars.get());
  }
  p->committed.store(size_);
  flat_ = p->flat.get();
  offsets_ = kind_ == DataKind::kString ? p->offsets.get() : nullptr;
  chars_ = p->chars.get();
  payload_.swap(p);
  return p;
}

std::shared_ptr<Dataset::Payload> Dataset::ClaimSlot(uint64_t chars) {
  assert(size_ < std::numeric_limits<uint32_t>::max());
  const uint64_t used = CharsUsed();
  assert(used + chars <= std::numeric_limits<uint32_t>::max());
  if (payload_ != nullptr && size_ < payload_->capacity &&
      used + chars <= payload_->char_capacity) {
    uint32_t tip = size_;
    if (payload_->committed.compare_exchange_strong(tip, size_ + 1)) {
      return nullptr;
    }
  }
  constexpr uint64_t kMaxSlots = std::numeric_limits<uint32_t>::max();
  const uint64_t slots = std::clamp<uint64_t>(2ull * size_, 1, kMaxSlots);
  const uint64_t char_capacity =
      kind_ == DataKind::kString ? std::max(2 * used, used + chars) : 0;
  std::shared_ptr<Payload> left = MoveToPayload(slots, char_capacity);
  payload_->committed.store(size_ + 1);
  return left;
}

void Dataset::AppendVector(std::span<const float> v) {
  assert(kind_ == DataKind::kFloatVector);
  assert(v.size() == dim_);
  const std::shared_ptr<Payload> left = ClaimSlot(0);
  std::copy(v.begin(), v.end(), payload_->flat.get() + size_t{size_} * dim_);
  ++size_;
}

void Dataset::AppendString(std::string_view s) {
  assert(kind_ == DataKind::kString);
  const std::shared_ptr<Payload> left = ClaimSlot(s.size());
  const uint32_t begin = offsets_[size_];
  std::copy(s.begin(), s.end(), payload_->chars.get() + begin);
  payload_->offsets[size_ + 1] = begin + static_cast<uint32_t>(s.size());
  ++size_;
}

void Dataset::AppendFrom(const Dataset& other, uint32_t idx) {
  assert(CompatibleWith(other));
  if (kind_ == DataKind::kFloatVector) {
    AppendVector(other.Vector(idx));
  } else {
    AppendString(other.String(idx));
  }
}

bool Dataset::AllFinite(uint32_t begin, uint32_t end) const {
  assert(begin <= end && end <= size_);
  if (kind_ != DataKind::kFloatVector || begin == end) return true;
  return std::all_of(flat_ + size_t{begin} * dim_, flat_ + size_t{end} * dim_,
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
  return CharsUsed() + (uint64_t{size_} + 1) * sizeof(uint32_t);
}

void Dataset::Serialize(std::ostream& out) const {
  const bool strings = kind_ == DataKind::kString;
  WritePod(out, static_cast<uint32_t>(kind_));
  WritePod(out, dim_);
  WritePod(out, size_);
  WriteVec(out, std::span(flat_, strings ? 0 : size_t{size_} * dim_));
  WriteVec(out, std::span(offsets_, strings ? size_t{size_} + 1 : 0));
  WriteVec(out, std::span(chars_, CharsUsed()));
}

Result<Dataset> Dataset::Deserialize(std::istream& in) {
  uint32_t kind_raw = 0, dim = 0, size = 0;
  if (!ReadPod(in, &kind_raw) || kind_raw > 1 || !ReadPod(in, &dim) ||
      !ReadPod(in, &size)) {
    return Status::InvalidArgument("corrupt dataset header");
  }
  Dataset d(static_cast<DataKind>(kind_raw), dim);
  const bool strings = d.kind_ == DataKind::kString;
  // Each array's length must be the one the header implies; the payload is
  // sized once, to exactly `size` objects.
  auto p = std::make_shared<Payload>();
  p->capacity = size;
  if (!ReadArray(in, strings ? 0 : uint64_t{size} * dim, &p->flat)) {
    return Status::InvalidArgument("corrupt or truncated dataset vectors");
  }
  if (!ReadArray(in, strings ? uint64_t{size} + 1 : 0, &p->offsets)) {
    return Status::InvalidArgument("corrupt or truncated dataset offsets");
  }
  if (strings) {
    // String(i) spans chars [offsets[i], offsets[i + 1]): the offsets must
    // start at 0 and never decrease, or a length underflows.
    const uint32_t* offsets = p->offsets.get();
    if (offsets[0] != 0 ||
        !std::is_sorted(offsets, offsets + uint64_t{size} + 1)) {
      return Status::InvalidArgument("dataset string offsets out of order");
    }
    p->char_capacity = offsets[size];
  }
  if (!ReadArray(in, p->char_capacity, &p->chars)) {
    return Status::InvalidArgument("corrupt or truncated dataset chars");
  }
  p->committed.store(size);
  d.size_ = size;
  d.flat_ = p->flat.get();
  if (strings) d.offsets_ = p->offsets.get();
  d.chars_ = p->chars.get();
  d.payload_ = std::move(p);
  return d;
}

Dataset Dataset::Slice(std::span<const uint32_t> ids) const {
  Dataset out(kind_, dim_);
  uint64_t chars = 0;
  if (kind_ == DataKind::kString) {
    for (uint32_t id : ids) chars += ObjectBytes(id);
  }
  out.MoveToPayload(ids.size(), chars);
  for (uint32_t id : ids) out.AppendFrom(*this, id);
  return out;
}

}  // namespace gts
