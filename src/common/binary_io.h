// Raw binary I/O for the index file format (core/serialize.cc and
// Dataset::Serialize): plain-old-data values and length-prefixed arrays.
// A reader never trusts a length field: one larger than the bytes left in
// the stream fails the read before anything is allocated.
#ifndef GTS_COMMON_BINARY_IO_H_
#define GTS_COMMON_BINARY_IO_H_

#include <cstdint>
#include <istream>
#include <ostream>

namespace gts::binary_io {

template <typename T>
void WritePod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(T));
  return static_cast<bool>(in);
}

/// Bytes between the read position of `in` and its end; 0 when the stream
/// cannot seek, so that no length read from it is trusted.
inline uint64_t BytesLeft(std::istream& in) {
  const std::istream::pos_type pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return 0;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1) || end < pos) return 0;
  return static_cast<uint64_t>(end - pos);
}

/// A uint64 element count, then the elements. `Vec` is a std::vector of
/// trivially copyable elements or a std::string.
template <typename Vec>
void WriteVec(std::ostream& out, const Vec& v) {
  WritePod(out, static_cast<uint64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(
                v.size() * sizeof(typename Vec::value_type)));
}

/// Reads what WriteVec wrote. False on a short read, or when the count
/// exceeds what the rest of the stream could hold.
template <typename Vec>
bool ReadVec(std::istream& in, Vec* v) {
  constexpr uint64_t kSize = sizeof(typename Vec::value_type);
  uint64_t n = 0;
  if (!ReadPod(in, &n) || n > BytesLeft(in) / kSize) return false;
  v->resize(n);
  in.read(reinterpret_cast<char*>(v->data()),
          static_cast<std::streamsize>(n * kSize));
  return static_cast<bool>(in);
}

}  // namespace gts::binary_io

#endif  // GTS_COMMON_BINARY_IO_H_
