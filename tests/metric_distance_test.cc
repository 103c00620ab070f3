#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "metric/dataset.h"
#include "metric/distance.h"

namespace gts {
namespace {

Dataset PaperStrings() {
  // The paper's Fig. 1 string dataset o1..o10.
  Dataset d = Dataset::Strings();
  for (const char* s : {"a", "ab", "bac", "acba", "aabc", "abbc", "abcc",
                        "aabcc", "babcc", "abbcc"}) {
    d.AppendString(s);
  }
  return d;
}

TEST(DatasetTest, StringStorage) {
  Dataset d = PaperStrings();
  EXPECT_EQ(d.size(), 10u);
  EXPECT_EQ(d.kind(), DataKind::kString);
  EXPECT_EQ(d.String(0), "a");
  EXPECT_EQ(d.String(9), "abbcc");
  EXPECT_EQ(d.ObjectBytes(3), 4u);
}

TEST(DatasetTest, VectorStorage) {
  Dataset d = Dataset::FloatVectors(3);
  d.AppendVector(std::vector<float>{1.0f, 2.0f, 3.0f});
  d.AppendVector(std::vector<float>{4.0f, 5.0f, 6.0f});
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.dim(), 3u);
  EXPECT_FLOAT_EQ(d.Vector(1)[2], 6.0f);
  EXPECT_EQ(d.ObjectBytes(0), 12u);
  EXPECT_EQ(d.TotalBytes(), 24u);
}

TEST(DatasetTest, SlicePreservesOrder) {
  Dataset d = PaperStrings();
  const uint32_t ids[] = {4, 0, 9};
  Dataset s = d.Slice(ids);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.String(0), "aabc");
  EXPECT_EQ(s.String(1), "a");
  EXPECT_EQ(s.String(2), "abbcc");
}

TEST(DatasetTest, AppendFromOtherAndSelf) {
  Dataset d = PaperStrings();
  Dataset e = Dataset::Strings();
  e.AppendFrom(d, 2);
  EXPECT_EQ(e.String(0), "bac");
  // Self-append must not corrupt when storage reallocates.
  for (int i = 0; i < 200; ++i) e.AppendFrom(e, 0);
  EXPECT_EQ(e.size(), 201u);
  EXPECT_EQ(e.String(200), "bac");
}

// Copies share one append-only payload (metric/dataset.h): copying is O(1),
// and appends to different copies never show through to each other.

std::vector<float> Point(uint32_t i) {
  return {static_cast<float>(i), 0.5f * static_cast<float>(i)};
}

std::string Word(uint32_t i) {
  return std::string(1 + i % 7, static_cast<char>('a' + i % 26));
}

/// Appends object `i` of the kind's deterministic sequence.
void AppendNth(Dataset* d, uint32_t i) {
  if (d->kind() == DataKind::kFloatVector) {
    d->AppendVector(Point(i));
  } else {
    d->AppendString(Word(i));
  }
}

/// True when `d` holds exactly objects `want` of the kind's sequence.
::testing::AssertionResult Holds(const Dataset& d,
                                 const std::vector<uint32_t>& want) {
  if (d.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << d.size() << ", want " << want.size();
  }
  for (uint32_t i = 0; i < d.size(); ++i) {
    bool same = false;
    if (d.kind() == DataKind::kFloatVector) {
      same = std::ranges::equal(d.Vector(i), Point(want[i]));
    } else {
      same = d.String(i) == Word(want[i]);
    }
    if (!same) return ::testing::AssertionFailure() << "object " << i;
  }
  return ::testing::AssertionSuccess();
}

Dataset Sequence(DataKind kind, uint32_t n) {
  Dataset d = Dataset::Strings();
  if (kind == DataKind::kFloatVector) d = Dataset::FloatVectors(2);
  for (uint32_t i = 0; i < n; ++i) AppendNth(&d, i);
  return d;
}

std::vector<uint32_t> Iota(uint32_t n) {
  std::vector<uint32_t> ids(n);
  for (uint32_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

TEST(DatasetTest, CopySharesStorage) {
  const Dataset v = Sequence(DataKind::kFloatVector, 5);
  const Dataset v2 = v;
  EXPECT_EQ(v2.Vector(0).data(), v.Vector(0).data());
  const Dataset s = Sequence(DataKind::kString, 5);
  Dataset s2 = Dataset::Strings();
  s2 = s;
  EXPECT_EQ(s2.String(0).data(), s.String(0).data());
}

TEST(DatasetTest, AppendsToCopiesStayIndependent) {
  for (const DataKind kind : {DataKind::kFloatVector, DataKind::kString}) {
    SCOPED_TRACE(kind == DataKind::kFloatVector ? "vectors" : "strings");
    // Spare capacity (grown by appends) and exact capacity (a Slice).
    const Dataset grown = Sequence(kind, 5);
    const Dataset exact = grown.Slice(Iota(5));
    for (const Dataset* start : {&grown, &exact}) {
      for (const bool a_first : {true, false}) {
        Dataset a = *start;
        Dataset b = *start;
        if (a_first) {
          AppendNth(&a, 100);
          AppendNth(&b, 200);
        } else {
          AppendNth(&b, 200);
          AppendNth(&a, 100);
        }
        AppendNth(&a, 101);
        AppendNth(&b, 201);
        EXPECT_TRUE(Holds(a, {0, 1, 2, 3, 4, 100, 101}));
        EXPECT_TRUE(Holds(b, {0, 1, 2, 3, 4, 200, 201}));
        EXPECT_TRUE(Holds(*start, {0, 1, 2, 3, 4}));
      }
    }
  }
}

TEST(DatasetTest, StringOverflowingCharsBeforeSlotsStaysIndependent) {
  // Three short strings leave a slot free, with little char room: a long
  // string overflows the chars while the slot count still has room.
  Dataset d = Dataset::Strings();
  for (const char* s : {"ab", "cd", "ef"}) d.AppendString(s);
  const Dataset before = d;
  const std::string long_word(64, 'z');
  d.AppendString(long_word);
  Dataset other = before;
  other.AppendString("g");
  ASSERT_EQ(d.size(), 4u);
  EXPECT_EQ(d.String(2), "ef");
  EXPECT_EQ(d.String(3), long_word);
  ASSERT_EQ(other.size(), 4u);
  EXPECT_EQ(other.String(3), "g");
  ASSERT_EQ(before.size(), 3u);
  EXPECT_EQ(before.String(2), "ef");
}

TEST(DatasetTest, SelfAppendAtCapacity) {
  for (const DataKind kind : {DataKind::kFloatVector, DataKind::kString}) {
    SCOPED_TRACE(kind == DataKind::kFloatVector ? "vectors" : "strings");
    Dataset d = Sequence(kind, 3).Slice(Iota(3));  // exact capacity
    d.AppendFrom(d, 1);                            // moves the payload
    if (kind == DataKind::kFloatVector) {
      d.AppendVector(d.Vector(2));  // a view into its own payload
    } else {
      d.AppendString(d.String(2));
    }
    EXPECT_TRUE(Holds(d, {0, 1, 2, 1, 2}));
  }
}

TEST(DatasetTest, MovedFromIsEmptyAndAppendable) {
  for (const DataKind kind : {DataKind::kFloatVector, DataKind::kString}) {
    SCOPED_TRACE(kind == DataKind::kFloatVector ? "vectors" : "strings");
    Dataset a = Sequence(kind, 4);
    const Dataset b = std::move(a);
    EXPECT_EQ(a.size(), 0u);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.kind(), kind);
    AppendNth(&a, 9);
    EXPECT_TRUE(Holds(a, {9}));
    EXPECT_TRUE(Holds(b, {0, 1, 2, 3}));

    Dataset c = Sequence(kind, 2);
    c = std::move(a);
    EXPECT_TRUE(Holds(c, {9}));
    EXPECT_EQ(a.size(), 0u);
    AppendNth(&a, 7);
    EXPECT_TRUE(Holds(a, {7}));
  }
}

std::string Serialized(const Dataset& d) {
  std::ostringstream out;
  d.Serialize(out);
  return out.str();
}

// The bytes of the index file format's dataset section, as written before
// copies shared their storage: three length-prefixed arrays (vector
// floats, string offsets, string chars) after the kind/dim/size header.
TEST(DatasetTest, SerializeGoldenBytes) {
  Dataset v = Dataset::FloatVectors(2);
  v.AppendVector(std::vector<float>{1.0f, -2.5f});
  v.AppendVector(std::vector<float>{0.0f, 3.0f});
  v.AppendVector(std::vector<float>{0.5f, 1e3f});
  constexpr char kVector[] =
      "\x00\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00\x06\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x80\x3f\x00\x00\x20\xc0\x00\x00\x00\x00"
      "\x00\x00\x40\x40\x00\x00\x00\x3f\x00\x00\x7a\x44\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00";
  EXPECT_EQ(Serialized(v), std::string(kVector, sizeof(kVector) - 1));

  Dataset s = Dataset::Strings();
  for (const char* w : {"ab", "", "xyz"}) s.AppendString(w);
  constexpr char kString[] =
      "\x01\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x02\x00\x00\x00\x02\x00\x00\x00\x05\x00\x00\x00\x05\x00\x00\x00"
      "\x00\x00\x00\x00\x61\x62\x78\x79\x7a";
  EXPECT_EQ(Serialized(s), std::string(kString, sizeof(kString) - 1));

  for (const Dataset* d : {&v, &s}) {
    std::istringstream in(Serialized(*d));
    auto back = Dataset::Deserialize(in);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(Serialized(back.value()), Serialized(*d));
  }
}

TEST(DatasetTest, DeserializeRejectsMisorderedOffsets) {
  Dataset s = Dataset::Strings();
  for (const char* w : {"ab", "cde", "f"}) s.AppendString(w);
  const std::string bytes = Serialized(s);
  // Header (12 bytes), empty float array (8), offsets count (8), offsets.
  constexpr size_t kOffsets = 12 + 8 + 8;
  const auto load_with = [&](uint32_t i, uint32_t value) {
    std::string mutant = bytes;
    std::memcpy(mutant.data() + kOffsets + 4 * i, &value, sizeof(value));
    std::istringstream in(mutant);
    return Dataset::Deserialize(in).status().code();
  };
  // The offsets as written are {0, 2, 5, 6}.
  EXPECT_EQ(load_with(1, 2), StatusCode::kOk);
  // Starting above 0, decreasing, or not ending at the chars size.
  EXPECT_EQ(load_with(0, 1), StatusCode::kInvalidArgument);
  EXPECT_EQ(load_with(2, 1), StatusCode::kInvalidArgument);
  EXPECT_EQ(load_with(1, 0x7ffffff0u), StatusCode::kInvalidArgument);
  EXPECT_EQ(load_with(3, 5), StatusCode::kInvalidArgument);
}

// One copy is read on 4 threads while the main thread appends 10,000
// objects to another copy at the tip of the same payload, across several
// capacity doublings. Each reader checksums the fixed copy, and also reads
// every object of the copy the writer published last, whose payload the
// writer is appending into (run under TSan in CI).
TEST(DatasetTest, CopiesReadWhileAnotherCopyAppends) {
  constexpr uint32_t kBase = 1000;
  constexpr uint32_t kAppends = 10000;
  for (const DataKind kind : {DataKind::kFloatVector, DataKind::kString}) {
    SCOPED_TRACE(kind == DataKind::kFloatVector ? "vectors" : "strings");
    Dataset tip = Sequence(kind, kBase);
    const Dataset fixed = tip;
    const auto checksum = [](const Dataset& d, uint32_t n) {
      uint64_t h = 1469598103934665603ull;
      for (uint32_t i = 0; i < n; ++i) {
        if (d.kind() == DataKind::kFloatVector) {
          for (const float x : d.Vector(i)) {
            h = (h ^ std::hash<float>{}(x)) * 31;
          }
        } else {
          h = (h ^ std::hash<std::string_view>{}(d.String(i))) * 31;
        }
      }
      return h;
    };
    const uint64_t want = checksum(fixed, kBase);

    std::mutex mu;
    auto published = std::make_shared<const Dataset>(tip);
    std::atomic<bool> done{false};
    std::atomic<uint64_t> bad{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&] {
        do {
          if (checksum(fixed, kBase) != want) ++bad;
          std::shared_ptr<const Dataset> latest;
          {
            std::lock_guard<std::mutex> lock(mu);
            latest = published;
          }
          std::vector<uint32_t> ids(latest->size());
          for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
          if (!Holds(*latest, ids)) ++bad;
        } while (!done.load());
      });
    }
    for (uint32_t i = kBase; i < kBase + kAppends; ++i) {
      AppendNth(&tip, i);
      if (i % 64 == 0) {
        auto next = std::make_shared<const Dataset>(tip);
        std::lock_guard<std::mutex> lock(mu);
        published = std::move(next);
      }
    }
    done.store(true);
    for (std::thread& t : readers) t.join();
    EXPECT_EQ(bad.load(), 0u);
    EXPECT_EQ(checksum(fixed, kBase), want);
    EXPECT_TRUE(Holds(tip, Iota(kBase + kAppends)));
  }
}

TEST(EditDistanceTest, PaperExamples) {
  // MRQ(o1, 2) = {o1, o2, o3} in the paper's Fig. 1 example.
  Dataset d = PaperStrings();
  auto m = MakeMetric(MetricKind::kEdit);
  EXPECT_FLOAT_EQ(m->Distance(d, 0, 0), 0.0f);   // "a" vs "a"
  EXPECT_FLOAT_EQ(m->Distance(d, 0, 1), 1.0f);   // "a" vs "ab"
  EXPECT_FLOAT_EQ(m->Distance(d, 0, 2), 2.0f);   // "a" vs "bac"
  EXPECT_GT(m->Distance(d, 0, 3), 2.0f);         // "a" vs "acba"
  EXPECT_FLOAT_EQ(m->Distance(d, 7, 9), 1.0f);   // "aabcc" vs "abbcc"
  EXPECT_FLOAT_EQ(m->Distance(d, 7, 8), 1.0f);   // "aabcc" vs "babcc"
}

TEST(EditDistanceTest, EmptyString) {
  Dataset d = Dataset::Strings();
  d.AppendString("");
  d.AppendString("abc");
  auto m = MakeMetric(MetricKind::kEdit);
  EXPECT_FLOAT_EQ(m->Distance(d, 0, 1), 3.0f);
  EXPECT_FLOAT_EQ(m->Distance(d, 1, 0), 3.0f);
  EXPECT_FLOAT_EQ(m->Distance(d, 0, 0), 0.0f);
}

TEST(EditDistanceTest, CountsDpCells) {
  Dataset d = Dataset::Strings();
  d.AppendString("abcd");   // 4
  d.AppendString("xyzxyz");  // 6
  auto m = MakeMetric(MetricKind::kEdit);
  m->Distance(d, 0, 1);
  EXPECT_EQ(m->stats().calls, 1u);
  EXPECT_EQ(m->stats().ops, 24u + kDistanceCallOps);
}

TEST(L1Test, KnownValues) {
  Dataset d = Dataset::FloatVectors(3);
  d.AppendVector(std::vector<float>{0.0f, 0.0f, 0.0f});
  d.AppendVector(std::vector<float>{1.0f, -2.0f, 3.0f});
  auto m = MakeMetric(MetricKind::kL1);
  EXPECT_FLOAT_EQ(m->Distance(d, 0, 1), 6.0f);
  EXPECT_EQ(m->stats().ops, 3u + kDistanceCallOps);
}

TEST(L2Test, KnownValues) {
  Dataset d = Dataset::FloatVectors(2);
  d.AppendVector(std::vector<float>{0.0f, 0.0f});
  d.AppendVector(std::vector<float>{3.0f, 4.0f});
  auto m = MakeMetric(MetricKind::kL2);
  EXPECT_FLOAT_EQ(m->Distance(d, 0, 1), 5.0f);
}

TEST(AngularCosineTest, KnownAngles) {
  Dataset d = Dataset::FloatVectors(2);
  d.AppendVector(std::vector<float>{1.0f, 0.0f});
  d.AppendVector(std::vector<float>{0.0f, 1.0f});   // 90 degrees
  d.AppendVector(std::vector<float>{-1.0f, 0.0f});  // 180 degrees
  d.AppendVector(std::vector<float>{2.0f, 0.0f});   // same direction
  auto m = MakeMetric(MetricKind::kAngularCosine);
  EXPECT_NEAR(m->Distance(d, 0, 1), 0.5f, 1e-5f);
  EXPECT_NEAR(m->Distance(d, 0, 2), 1.0f, 1e-5f);
  EXPECT_NEAR(m->Distance(d, 0, 3), 0.0f, 1e-5f);  // magnitude-invariant
}

TEST(MetricTest, SupportsKind) {
  EXPECT_TRUE(MakeMetric(MetricKind::kL1)->SupportsKind(DataKind::kFloatVector));
  EXPECT_FALSE(MakeMetric(MetricKind::kL1)->SupportsKind(DataKind::kString));
  EXPECT_TRUE(MakeMetric(MetricKind::kEdit)->SupportsKind(DataKind::kString));
  EXPECT_FALSE(
      MakeMetric(MetricKind::kEdit)->SupportsKind(DataKind::kFloatVector));
}

TEST(MetricTest, NamesAndReset) {
  auto m = MakeMetric(MetricKind::kL2);
  EXPECT_EQ(m->Name(), "L2");
  Dataset d = Dataset::FloatVectors(2);
  d.AppendVector(std::vector<float>{0.0f, 0.0f});
  d.AppendVector(std::vector<float>{1.0f, 1.0f});
  m->Distance(d, 0, 1);
  EXPECT_GT(m->stats().calls, 0u);
  m->ResetStats();
  EXPECT_EQ(m->stats().calls, 0u);
  EXPECT_EQ(m->stats().ops, 0u);
}

}  // namespace
}  // namespace gts
