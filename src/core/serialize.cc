// Binary persistence for GtsIndex: a versioned header, the options, the
// dataset payload, the tree tables, liveness and the cache-table ids.
// Load() validates the header, the metric kind and every structural size
// before accepting the file, and re-establishes the device residency.
// SaveTo serializes one epoch-pinned version, so it is consistent under —
// and never blocks — concurrent updates.

#include <cstring>
#include <fstream>

#include "common/binary_io.h"
#include "core/gts.h"

namespace gts {

namespace {

using binary_io::ReadPod;
using binary_io::ReadVec;
using binary_io::WritePod;
using binary_io::WriteVec;

constexpr char kMagic[8] = {'G', 'T', 'S', 'I', 'D', 'X', '0', '1'};

}  // namespace

Status GtsIndex::SaveTo(const std::string& path) const {
  epoch::Guard guard(&epoch_);  // one consistent version, zero blocking
  const Version& v = Current();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::InvalidArgument("cannot open " + path);

  out.write(kMagic, sizeof(kMagic));
  WritePod(out, static_cast<uint32_t>(metric_->kind()));
  WritePod(out, options_.node_capacity);
  WritePod(out, options_.seed);
  WritePod(out, options_.cache_capacity_bytes);
  WritePod(out, options_.max_tombstone_fraction);
  WritePod(out, options_.fft_ancestors);

  v.data->Serialize(out);

  WritePod(out, v.tree->height);
  WritePod(out, v.tree->indexed_count);
  WritePod(out, v.live->alive_count);
  WritePod(out, v.live->tombstones_in_tree);
  WritePod(out, v.rebuild_count);
  WriteVec(out, v.tree->node_list);
  WriteVec(out, v.tree->tl_object);
  WriteVec(out, v.tree->tl_dis);
  // Liveness is a bitset in memory and one byte per object on disk.
  std::vector<uint8_t> alive(v.data->size());
  for (uint32_t id = 0; id < alive.size(); ++id) alive[id] = v.live->alive(id);
  WriteVec(out, alive);
  const std::vector<uint32_t> cache_ids(v.cache->ids().begin(),
                                        v.cache->ids().end());
  WriteVec(out, cache_ids);

  out.flush();
  if (!out) return Status::Internal("write failed for " + path);
  return Status::Ok();
}

Result<std::unique_ptr<GtsIndex>> GtsIndex::Load(const std::string& path,
                                                 const DistanceMetric* metric,
                                                 gpu::Device* device) {
  if (metric == nullptr || device == nullptr) {
    return Status::InvalidArgument("metric and device are required");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);

  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a GTS index file: " + path);
  }
  uint32_t metric_kind = 0;
  GtsOptions options;
  if (!ReadPod(in, &metric_kind) || !ReadPod(in, &options.node_capacity) ||
      !ReadPod(in, &options.seed) ||
      !ReadPod(in, &options.cache_capacity_bytes) ||
      !ReadPod(in, &options.max_tombstone_fraction) ||
      !ReadPod(in, &options.fft_ancestors)) {
    return Status::InvalidArgument("corrupt index header");
  }
  if (metric_kind != static_cast<uint32_t>(metric->kind())) {
    return Status::InvalidArgument(
        "metric mismatch: index was built with a different metric");
  }

  auto data = Dataset::Deserialize(in);
  if (!data.ok()) return data.status();
  if (!metric->SupportsKind(data.value().kind())) {
    return Status::Unsupported("metric does not support this data kind");
  }

  // Deserialize the parts, validate them, and only then assemble the
  // initial version — a corrupt file never installs anything.
  auto tree = std::make_shared<TreeTables>();
  auto live = std::make_shared<Liveness>();
  uint64_t rebuild_count = 0;
  std::vector<uint8_t> alive;
  std::vector<uint32_t> cache_ids;
  if (!ReadPod(in, &tree->height) || !ReadPod(in, &tree->indexed_count) ||
      !ReadPod(in, &live->alive_count) ||
      !ReadPod(in, &live->tombstones_in_tree) ||
      !ReadPod(in, &rebuild_count) || !ReadVec(in, &tree->node_list) ||
      !ReadVec(in, &tree->tl_object) || !ReadVec(in, &tree->tl_dis) ||
      !ReadVec(in, &alive) || !ReadVec(in, &cache_ids)) {
    return Status::InvalidArgument("corrupt index body");
  }

  // Structural validation before accepting the file.
  const uint32_t n = data.value().size();
  if (alive.size() != n ||
      tree->tl_object.size() != tree->tl_dis.size() ||
      tree->tl_object.size() != tree->indexed_count ||
      tree->indexed_count > n || live->alive_count > n ||
      tree->node_list.size() !=
          TotalNodes(tree->height, options.node_capacity) + 1) {
    return Status::InvalidArgument("index file fails structural validation");
  }
  live->bits.resize((n + 63) / 64);
  for (uint32_t id = 0; id < n; ++id) {
    if (alive[id] != 0) live->MarkAlive(id);
  }
  for (const uint32_t id : tree->tl_object) {
    if (id >= n) return Status::InvalidArgument("table list id out of range");
  }
  // The covering ball below reads the root's pivot.
  for (const GtsNode& node : tree->node_list) {
    if (node.pivot != kInvalidId && node.pivot >= n) {
      return Status::InvalidArgument("node pivot out of range");
    }
  }
  auto cache = std::make_shared<CacheList>();
  for (const uint32_t id : cache_ids) {
    if (id >= n || !live->alive(id)) {
      return Status::InvalidArgument("cache id out of range");
    }
    cache->Add(id, data.value().ObjectBytes(id));
  }

  // The SoA pack is derived state like the covering ball: rebuilt from the
  // validated tables, never serialized (file format unchanged).
  tree->pack = SoaPack::Pack(data.value(), tree->tl_object);

  std::unique_ptr<GtsIndex> index(new GtsIndex(
      metric, device, options, data.value().kind(), data.value().dim()));
  // Exclusive construction, but the guarded fields demand the writer
  // mutex (see GtsIndex::Build); uncontended here.
  MutexLock lock(&index->writer_mu_);
  auto version = std::make_unique<Version>();
  version->data = std::make_shared<const Dataset>(std::move(data).value());
  version->tree = std::move(tree);
  version->live = std::move(live);
  version->cache = std::move(cache);
  version->rebuild_count = rebuild_count;
  version->version_id = index->next_version_id_++;
  // The covering ball is derived state — recomputed here instead of
  // serialized, so the file format is unchanged and stale-radius drift
  // cannot survive a save/load round trip.
  version->ball = index->ComputeCoveringBall(*version);
  GTS_RETURN_IF_ERROR(index->UpdateResidentBytes(version.get()));
  index->current_.store(version.release(), std::memory_order_seq_cst);

  // Model the host-to-device upload of the restored index.
  device->clock().ChargeRawNs(
      static_cast<double>(index->resident_bytes_) * gpu::kPcieNsPerByte);
  return index;
}

}  // namespace gts
