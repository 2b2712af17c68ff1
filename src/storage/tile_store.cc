#include "storage/tile_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/logging.h"
#include "storage/tile_codec.h"

namespace fc::storage {

// ---------------------------------------------------------------------------
// TileStore (loop fallback)

std::vector<Result<tiles::TilePtr>> TileStore::FetchBatch(
    const std::vector<tiles::TileKey>& keys) {
  std::vector<Result<tiles::TilePtr>> out;
  out.reserve(keys.size());
  for (const auto& key : keys) out.push_back(Fetch(key));
  return out;
}

// ---------------------------------------------------------------------------
// MemoryTileStore

MemoryTileStore::MemoryTileStore(std::shared_ptr<const tiles::TilePyramid> pyramid)
    : pyramid_(std::move(pyramid)) {}

Result<tiles::TilePtr> MemoryTileStore::Fetch(const tiles::TileKey& key) {
  ++fetches_;
  ++queries_;
  return pyramid_->GetTile(key);
}

std::vector<Result<tiles::TilePtr>> MemoryTileStore::FetchBatch(
    const std::vector<tiles::TileKey>& keys) {
  fetches_ += keys.size();
  if (!keys.empty()) ++queries_;
  std::vector<Result<tiles::TilePtr>> out;
  out.reserve(keys.size());
  for (const auto& key : keys) out.push_back(pyramid_->GetTile(key));
  return out;
}

bool MemoryTileStore::Contains(const tiles::TileKey& key) const {
  return pyramid_->Contains(key);
}

const tiles::PyramidSpec& MemoryTileStore::spec() const { return pyramid_->spec(); }

// ---------------------------------------------------------------------------
// SimulatedDbmsStore

SimulatedDbmsStore::SimulatedDbmsStore(
    std::shared_ptr<const tiles::TilePyramid> pyramid,
    array::QueryCostModel cost_model, SimClock* clock,
    RangeCoalesceOptions coalesce)
    : pyramid_(std::move(pyramid)),
      cost_model_(cost_model),
      clock_(clock),
      coalesce_(coalesce) {}

Result<tiles::TilePtr> SimulatedDbmsStore::Fetch(const tiles::TileKey& key) {
  ++fetches_;
  ++queries_;
  auto tile = pyramid_->GetTile(key);
  if (!tile.ok()) return tile;
  // Each tile is one storage chunk in the materialized view (section 2.3);
  // the query scans the tile's cells.
  ++chunk_scans_;
  double ms;
  {
    std::lock_guard<std::mutex> lock(charge_mu_);
    ms = cost_model_.QueryMillis(/*chunks=*/1, (*tile)->cell_count());
    total_query_millis_ += ms;
  }
  clock_->AdvanceMillis(ms);
  return tile;
}

std::vector<Result<tiles::TilePtr>> SimulatedDbmsStore::FetchBatch(
    const std::vector<tiles::TileKey>& keys) {
  fetches_ += keys.size();
  if (!keys.empty()) ++queries_;
  std::vector<Result<tiles::TilePtr>> out;
  out.reserve(keys.size());
  // One multi-range query either way — ONE QueryMillis call (one jitter
  // draw) per non-empty batch, so the coalesced and per-tile pricings stay
  // interchangeable without perturbing the RNG stream. What coalescing
  // changes is only the chunks/cells fed to that call.
  std::int64_t chunks = 0;
  std::int64_t cells = 0;
  if (!coalesce_.enabled) {
    // Per-tile-chunk pricing (PR 5): every tile found is one chunk of the
    // same scan. Missing keys fail their own slot and charge nothing.
    for (const auto& key : keys) {
      out.push_back(pyramid_->GetTile(key));
      if (out.back().ok()) {
        ++chunks;
        cells += (*out.back())->cell_count();
      }
    }
  } else {
    // Merged-extent pricing: plan the batch into Morton-contiguous runs and
    // charge each run's chunk-grid bounding box once, plus its bounded
    // cell waste. Results must land in the CALLER's key order, so fetch
    // through an argsort permutation rather than the plan's sorted keys.
    std::vector<std::size_t> order(keys.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&keys](std::size_t a, std::size_t b) {
                       return tiles::MortonCode(keys[a]) <
                              tiles::MortonCode(keys[b]);
                     });
    std::vector<tiles::TileKey> sorted;
    sorted.reserve(keys.size());
    for (std::size_t i : order) sorted.push_back(keys[i]);
    const std::int64_t tile_cells = spec().tile_width * spec().tile_height;
    RangePlan plan = PlanTileRuns(std::move(sorted), coalesce_, tile_cells);
    out.assign(keys.size(),
               Result<tiles::TilePtr>(Status::Internal("batch slot unset")));
    for (const TileRun& run : plan.runs) {
      std::int64_t found_cells = 0;
      std::size_t found = 0;
      for (std::size_t i = run.begin; i < run.end; ++i) {
        auto tile = pyramid_->GetTile(plan.keys[i]);
        if (tile.ok()) {
          ++found;
          found_cells += (*tile)->cell_count();
        }
        out[order[i]] = std::move(tile);
      }
      if (found == 0) continue;  // Nothing materialized: no scan issued.
      const std::int64_t run_waste =
          (run.extent_tiles - static_cast<std::int64_t>(run.size())) *
          tile_cells;
      chunks += run.chunks;
      cells += found_cells + run_waste;
      ++runs_;
      chunk_scans_ += static_cast<std::uint64_t>(run.chunks);
      waste_cells_ += static_cast<std::uint64_t>(run_waste);
    }
  }
  if (chunks > 0) {
    if (!coalesce_.enabled) {
      chunk_scans_ += static_cast<std::uint64_t>(chunks);
    }
    double ms;
    {
      std::lock_guard<std::mutex> lock(charge_mu_);
      ms = cost_model_.QueryMillis(chunks, cells);
      total_query_millis_ += ms;
    }
    clock_->AdvanceMillis(ms);
  }
  return out;
}

bool SimulatedDbmsStore::Contains(const tiles::TileKey& key) const {
  return pyramid_->Contains(key);
}

const tiles::PyramidSpec& SimulatedDbmsStore::spec() const {
  return pyramid_->spec();
}

// ---------------------------------------------------------------------------
// DiskTileStore

namespace {

// Packed extent file layout (host-endian; a local cache artifact, not an
// interchange format):
//   u32 magic "FCPX" | u32 version | u64 entry count
//   count x { i32 level | i64 x | i64 y | u64 offset | u64 length }
//   blobs (each entry's encoded tile at [offset, offset+length))
// Entries — and therefore blobs — are sorted by MortonCode(key), so tiles
// adjacent on the space-filling curve are adjacent in the file and a
// spatial run coalesces into one contiguous pread.
constexpr std::uint32_t kPackedMagic = 0x58504346;  // "FCPX" little-endian.
constexpr std::uint32_t kPackedVersion = 1;
constexpr std::size_t kPackedHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kPackedEntryBytes = 4 + 8 + 8 + 8 + 8;

template <typename T>
void AppendPod(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool ReadPod(const std::string& bytes, std::size_t* pos, T* v) {
  if (bytes.size() - *pos < sizeof(T)) return false;
  std::memcpy(v, bytes.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

// The extent is published via write-temp-then-rename: a reader that opens
// the path sees either the complete old file or the complete new one,
// never a truncated in-place rewrite — and an already open fd (the packed
// extent snapshot) keeps reading its original inode. The counter keeps
// concurrent repacks of one path off each other's temp.
std::string TempPathFor(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path + ".tmp" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

Status NotPacked(const tiles::TileKey& key) {
  return Status::NotFound("no packed tile " + key.ToString());
}

}  // namespace

DiskTileStore::PackedExtent::~PackedExtent() {
  if (fd >= 0) ::close(fd);
}

DiskTileStore::DiskTileStore(std::string directory, tiles::PyramidSpec spec,
                             TileCodecOptions codec,
                             RangeCoalesceOptions coalesce)
    : directory_(std::move(directory)),
      spec_(spec),
      codec_(codec),
      coalesce_(coalesce) {}

Result<std::unique_ptr<DiskTileStore>> DiskTileStore::Open(
    std::string directory, tiles::PyramidSpec spec, TileCodecOptions codec,
    RangeCoalesceOptions coalesce) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::IoError("cannot create tile directory " + directory + ": " +
                           ec.message());
  }
  auto store = std::unique_ptr<DiskTileStore>(
      new DiskTileStore(std::move(directory), spec, codec, coalesce));
  if (std::filesystem::exists(store->PackedExtentPath())) {
    auto packed = store->LoadPackedExtent();
    if (packed.ok()) {
      std::lock_guard<std::mutex> lock(store->io_mu_);
      store->packed_ = *packed;
    } else {
      // The store serves nothing until a SavePyramid rebuilds over it.
      FC_LOG_WARNING << "ignoring unreadable packed extent "
                     << store->PackedExtentPath() << ": "
                     << packed.status().ToString();
    }
  }
  return store;
}

std::string DiskTileStore::PackedExtentPath() const {
  return directory_ + "/extent.fcpk";
}

bool DiskTileStore::packed_loaded() const {
  std::lock_guard<std::mutex> lock(io_mu_);
  return packed_ != nullptr;
}

Status DiskTileStore::SavePyramid(const tiles::TilePyramid& pyramid) {
  std::vector<tiles::TileKey> keys = pyramid.spec().AllKeys();
  std::sort(keys.begin(), keys.end(),
            [](const tiles::TileKey& a, const tiles::TileKey& b) {
              return tiles::MortonCode(a) < tiles::MortonCode(b);
            });

  auto packed = std::make_shared<PackedExtent>();
  packed->entries.reserve(keys.size());
  std::string blobs;
  std::uint64_t offset =
      kPackedHeaderBytes + kPackedEntryBytes * keys.size();
  for (const auto& key : keys) {
    FC_ASSIGN_OR_RETURN(auto tile, pyramid.GetTile(key));
    std::string bytes = codec_.Encode(*tile);
    packed->index.emplace(key, packed->entries.size());
    packed->entries.push_back(
        PackedEntry{key, offset, static_cast<std::uint64_t>(bytes.size())});
    offset += bytes.size();
    blobs += bytes;
  }

  std::string header;
  header.reserve(kPackedHeaderBytes + kPackedEntryBytes * keys.size());
  AppendPod(&header, kPackedMagic);
  AppendPod(&header, kPackedVersion);
  AppendPod(&header, static_cast<std::uint64_t>(packed->entries.size()));
  for (const auto& e : packed->entries) {
    AppendPod(&header, static_cast<std::int32_t>(e.key.level));
    AppendPod(&header, static_cast<std::int64_t>(e.key.x));
    AppendPod(&header, static_cast<std::int64_t>(e.key.y));
    AppendPod(&header, e.offset);
    AppendPod(&header, e.length);
  }

  const std::string path = PackedExtentPath();
  const std::string tmp = TempPathFor(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open for writing: " + tmp);
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    out.write(blobs.data(), static_cast<std::streamsize>(blobs.size()));
    out.flush();
    if (!out) return Status::IoError("write failed: " + tmp);
  }

  // Open the fd on the temp file BEFORE the rename: the snapshot's offsets
  // must describe the inode its fd reads even if another repack renames a
  // newer extent over the path in between. Readers holding the previous
  // snapshot likewise keep their own inode; rename never truncates it.
  packed->fd = ::open(tmp.c_str(), O_RDONLY);
  if (packed->fd < 0) {
    return Status::IoError("cannot reopen packed extent " + tmp + ": " +
                           std::strerror(errno));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename " + tmp + " -> " + path + ": " +
                           std::strerror(errno));
  }
  std::lock_guard<std::mutex> lock(io_mu_);
  packed_ = std::move(packed);
  return Status::OK();
}

Result<std::shared_ptr<const DiskTileStore::PackedExtent>>
DiskTileStore::LoadPackedExtent() {
  const std::string path = PackedExtentPath();
  auto packed = std::make_shared<PackedExtent>();
  packed->fd = ::open(path.c_str(), O_RDONLY);
  if (packed->fd < 0) {
    return Status::IoError("cannot open packed extent " + path + ": " +
                           std::strerror(errno));
  }
  // Only the header and the index are read; every count and offset in them
  // is checked against the size of the file this fd reads.
  struct stat st;
  if (::fstat(packed->fd, &st) != 0) {
    return Status::IoError("cannot stat packed extent " + path + ": " +
                           std::strerror(errno));
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < kPackedHeaderBytes) {
    return Status::Corruption("packed extent truncated: " + path);
  }
  std::string header(kPackedHeaderBytes, '\0');
  FC_RETURN_IF_ERROR(PreadInto(packed->fd, 0, header.data(), header.size(),
                               /*metered=*/false));
  std::size_t pos = 0;
  std::uint32_t magic = 0, version = 0;
  std::uint64_t count = 0;
  if (!ReadPod(header, &pos, &magic) || magic != kPackedMagic) {
    return Status::Corruption("packed extent has bad magic: " + path);
  }
  if (!ReadPod(header, &pos, &version) || version != kPackedVersion) {
    return Status::Corruption("packed extent has unknown version: " + path);
  }
  // Bounded by the file size before anything is sized from it: a forged
  // count must not reach reserve().
  if (!ReadPod(header, &pos, &count) ||
      count > (size - kPackedHeaderBytes) / kPackedEntryBytes) {
    return Status::Corruption("packed extent index truncated: " + path);
  }
  std::string index(count * kPackedEntryBytes, '\0');
  FC_RETURN_IF_ERROR(PreadInto(packed->fd, kPackedHeaderBytes, index.data(),
                               index.size(), /*metered=*/false));
  pos = 0;
  packed->entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::int32_t level = 0;
    std::int64_t x = 0, y = 0;
    PackedEntry e;
    if (!ReadPod(index, &pos, &level) || !ReadPod(index, &pos, &x) ||
        !ReadPod(index, &pos, &y) || !ReadPod(index, &pos, &e.offset) ||
        !ReadPod(index, &pos, &e.length)) {
      return Status::Corruption("packed extent index truncated: " + path);
    }
    e.key = tiles::TileKey{static_cast<int>(level), x, y};
    if (e.offset > size || e.length > size - e.offset) {
      return Status::Corruption("packed extent blob out of bounds: " + path);
    }
    packed->index.emplace(e.key, packed->entries.size());
    packed->entries.push_back(e);
  }
  return std::shared_ptr<const PackedExtent>(std::move(packed));
}

std::shared_ptr<const DiskTileStore::PackedExtent> DiskTileStore::PackedFor(
    const tiles::TileKey& key) const {
  std::lock_guard<std::mutex> lock(io_mu_);
  if (!packed_ || packed_->index.count(key) == 0) return nullptr;
  return packed_;
}

Status DiskTileStore::PreadInto(int fd, std::uint64_t offset, char* dst,
                                std::uint64_t length, bool metered) {
  std::uint64_t done = 0;
  while (done < length) {
    const ssize_t n =
        ::pread(fd, dst + done, static_cast<std::size_t>(length - done),
                static_cast<off_t>(offset + done));
    if (metered) ++syscalls_;
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pread failed on packed extent: ") +
                             std::strerror(errno));
    }
    if (n == 0) {
      return Status::Corruption("packed extent shorter than its index");
    }
    if (metered) bytes_read_ += static_cast<std::uint64_t>(n);
    done += static_cast<std::uint64_t>(n);
  }
  return Status::OK();
}

Result<tiles::TilePtr> DiskTileStore::DecodeBlob(const tiles::TileKey& key,
                                                 std::string_view bytes) const {
  FC_ASSIGN_OR_RETURN(auto tile, DecodeTile(bytes));
  if (!(tile.key() == key)) {
    return Status::Corruption("packed slot of " + key.ToString() +
                              " holds key " + tile.key().ToString());
  }
  return std::make_shared<const tiles::Tile>(std::move(tile));
}

Result<tiles::TilePtr> DiskTileStore::Fetch(const tiles::TileKey& key) {
  ++fetches_;
  ++queries_;
  auto packed = PackedFor(key);
  if (packed == nullptr) return NotPacked(key);
  const PackedEntry& e = packed->entries[packed->index.at(key)];
  std::string bytes(e.length, '\0');
  FC_RETURN_IF_ERROR(PreadInto(packed->fd, e.offset, bytes.data(), e.length));
  return DecodeBlob(key, bytes);
}

std::vector<Result<tiles::TilePtr>> DiskTileStore::FetchBatch(
    const std::vector<tiles::TileKey>& keys) {
  fetches_ += keys.size();
  if (!keys.empty()) ++queries_;
  std::vector<Result<tiles::TilePtr>> out(
      keys.size(), Result<tiles::TilePtr>(Status::Internal("batch slot unset")));

  // Partition against one snapshot: slots the packed extent serves, and
  // keys outside it, which are NotFound.
  std::shared_ptr<const PackedExtent> packed;
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    packed = packed_;
  }
  std::vector<std::size_t> packed_slots;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (packed && packed->index.count(keys[i]) > 0) {
      packed_slots.push_back(i);
    } else {
      out[i] = NotPacked(keys[i]);
    }
  }

  if (!packed_slots.empty() && coalesce_.enabled) {
    // Vectored path: plan over each DISTINCT key once (duplicate slots copy
    // the first slot's result afterwards, as the loop fallback's repeated
    // reads would produce bit-identically), sorted by file offset. Morton
    // order == file order, so spatially adjacent tiles become one
    // contiguous span; one pread serves each planned run into a single
    // buffer the per-slot decodes then slice.
    std::vector<std::size_t> unique_slots;
    std::vector<std::pair<std::size_t, std::size_t>> dup_slots;  // dup, first
    {
      std::unordered_map<tiles::TileKey, std::size_t, tiles::TileKeyHash> first;
      for (std::size_t slot : packed_slots) {
        auto [it, inserted] = first.emplace(keys[slot], slot);
        if (inserted) {
          unique_slots.push_back(slot);
        } else {
          dup_slots.emplace_back(slot, it->second);
        }
      }
    }
    std::sort(unique_slots.begin(), unique_slots.end(),
              [&](std::size_t a, std::size_t b) {
                return packed->entries[packed->index.at(keys[a])].offset <
                       packed->entries[packed->index.at(keys[b])].offset;
              });
    std::vector<PackedSpan> spans;
    spans.reserve(unique_slots.size());
    for (std::size_t slot : unique_slots) {
      const PackedEntry& e = packed->entries[packed->index.at(keys[slot])];
      spans.push_back(PackedSpan{e.offset, e.length});
    }
    ByteRunPlan plan = PlanByteRuns(spans, coalesce_);
    for (const ByteRun& run : plan.runs) {
      std::string buffer(run.length, '\0');
      Status read =
          PreadInto(packed->fd, run.offset, buffer.data(), run.length);
      if (read.ok()) ++vectored_runs_;
      for (std::size_t j = run.begin; j < run.end; ++j) {
        const std::size_t slot = unique_slots[j];
        if (!read.ok()) {
          out[slot] = read;
          continue;
        }
        const PackedEntry& e = packed->entries[packed->index.at(keys[slot])];
        out[slot] = DecodeBlob(
            keys[slot],
            std::string_view(buffer).substr(e.offset - run.offset, e.length));
      }
    }
    for (const auto& [dup, original] : dup_slots) out[dup] = out[original];
  } else {
    // Uncoalesced packed path: still the cached fd, one pread per slot.
    for (std::size_t slot : packed_slots) {
      const PackedEntry& e = packed->entries[packed->index.at(keys[slot])];
      std::string bytes(e.length, '\0');
      Status read = PreadInto(packed->fd, e.offset, bytes.data(), e.length);
      out[slot] = read.ok() ? DecodeBlob(keys[slot], bytes)
                            : Result<tiles::TilePtr>(read);
    }
  }
  return out;
}

bool DiskTileStore::Contains(const tiles::TileKey& key) const {
  return PackedFor(key) != nullptr;
}

// ---------------------------------------------------------------------------
// SingleFlightTileStore

SingleFlightTileStore::SingleFlightTileStore(TileStore* inner) : inner_(inner) {}

Result<tiles::TilePtr> SingleFlightTileStore::JoinFlight(
    std::unique_lock<std::mutex>& lock, const std::shared_ptr<Flight>& flight) {
  flight->landed.wait(lock, [&] { return flight->done; });
  return flight->result;
}

void SingleFlightTileStore::LandFlight(const tiles::TileKey& key,
                                       const std::shared_ptr<Flight>& flight,
                                       const Result<tiles::TilePtr>& result) {
  // Notify under the lock: once `done` is observable the last joiner may
  // drop the final reference, so the cv must not be touched after the
  // mutex is released.
  std::lock_guard<std::mutex> lock(mu_);
  flight->result = result;
  flight->done = true;
  flights_.erase(key);
  flight->landed.notify_all();
}

Result<tiles::TilePtr> SingleFlightTileStore::Fetch(const tiles::TileKey& key) {
  ++fetches_;
  std::shared_ptr<Flight> flight;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = flights_.find(key);
    if (it != flights_.end()) {
      // Someone else is already fetching this key: join their flight.
      ++deduped_;
      flight = it->second;
      return JoinFlight(lock, flight);
    }
    flight = std::make_shared<Flight>();
    flights_.emplace(key, flight);
  }

  ++queries_;
  auto result = inner_->Fetch(key);
  LandFlight(key, flight, result);
  return result;
}

std::vector<Result<tiles::TilePtr>> SingleFlightTileStore::FetchBatch(
    const std::vector<tiles::TileKey>& keys) {
  fetches_ += keys.size();
  std::vector<Result<tiles::TilePtr>> out(
      keys.size(), Result<tiles::TilePtr>(Status::Internal("batch slot unset")));

  // Partition under one lock pass: keys already in flight become joiners;
  // the rest (first occurrence only — a duplicate key within one batch
  // joins its own leader) become this call's leader batch.
  std::vector<std::pair<std::size_t, std::shared_ptr<Flight>>> leaders;
  std::vector<std::pair<std::size_t, std::shared_ptr<Flight>>> joiners;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      auto it = flights_.find(keys[i]);
      if (it != flights_.end()) {
        ++deduped_;
        joiners.emplace_back(i, it->second);
        continue;
      }
      auto flight = std::make_shared<Flight>();
      flights_.emplace(keys[i], flight);
      leaders.emplace_back(i, std::move(flight));
    }
  }

  // Leader batch: one upstream round trip for every non-joined key, landed
  // into the flights so concurrent fetchers of those keys get the results.
  if (!leaders.empty()) {
    ++queries_;
    std::vector<tiles::TileKey> leader_keys;
    leader_keys.reserve(leaders.size());
    for (const auto& [i, flight] : leaders) leader_keys.push_back(keys[i]);
    auto results = inner_->FetchBatch(leader_keys);
    for (std::size_t j = 0; j < leaders.size(); ++j) {
      LandFlight(leader_keys[j], leaders[j].second, results[j]);
      out[leaders[j].first] = std::move(results[j]);
    }
  }

  // Join foreign flights AFTER issuing our own batch, so two overlapping
  // batches cannot deadlock waiting on each other's unlanded keys.
  for (auto& [i, flight] : joiners) {
    std::unique_lock<std::mutex> lock(mu_);
    out[i] = JoinFlight(lock, flight);
  }
  return out;
}

bool SingleFlightTileStore::Contains(const tiles::TileKey& key) const {
  return inner_->Contains(key);
}

std::uint64_t RegisterTileStoreMetrics(telemetry::MetricsRegistry* registry,
                                       const std::string& prefix,
                                       const TileStore* store) {
  return registry->AddSource([prefix, store](telemetry::SnapshotSink& sink) {
    sink.AddCounter(prefix + ".fetches", store->fetch_count());
    sink.AddCounter(prefix + ".queries", store->query_count());
    if (const auto* sf = dynamic_cast<const SingleFlightTileStore*>(store)) {
      sink.AddCounter(prefix + ".deduped", sf->deduped_count());
    }
    if (const auto* sim = dynamic_cast<const SimulatedDbmsStore*>(store)) {
      sink.AddCounter(prefix + ".chunk_scans", sim->chunk_scan_count());
      sink.AddCounter(prefix + ".runs", sim->run_count());
      sink.AddCounter(prefix + ".waste_cells", sim->waste_cell_count());
    }
    if (const auto* disk = dynamic_cast<const DiskTileStore*>(store)) {
      sink.AddCounter(prefix + ".syscalls", disk->syscall_count());
      sink.AddCounter(prefix + ".bytes_read", disk->bytes_read());
      sink.AddCounter(prefix + ".vectored_runs", disk->vectored_run_count());
    }
  });
}

}  // namespace fc::storage
