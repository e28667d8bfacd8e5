// Snapshot writer/reader + forest (de)serialization. See snapshot.h for
// the format and the recovery/degrade contract, DESIGN.md for rationale.
#include "recovery/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <new>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"

namespace ufo::recovery {

const char* to_string(RecoveryError e) {
  switch (e) {
    case RecoveryError::kNone: return "ok";
    case RecoveryError::kIoError: return "io error";
    case RecoveryError::kTruncated: return "truncated snapshot";
    case RecoveryError::kBadMagic: return "bad magic";
    case RecoveryError::kVersionMismatch: return "version mismatch";
    case RecoveryError::kCorruptSection: return "corrupt section";
    case RecoveryError::kMissingSection: return "missing section";
    case RecoveryError::kInconsistent: return "inconsistent state";
    case RecoveryError::kAllocFailed: return "allocation failed";
    case RecoveryError::kBadTarget: return "bad load target";
  }
  return "unknown";
}

// --- CRC64 (ECMA-182, reflected, table-driven) -------------------------------

namespace {

constexpr uint64_t kCrc64Poly = 0xC96C5795D7870F42ULL;

struct Crc64Table {
  uint64_t t[256];
  Crc64Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint64_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1) ? kCrc64Poly : 0);
      t[i] = c;
    }
  }
};

const Crc64Table& crc_table() {
  static const Crc64Table tab;
  return tab;
}

constexpr char kMagic[8] = {'U', 'F', 'O', 'S', 'N', 'A', 'P', '\0'};
constexpr uint32_t kVersion = 1;
constexpr size_t kFileHeaderBytes = 24;   // magic + version + nsec + crc
constexpr size_t kSectionHeaderBytes = 24;  // tag + reserved + len + crc

void put_header_u32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(uint8_t(v >> (8 * i)));
}

void put_header_u64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(uint8_t(v >> (8 * i)));
}

// Write-loop + fsync + close. Returns false on any failure.
bool write_all(int fd, const uint8_t* p, size_t len) {
  while (len > 0) {
    ssize_t w = ::write(fd, p, len);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    len -= static_cast<size_t>(w);
  }
  return true;
}

bool fsync_path(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return false;
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

std::string parent_dir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

uint64_t crc64(const void* data, size_t len, uint64_t seed) {
  const auto& tab = crc_table().t;
  uint64_t c = ~seed;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) c = (c >> 8) ^ tab[(c ^ p[i]) & 0xff];
  return ~c;
}

// --- SnapshotWriter ----------------------------------------------------------

void SnapshotWriter::add_section(uint32_t tag, ByteBuf payload) {
  sections_.push_back({tag, payload.bytes()});
}

size_t SnapshotWriter::total_bytes() const {
  size_t total = kFileHeaderBytes;
  for (const Section& s : sections_)
    total += kSectionHeaderBytes + s.payload.size();
  return total;
}

RecoveryError SnapshotWriter::commit(const std::string& path) {
  // Assemble the whole file image first: the durability protocol is
  // simplest to reason about as "one byte stream, written once".
  std::vector<uint8_t> file;
  file.reserve(total_bytes());
  file.insert(file.end(), kMagic, kMagic + 8);
  put_header_u32(file, kVersion);
  put_header_u32(file, static_cast<uint32_t>(sections_.size()));
  put_header_u64(file, crc64(file.data(), 16));
  for (const Section& s : sections_) {
    put_header_u32(file, s.tag);
    put_header_u32(file, 0);
    put_header_u64(file, s.payload.size());
    put_header_u64(file, crc64(s.payload.data(), s.payload.size()));
    file.insert(file.end(), s.payload.begin(), s.payload.end());
  }

  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return RecoveryError::kIoError;

  // Injected torn write: persist only a prefix and stop before the rename,
  // exactly what a crash mid-write leaves behind. The previous checkpoint
  // at `path` stays intact — the property the fork/kill test asserts.
  size_t limit = file.size();
  if (UFO_FAULT_POINT("snapshot.torn_write")) limit /= 2;

  bool ok = write_all(fd, file.data(), limit);
  if (ok && limit != file.size()) {
    ::close(fd);
    return RecoveryError::kIoError;  // torn: tmp left behind, path untouched
  }
  ok = ok && ::fsync(fd) == 0;
  ok = (::close(fd) == 0) && ok;
  if (!ok) {
    ::unlink(tmp.c_str());
    return RecoveryError::kIoError;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return RecoveryError::kIoError;
  }
  // Make the rename itself durable.
  if (!fsync_path(parent_dir(path))) return RecoveryError::kIoError;
  UFO_STAT("recovery.save.bytes", static_cast<int64_t>(file.size()));
  return RecoveryError::kNone;
}

// --- SnapshotReader ----------------------------------------------------------

RecoveryError SnapshotReader::open(const std::string& path) {
  buf_.clear();
  sections_.clear();
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return RecoveryError::kIoError;
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return RecoveryError::kIoError;
  }
  try {
    buf_.resize(static_cast<size_t>(st.st_size));
  } catch (const std::bad_alloc&) {
    ::close(fd);
    return RecoveryError::kAllocFailed;
  }
  size_t got = 0;
  while (got < buf_.size()) {
    ssize_t r = ::read(fd, buf_.data() + got, buf_.size() - got);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      ::close(fd);
      return RecoveryError::kIoError;
    }
    got += static_cast<size_t>(r);
  }
  ::close(fd);

  // Injected single-bit corruption on the read path: the checksum layer
  // must turn it into a typed error, never a crash.
  if (UFO_FAULT_POINT("snapshot.read.flip") && !buf_.empty())
    buf_[buf_.size() / 2] ^= 0x01;

  if (buf_.size() < kFileHeaderBytes) return RecoveryError::kTruncated;
  if (std::memcmp(buf_.data(), kMagic, 8) != 0)
    return RecoveryError::kBadMagic;
  Cursor hc(buf_.data() + 8, 16);
  uint32_t version = hc.get_u32();
  uint32_t nsec = hc.get_u32();
  uint64_t hcrc = hc.get_u64();
  if (crc64(buf_.data(), 16) != hcrc) return RecoveryError::kCorruptSection;
  if (version != kVersion) return RecoveryError::kVersionMismatch;

  size_t off = kFileHeaderBytes;
  for (uint32_t s = 0; s < nsec; ++s) {
    if (buf_.size() - off < kSectionHeaderBytes)
      return RecoveryError::kTruncated;
    Cursor sc(buf_.data() + off, kSectionHeaderBytes);
    uint32_t tag = sc.get_u32();
    sc.get_u32();  // reserved
    uint64_t len = sc.get_u64();
    uint64_t scrc = sc.get_u64();
    off += kSectionHeaderBytes;
    if (len > buf_.size() - off) return RecoveryError::kTruncated;
    Section sec;
    sec.tag = tag;
    sec.data = buf_.data() + off;
    sec.len = static_cast<size_t>(len);
    sec.corrupt = crc64(sec.data, sec.len) != scrc;
    sections_.push_back(sec);
    off += sec.len;
  }
  return RecoveryError::kNone;
}

const SnapshotReader::Section* SnapshotReader::find(uint32_t tag) const {
  for (const Section& s : sections_)
    if (s.tag == tag) return &s;
  return nullptr;
}

// --- ForestSerializer --------------------------------------------------------

void ForestSerializer::append(SnapshotWriter& w, const core::UfoCore& t) {
  using core::UfoCore;
  uint32_t ps = t.pool_size();

  ByteBuf meta;
  meta.put_u64(t.n_);
  meta.put_u32(ps);
  meta.put_u64(t.live_clusters_);
  w.add_section(kSecForestMeta, std::move(meta));

  ByteBuf verts;
  for (size_t v = 0; v < t.n_; ++v) verts.put_i64(t.vweight_[v]);
  for (size_t v = 0; v < t.n_; ++v) verts.put_u8(t.marked_[v]);
  w.add_section(kSecVerts, std::move(verts));

  ByteBuf topo;
  for (uint32_t id = 1; id < ps; ++id) {
    const UfoCore::Hot& h = t.hot_[id];
    topo.put_i32(h.level);
    if (h.level == UfoCore::kFreedLevel) continue;
    topo.put_u32(h.parent);
    topo.put_u32(h.center_child);
    topo.put_u32(h.leaf_vertex);
    topo.put_u32(h.merge_u);
    topo.put_u32(h.merge_v);
    topo.put_i64(h.merge_w);
    topo.put_u32(h.nbrs.size);
    for (const UfoCore::Adj& a : t.nbrs(id)) {
      topo.put_u32(a.nbr);
      topo.put_u32(a.my_end);
      topo.put_u32(a.other_end);
      topo.put_i64(a.w);
    }
    topo.put_u32(h.children.size);
    for (uint32_t c : t.children(id)) topo.put_u32(c);
  }
  w.add_section(kSecTopo, std::move(topo));

  // Maintained aggregates of internal clusters (leaves are refreshed from
  // kVerts on load; derived rake/index state is rebuilt, not serialized).
  // A size-only forest writes none: its sizes are rebuilt on load.
  if (t.agg_ == core::Aggregates::kSize) return;
  ByteBuf cold;
  uint32_t internal = 0;
  for (uint32_t id = static_cast<uint32_t>(t.n_) + 1; id < ps; ++id)
    if (t.alive(id)) ++internal;
  cold.put_u32(internal);
  for (uint32_t id = static_cast<uint32_t>(t.n_) + 1; id < ps; ++id) {
    if (!t.alive(id)) continue;
    const UfoCore::Cold& d = t.cold_[id];
    cold.put_u32(id);
    cold.put_i64(d.sub_sum);
    cold.put_i64(d.path_sum);
    cold.put_i64(d.path_max);
    cold.put_i64(d.path_len);
    cold.put_i64(d.diam);
    for (int i = 0; i < 2; ++i) cold.put_i64(d.max_dist[i]);
    for (int i = 0; i < 2; ++i) cold.put_i64(d.sum_dist[i]);
    for (int i = 0; i < 2; ++i) cold.put_i64(d.marked_dist[i]);
    cold.put_u32(t.sizes_[id].n_verts);
    cold.put_u32(d.marked_count);
    for (int i = 0; i < 2; ++i) cold.put_u32(d.bv[i]);
  }
  w.add_section(kSecCold, std::move(cold));
}

RecoveryError ForestSerializer::save(const core::UfoCore& t,
                                     const std::string& path) {
  UFO_SPAN("recovery.save");
  SnapshotWriter w;
  append(w, t);
  return w.commit(path);
}

RecoveryError ForestSerializer::restore(const SnapshotReader& r,
                                        core::UfoCore& t,
                                        const LoadOptions& opts,
                                        LoadStats* stats) {
  using core::UfoCore;
  UFO_SPAN("recovery.load");
  LoadStats local;
  LoadStats& st = stats ? *stats : local;
  st.bytes = r.file_bytes();

  auto note = [&](const char* msg) { st.notes.emplace_back(msg); };
  auto fail = [&](RecoveryError e, const char* msg) {
    note(msg);
    UFO_STAT("recovery.load.errors", 1);
    return e;
  };

  const SnapshotReader::Section* meta = r.find(kSecForestMeta);
  const SnapshotReader::Section* verts = r.find(kSecVerts);
  const SnapshotReader::Section* topo = r.find(kSecTopo);
  const SnapshotReader::Section* cold = r.find(kSecCold);
  if (!meta || !verts || !topo)
    return fail(RecoveryError::kMissingSection, "missing forest section");
  // kMeta/kVerts/kTopo are the primary state — there is nothing to rebuild
  // them from, so damage there is fatal. kCold is derivable (degrade path).
  if (meta->corrupt)
    return fail(RecoveryError::kCorruptSection, "meta section corrupt");
  if (verts->corrupt)
    return fail(RecoveryError::kCorruptSection, "verts section corrupt");
  if (topo->corrupt)
    return fail(RecoveryError::kCorruptSection, "topo section corrupt");

  Cursor mc(meta->data, meta->len);
  uint64_t n = mc.get_u64();
  uint32_t ps = mc.get_u32();
  uint64_t live = mc.get_u64();
  if (!mc.ok()) return fail(RecoveryError::kTruncated, "meta too short");
  if (ps < n + 1 || ps > (uint64_t{1} << 32) - 1)
    return fail(RecoveryError::kInconsistent, "implausible pool size");

  // The slab pools cannot be reset in place, so the target must be freshly
  // constructed with the snapshot's n (peek() reports it).
  if (t.n_ != n)
    return fail(RecoveryError::kBadTarget, "target has a different n");
  if (t.pool_size() != t.n_ + 1 || !t.free_.empty() ||
      t.live_clusters_ != t.n_)
    return fail(RecoveryError::kBadTarget, "target is not freshly built");
  for (uint32_t id = 1; id < t.pool_size(); ++id)
    if (t.hot_[id].parent != 0 || t.hot_[id].nbrs.size != 0)
      return fail(RecoveryError::kBadTarget, "target is not freshly built");

  Cursor vc(verts->data, verts->len);
  if (!vc.can_read(n * 9))
    return fail(RecoveryError::kTruncated, "verts too short");

  try {
    for (size_t v = 0; v < n; ++v) t.vweight_[v] = vc.get_i64();
    for (size_t v = 0; v < n; ++v) t.marked_[v] = vc.get_u8();

    // --- Topology: pass 1 decodes scalar fields + adjacency in place,
    // stashing children lists and dumped parents for pass 2.
    t.hot_.assign(ps, UfoCore::Hot{});
    t.sizes_.assign(ps, UfoCore::SizeRec{});
    if (t.agg_ == core::Aggregates::kAll) t.cold_.assign(ps, UfoCore::Cold{});
    std::vector<uint32_t> parent_dump(ps, 0);
    std::vector<std::vector<uint32_t>> kids(ps);
    Cursor tc(topo->data, topo->len);
    uint64_t alive_count = 0;
    for (uint32_t id = 1; id < ps; ++id) {
      int32_t level = tc.get_i32();
      if (!tc.ok())
        return fail(RecoveryError::kTruncated, "topo too short");
      UfoCore::Hot& h = t.hot_[id];
      if (level == UfoCore::kFreedLevel) {
        if (id <= n)
          return fail(RecoveryError::kInconsistent, "freed leaf slot");
        h.level = UfoCore::kFreedLevel;
        t.free_.push_back(id);
        continue;
      }
      if (level < 0 || (id <= n && level != 0) || (id > n && level < 1))
        return fail(RecoveryError::kInconsistent, "implausible level");
      h.level = level;
      parent_dump[id] = tc.get_u32();
      h.center_child = tc.get_u32();
      h.leaf_vertex = tc.get_u32();
      h.merge_u = tc.get_u32();
      h.merge_v = tc.get_u32();
      h.merge_w = tc.get_i64();
      if (id <= n && h.leaf_vertex != id - 1)
        return fail(RecoveryError::kInconsistent, "leaf vertex mismatch");
      if (parent_dump[id] >= ps || h.center_child >= ps)
        return fail(RecoveryError::kInconsistent, "id out of range");
      uint32_t deg = tc.get_u32();
      if (!tc.can_read(size_t{deg} * 20))
        return fail(RecoveryError::kTruncated, "adjacency overruns section");
      if (deg) t.nbrs_reserve(id, deg);
      for (uint32_t i = 0; i < deg; ++i) {
        UfoCore::Adj a;
        a.nbr = tc.get_u32();
        a.my_end = tc.get_u32();
        a.other_end = tc.get_u32();
        a.w = tc.get_i64();
        if (a.nbr == 0 || a.nbr >= ps)
          return fail(RecoveryError::kInconsistent, "neighbor out of range");
        t.nbrs_push(id, a);
      }
      uint32_t fan = tc.get_u32();
      if (!tc.can_read(size_t{fan} * 4))
        return fail(RecoveryError::kTruncated, "children overrun section");
      kids[id].resize(fan);
      for (uint32_t i = 0; i < fan; ++i) {
        uint32_t c = tc.get_u32();
        if (c == 0 || c >= ps)
          return fail(RecoveryError::kInconsistent, "child out of range");
        kids[id][i] = c;
      }
      ++alive_count;
    }
    if (!tc.ok()) return fail(RecoveryError::kTruncated, "topo too short");
    if (alive_count != live)
      return fail(RecoveryError::kInconsistent, "live count mismatch");

    // Pass 2: rebuild parent/child links in dumped order (restores
    // pos_in_parent exactly), with level discipline enforced so a corrupt
    // but checksum-valid topology cannot smuggle in a parent cycle.
    for (uint32_t id = 1; id < ps; ++id) {
      if (!t.alive(id)) continue;
      for (uint32_t c : kids[id]) {
        if (!t.alive(c) || t.hot_[c].parent != 0 ||
            t.hot_[c].level + 1 != t.hot_[id].level)
          return fail(RecoveryError::kInconsistent, "bad child link");
        t.add_child(id, c);
      }
    }
    for (uint32_t id = 1; id < ps; ++id) {
      if (!t.alive(id)) continue;
      if (t.hot_[id].parent != parent_dump[id])
        return fail(RecoveryError::kInconsistent, "parent link mismatch");
      for (const UfoCore::Adj& a : t.nbrs(id))
        if (!t.alive(a.nbr))
          return fail(RecoveryError::kInconsistent, "dead neighbor");
    }
    t.live_clusters_ = alive_count;

    // Leaf aggregates come straight from the vertex arrays + adjacency.
    for (Vertex v = 0; v < n; ++v) t.refresh_leaf(t.leaf_id(v));

    // --- Aggregates: apply kCold when intact; otherwise (or on verify)
    // recompute bottom-up from the leaves.
    std::vector<uint32_t> internal;
    for (uint32_t id = static_cast<uint32_t>(n) + 1; id < ps; ++id)
      if (t.alive(id)) internal.push_back(id);
    std::sort(internal.begin(), internal.end(), [&](uint32_t a, uint32_t b) {
      return t.hot_[a].level < t.hot_[b].level;
    });

    if (t.agg_ == core::Aggregates::kSize) {
      // A size-only forest ignores kCold (a kAll snapshot carries far more
      // than it keeps) and rebuilds its sizes bottom-up, which is no
      // degrade: there is nothing it could have read instead.
      for (uint32_t id : internal) t.recompute_aggregates(id);
    } else {
      bool cold_ok = cold && !cold->corrupt;
      if (cold_ok) {
        Cursor cc(cold->data, cold->len);
        uint32_t count = cc.get_u32();
        if (count != internal.size()) {
          cold_ok = false;
          note("cold record count mismatch");
        }
        std::vector<uint8_t> seen(ps, 0);
        for (uint32_t i = 0; cold_ok && i < count; ++i) {
          if (!cc.can_read(108)) {
            cold_ok = false;
            note("cold section too short");
            break;
          }
          uint32_t id = cc.get_u32();
          if (id <= n || id >= ps || !t.alive(id) || seen[id]) {
            cold_ok = false;
            note("cold record id invalid");
            break;
          }
          seen[id] = 1;
          UfoCore::Cold& d = t.cold_[id];
          d.sub_sum = cc.get_i64();
          d.path_sum = cc.get_i64();
          d.path_max = cc.get_i64();
          d.path_len = cc.get_i64();
          d.diam = cc.get_i64();
          for (int k = 0; k < 2; ++k) d.max_dist[k] = cc.get_i64();
          for (int k = 0; k < 2; ++k) d.sum_dist[k] = cc.get_i64();
          for (int k = 0; k < 2; ++k) d.marked_dist[k] = cc.get_i64();
          t.sizes_[id].n_verts = cc.get_u32();
          d.marked_count = cc.get_u32();
          for (int k = 0; k < 2; ++k) d.bv[k] = cc.get_u32();
        }
      } else if (cold && cold->corrupt) {
        note("cold section corrupt");
      } else if (!cold) {
        note("cold section missing");
      }

      if (!cold_ok && !opts.allow_degraded)
        return fail(RecoveryError::kCorruptSection,
                    "aggregates damaged and degrade disallowed");

      if (!cold_ok) {
        // Degrade path: the topology is intact, so every aggregate is
        // recomputable bottom-up. This also rebuilds the rake indexes.
        for (uint32_t id : internal) t.recompute_aggregates(id);
        st.degraded = true;
        note("aggregates rebuilt from topology");
        UFO_STAT("recovery.load.degraded", 1);
      } else if (opts.verify) {
        // Deep verify: recompute from the leaves and compare with the dumped
        // values; drift means the snapshot lied (checksum-valid but wrong).
        for (uint32_t id : internal) {
          if (!t.recompute_matches(id, /*report=*/false)) {
            if (!opts.allow_degraded)
              return fail(RecoveryError::kInconsistent,
                          "dumped aggregates drift from recomputation");
            st.degraded = true;
            note("aggregate drift repaired by recomputation");
            UFO_STAT("recovery.load.degraded", 1);
          }
        }
      } else {
        // The dumped aggregates stand; build the rake indexes from them,
        // since queries read a superunary cluster's index between updates.
        for (uint32_t id : internal)
          if (t.hot_[id].center_child != 0) t.rake_index_build(id);
      }
    }

    if (opts.verify) {
      core::InvariantReport rep = t.validate();
      if (!rep.ok()) {
        note("structural validation failed");
        for (size_t i = 0; i < rep.failures.size() && i < 4; ++i)
          st.notes.push_back("invariant #" +
                             std::to_string(rep.failures[i].code) +
                             " at cluster " +
                             std::to_string(rep.failures[i].entity));
        UFO_STAT("recovery.load.errors", 1);
        return RecoveryError::kInconsistent;
      }
    }
  } catch (const std::bad_alloc&) {
    return fail(RecoveryError::kAllocFailed, "allocation failed during load");
  }
  UFO_STAT("recovery.load.bytes", static_cast<int64_t>(st.bytes));
  return RecoveryError::kNone;
}

RecoveryError ForestSerializer::load(core::UfoCore& t,
                                     const std::string& path,
                                     const LoadOptions& opts,
                                     LoadStats* stats) {
  SnapshotReader r;
  RecoveryError e = r.open(path);
  if (e != RecoveryError::kNone) {
    UFO_STAT("recovery.load.errors", 1);
    return e;
  }
  return restore(r, t, opts, stats);
}

RecoveryError ForestSerializer::peek(const std::string& path,
                                     SnapshotInfo* out) {
  SnapshotReader r;
  RecoveryError e = r.open(path);
  if (e != RecoveryError::kNone) return e;
  const SnapshotReader::Section* meta = r.find(kSecForestMeta);
  if (!meta) return RecoveryError::kMissingSection;
  if (meta->corrupt) return RecoveryError::kCorruptSection;
  Cursor mc(meta->data, meta->len);
  uint64_t n = mc.get_u64();
  if (!mc.ok()) return RecoveryError::kTruncated;
  if (out) {
    out->version = kVersion;
    out->n = n;
    out->file_bytes = r.file_bytes();
    out->has_connectivity = r.find(kSecConnMeta) != nullptr;
    out->sections.clear();
    for (const auto& s : r.sections()) out->sections.push_back(s.tag);
  }
  return RecoveryError::kNone;
}

}  // namespace ufo::recovery
