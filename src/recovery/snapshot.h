// Crash-consistent forest checkpointing (ROADMAP: "Forest serialization /
// checkpointing"). The SoA pool refactor made cluster storage
// index-addressed, so a whole-forest snapshot is a logical dump of the
// per-cluster records — no pointer swizzling, and everything derived
// (adjacency hash indexes, rake indexes, freelists, pos_in_parent) is
// rebuilt on load rather than serialized.
//
// File format (version 1), little-endian throughout:
//
//   magic[8] = "UFOSNAP\0"
//   u32 version, u32 section_count
//   u64 header_crc           crc64 over the preceding 16 bytes
//   section*:
//     u32 tag, u32 reserved
//     u64 payload_len, u64 payload_crc
//     payload bytes
//
// Forest sections: kForestMeta (n, pool size, live count), kVerts (vertex
// weights + marks), kTopo (per-cluster level/parent/center/merge edge +
// adjacency and children lists), kCold (maintained aggregates of internal
// clusters; written by Aggregates::kAll forests only). A connectivity
// checkpoint appends kConnMeta/kTreeEdges/kNontreeEdges/kWeights to the
// same file.
//
// Durability: save() writes `path + ".tmp"`, fsyncs it, atomically renames
// over `path`, then fsyncs the parent directory — a crash at any point
// leaves either the previous checkpoint or the new one, never a torn file.
//
// Recovery: load() never crashes on bad input. Every read is
// bounds-checked, every section checksummed, and failures come back as
// typed RecoveryErrors. With LoadOptions::verify the loaded hierarchy is
// re-audited (UfoCore::validate()) and its aggregates recomputed from the
// leaves and compared against the dumped values. With allow_degraded, a
// damaged or missing kCold section (or aggregate drift) degrades a kAll
// target to a bottom-up rebuild from topology instead of failing; a kSize
// target ignores kCold and always rebuilds its sizes, without degrading.
// kTopo/kVerts damage is fatal (there is nothing to rebuild them from).
//
// Load targets must be freshly constructed with the snapshot's n (the slab
// pools cannot be reset in place); peek() reports n so callers can size
// the target. See DESIGN.md, "Snapshot format & recovery".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/ufo_core.h"

namespace ufo::recovery {

enum class RecoveryError {
  kNone = 0,
  kIoError,           // open/read/write/rename/fsync failure
  kTruncated,         // file shorter than its own headers claim
  kBadMagic,          // not a UFO snapshot
  kVersionMismatch,   // written by an incompatible format version
  kCorruptSection,    // a section checksum does not match its payload
  kMissingSection,    // a required section is absent
  kInconsistent,      // checksums pass but the decoded state violates
                      // invariants (validate() / aggregate recompute /
                      // cross-reference failures)
  kAllocFailed,       // allocation failure while rebuilding pools
  kBadTarget,         // load target is not a fresh structure of matching n
};

const char* to_string(RecoveryError e);

// CRC64 (ECMA-182 polynomial, table-driven). Exposed so tests can
// re-checksum deliberately edited payloads.
uint64_t crc64(const void* data, size_t len, uint64_t seed = 0);

// Section tags. Forest sections are < 16, connectivity sections >= 16.
enum : uint32_t {
  kSecForestMeta = 1,
  kSecVerts = 2,
  kSecTopo = 3,
  kSecCold = 4,
  kSecConnMeta = 16,
  kSecTreeEdges = 17,
  kSecNontreeEdges = 18,
  kSecWeights = 19,
};

struct LoadOptions {
  bool verify = true;          // structural audit + aggregate recompute
  bool allow_degraded = true;  // rebuild derived state when kCold is damaged
};

struct LoadStats {
  bool degraded = false;            // some derived state was rebuilt
  uint64_t bytes = 0;               // file size consumed
  std::vector<std::string> notes;   // human-readable degrade/verify notes
};

struct SnapshotInfo {
  uint32_t version = 0;
  uint64_t n = 0;                   // vertex count (size the target with it)
  bool has_connectivity = false;
  uint64_t file_bytes = 0;
  std::vector<uint32_t> sections;
};

// Little-endian byte buffer used to assemble section payloads.
class ByteBuf {
 public:
  void put_u8(uint8_t v) { b_.push_back(v); }
  void put_u32(uint32_t v) {
    for (int i = 0; i < 4; ++i) b_.push_back(uint8_t(v >> (8 * i)));
  }
  void put_u64(uint64_t v) {
    for (int i = 0; i < 8; ++i) b_.push_back(uint8_t(v >> (8 * i)));
  }
  void put_i32(int32_t v) { put_u32(static_cast<uint32_t>(v)); }
  void put_i64(int64_t v) { put_u64(static_cast<uint64_t>(v)); }
  const std::vector<uint8_t>& bytes() const { return b_; }
  size_t size() const { return b_.size(); }

 private:
  std::vector<uint8_t> b_;
};

// Bounds-checked little-endian cursor over a section payload. All get_*
// report failure through ok() instead of reading past the end, so corrupt
// lengths cannot drive out-of-bounds reads or unbounded allocations.
class Cursor {
 public:
  Cursor(const uint8_t* p, size_t len) : p_(p), len_(len) {}
  bool ok() const { return ok_; }
  size_t remaining() const { return len_ - off_; }
  uint8_t get_u8() {
    if (!need(1)) return 0;
    return p_[off_++];
  }
  uint32_t get_u32() {
    if (!need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t(p_[off_ + i]) << (8 * i);
    off_ += 4;
    return v;
  }
  uint64_t get_u64() {
    if (!need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t(p_[off_ + i]) << (8 * i);
    off_ += 8;
    return v;
  }
  int32_t get_i32() { return static_cast<int32_t>(get_u32()); }
  int64_t get_i64() { return static_cast<int64_t>(get_u64()); }
  // True when a record of `bytes` more payload could still follow — the
  // guard that keeps corrupt element counts from driving huge loops.
  bool can_read(size_t bytes) const { return ok_ && len_ - off_ >= bytes; }

 private:
  bool need(size_t k) {
    if (!ok_ || len_ - off_ < k) {
      ok_ = false;
      return false;
    }
    return true;
  }
  const uint8_t* p_;
  size_t len_;
  size_t off_ = 0;
  bool ok_ = true;
};

// Assembles sections in memory, then commits them with the temp-file +
// fsync + atomic-rename protocol. A writer is single-use.
class SnapshotWriter {
 public:
  void add_section(uint32_t tag, ByteBuf payload);
  // Durably publish to `path`. On any error the previous file at `path`
  // is untouched (the temp file is unlinked best-effort).
  RecoveryError commit(const std::string& path);
  size_t total_bytes() const;

 private:
  struct Section {
    uint32_t tag;
    std::vector<uint8_t> payload;
  };
  std::vector<Section> sections_;
};

// Parses a snapshot file: header validation up front, then per-section
// tag/length/checksum indexing. Sections whose checksum fails are kept
// (flagged corrupt) so the caller can decide between fatal and degradable.
class SnapshotReader {
 public:
  struct Section {
    uint32_t tag = 0;
    const uint8_t* data = nullptr;
    size_t len = 0;
    bool corrupt = false;
  };

  // Read + parse. Any error leaves the reader unusable.
  RecoveryError open(const std::string& path);
  const Section* find(uint32_t tag) const;
  const std::vector<Section>& sections() const { return sections_; }
  size_t file_bytes() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
  std::vector<Section> sections_;
};

// Serializes / restores the core cluster hierarchy. Friend of
// core::UfoCore (this class is the only external reader of the pools).
class ForestSerializer {
 public:
  // Snapshot `t` durably to `path` (single-file forest checkpoint).
  static RecoveryError save(const core::UfoCore& t, const std::string& path);

  // Restore into `t`, which must be freshly constructed with the
  // snapshot's n (see peek). Never throws; never crashes on corrupt input.
  static RecoveryError load(core::UfoCore& t, const std::string& path,
                            const LoadOptions& opts = {},
                            LoadStats* stats = nullptr);

  // Header-only inspection (n, sections present) without loading.
  static RecoveryError peek(const std::string& path, SnapshotInfo* out);

  // Composition points for checkpoints that carry extra sections in the
  // same file (the connectivity layer): append the forest sections to an
  // open writer / restore them from an open reader.
  static void append(SnapshotWriter& w, const core::UfoCore& t);
  static RecoveryError restore(const SnapshotReader& r, core::UfoCore& t,
                               const LoadOptions& opts, LoadStats* stats);
};

}  // namespace ufo::recovery
