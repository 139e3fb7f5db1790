// Disk-resident segment table.
//
// All three indexes in the study store only *references* (segment ids) plus
// bounding information; the actual endpoints live in a shared, paged
// segment table ("O is a pointer to a segment table that contains the
// endpoints of the line segment ... assumed to be on disk"). Every Get() is
// one *segment comparison* in the paper's accounting.
//
// Records are fixed-size (4 coordinates = 16 bytes), addressed by
// SegmentId: page = id / records_per_page, slot = id % records_per_page.
// Ids are dense and allocated by Append; segments inserted together are
// stored together, which reproduces the paper's locality argument ("since
// the segments are usually in proximity, they will be stored close to each
// other").

#ifndef LSDB_SEG_SEGMENT_TABLE_H_
#define LSDB_SEG_SEGMENT_TABLE_H_

#include <cstdint>

#include "lsdb/geom/segment.h"
#include "lsdb/storage/buffer_pool.h"
#include "lsdb/util/counters.h"
#include "lsdb/util/status.h"

namespace lsdb {

class SegmentTable {
 public:
  /// `pool` should be dedicated to the table (its disk activity is reported
  /// separately from index disk accesses, as in the paper). `metrics`
  /// receives one segment_comps increment per Get; may be null.
  ///
  /// Page 0 of the file holds a superblock (written by Flush, allocated
  /// lazily on the first Append); records start at page 1. A table
  /// persisted with Flush() into a PosixPageFile can be reopened with
  /// Open().
  SegmentTable(BufferPool* pool, MetricCounters* metrics);

  /// Restores a table previously persisted with Flush().
  [[nodiscard]] Status Open();
  /// Writes the superblock and flushes dirty pages.
  [[nodiscard]] Status Flush();

  /// Appends a segment, returning its dense id. Fails with
  /// InvalidArgument, touching no page, while the pool is frozen.
  [[nodiscard]] StatusOr<SegmentId> Append(const Segment& s);

  /// Fetches segment `id`. Counts one segment comparison. Safe from many
  /// threads on a frozen table when each installs its own counters in a
  /// QueryContext (util/query_context.h); over a zero-copy pool (a frozen
  /// in-memory or snapshot-served table) the fetch takes no lock.
  [[nodiscard]] Status Get(SegmentId id, Segment* out);

  /// Number of stored segments.
  uint32_t size() const { return count_; }
  /// Bytes occupied (live pages * page size).
  uint64_t bytes() const;

  uint32_t records_per_page() const { return per_page_; }

  /// The table's buffer pool (caller-owned), for cache-behaviour reports.
  const BufferPool* pool() const { return pool_; }
  BufferPool* pool() { return pool_; }

 private:
  BufferPool* pool_;
  MetricCounters* metrics_;
  uint32_t per_page_;
  uint32_t count_ = 0;
  bool has_superblock_ = false;
  PageId last_page_ = kInvalidPageId;
};

}  // namespace lsdb

#endif  // LSDB_SEG_SEGMENT_TABLE_H_
