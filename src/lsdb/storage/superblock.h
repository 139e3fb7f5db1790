// Superblock: fixed metadata page persisted at page 0 of a structure's
// page file, so disk-resident indexes can be reopened without rebuilding.
//
// Layout: magic (u32), version (u16), kind (u16), then 12 u64 fields whose
// meaning is private to each structure. Structures write their superblock
// in Flush() and restore from it in Open().

#ifndef LSDB_STORAGE_SUPERBLOCK_H_
#define LSDB_STORAGE_SUPERBLOCK_H_

#include <array>
#include <cstdint>

#include "lsdb/storage/buffer_pool.h"
#include "lsdb/util/status.h"

namespace lsdb {

/// Structure kinds stored in superblocks.
enum class SuperblockKind : uint16_t {
  kPmrQuadtree = 1,
  kRStarTree = 2,
  kRPlusTree = 3,
  kUniformGrid = 4,
  kSegmentTable = 5,
};

using SuperblockFields = std::array<uint64_t, 12>;

/// Writes a superblock into page `pid` (usually 0). Fails with
/// InvalidArgument, touching no page, while the pool is frozen.
[[nodiscard]] Status WriteSuperblock(BufferPool* pool, PageId pid, SuperblockKind kind,
                       const SuperblockFields& fields);

/// Reads and validates a superblock (magic, version, kind).
[[nodiscard]] StatusOr<SuperblockFields> ReadSuperblock(BufferPool* pool, PageId pid,
                                          SuperblockKind expected_kind);

}  // namespace lsdb

#endif  // LSDB_STORAGE_SUPERBLOCK_H_
