#include "lsdb/storage/superblock.h"

#include <cstring>

namespace lsdb {

namespace {
constexpr uint32_t kMagic = 0x4C534442;  // "LSDB"
constexpr uint16_t kVersion = 1;
}  // namespace

Status WriteSuperblock(BufferPool* pool, PageId pid, SuperblockKind kind,
                       const SuperblockFields& fields) {
  // A frozen pool may lend the backend's own page: refuse before writing.
  LSDB_RETURN_IF_ERROR(pool->CheckWritable());
  auto ref = pool->Fetch(pid);
  if (!ref.ok()) return ref.status();
  uint8_t* p = ref->data();
  std::memset(p, 0, pool->page_size());
  std::memcpy(p, &kMagic, 4);
  std::memcpy(p + 4, &kVersion, 2);
  const uint16_t k = static_cast<uint16_t>(kind);
  std::memcpy(p + 6, &k, 2);
  std::memcpy(p + 8, fields.data(), sizeof(uint64_t) * fields.size());
  ref->MarkDirty();
  return Status::OK();
}

StatusOr<SuperblockFields> ReadSuperblock(BufferPool* pool, PageId pid,
                                          SuperblockKind expected_kind) {
  auto ref = pool->Fetch(pid);
  if (!ref.ok()) return ref.status();
  const uint8_t* p = ref->data();
  uint32_t magic;
  uint16_t version, kind;
  std::memcpy(&magic, p, 4);
  std::memcpy(&version, p + 4, 2);
  std::memcpy(&kind, p + 6, 2);
  if (magic != kMagic) return Status::Corruption("bad superblock magic");
  if (version != kVersion) {
    return Status::Corruption("unsupported superblock version");
  }
  if (kind != static_cast<uint16_t>(expected_kind)) {
    return Status::InvalidArgument("superblock kind mismatch");
  }
  SuperblockFields fields;
  std::memcpy(fields.data(), p + 8, sizeof(uint64_t) * fields.size());
  return fields;
}

}  // namespace lsdb
