#include "lsdb/seg/segment_table.h"

#include <cstring>

#include "lsdb/storage/superblock.h"

namespace lsdb {

namespace {
constexpr uint32_t kRecordSize = 16;  // 4 x int32 coordinates

void EncodeSegment(const Segment& s, uint8_t* p) {
  int32_t v[4] = {s.a.x, s.a.y, s.b.x, s.b.y};
  std::memcpy(p, v, sizeof(v));
}

void DecodeSegment(const uint8_t* p, Segment* s) {
  int32_t v[4];
  std::memcpy(v, p, sizeof(v));
  s->a = Point{v[0], v[1]};
  s->b = Point{v[2], v[3]};
}
}  // namespace

SegmentTable::SegmentTable(BufferPool* pool)
    : pool_(pool), per_page_(pool->page_size() / kRecordSize) {}

Status SegmentTable::Open() {
  auto fields = ReadSuperblock(pool_, 0, SuperblockKind::kSegmentTable);
  if (!fields.ok()) return fields.status();
  const SuperblockFields& f = *fields;
  if (f[1] != per_page_) {
    return Status::InvalidArgument("page size does not match stored table");
  }
  count_ = static_cast<uint32_t>(f[0]);
  has_superblock_ = true;
  last_page_ = count_ == 0 ? kInvalidPageId : 1 + (count_ - 1) / per_page_;
  return Status::OK();
}

Status SegmentTable::Flush() {
  if (!has_superblock_) {
    // Empty table that never allocated its superblock page.
    auto sb = pool_->New();
    if (!sb.ok()) return sb.status();
    if (sb->id() != 0) {
      return Status::InvalidArgument("Flush() requires this table's file");
    }
    has_superblock_ = true;
  }
  SuperblockFields f{};
  f[0] = count_;
  f[1] = per_page_;
  LSDB_RETURN_IF_ERROR(
      WriteSuperblock(pool_, 0, SuperblockKind::kSegmentTable, f));
  return pool_->FlushAll();
}

StatusOr<SegmentId> SegmentTable::Append(const Segment& s) {
  // A frozen pool may lend the backend's own page: refuse before writing.
  LSDB_RETURN_IF_ERROR(pool_->CheckWritable());
  if (!has_superblock_) {
    // Reserve page 0 for the superblock before the first record page.
    auto sb = pool_->New();
    if (!sb.ok()) return sb.status();
    if (sb->id() != 0) {
      return Status::InvalidArgument("Append() requires a fresh page file");
    }
    has_superblock_ = true;
  }
  const uint32_t slot = count_ % per_page_;
  if (slot == 0) {
    auto ref = pool_->New();
    if (!ref.ok()) return ref.status();
    last_page_ = ref->id();
    EncodeSegment(s, ref->data());
    ref->MarkDirty();
  } else {
    auto ref = pool_->Fetch(last_page_);
    if (!ref.ok()) return ref.status();
    EncodeSegment(s, ref->data() + slot * kRecordSize);
    ref->MarkDirty();
  }
  return count_++;
}

Status SegmentTable::Get(SegmentId id, Segment* out) {
  if (id >= count_) return Status::InvalidArgument("segment id out of range");
  const PageId page = 1 + id / per_page_;
  const uint32_t slot = id % per_page_;
  auto ref = pool_->Fetch(page);
  if (!ref.ok()) return ref.status();
  DecodeSegment(ref->data() + slot * kRecordSize, out);
  return Status::OK();
}

uint64_t SegmentTable::bytes() const {
  return static_cast<uint64_t>((count_ + per_page_ - 1) / per_page_) *
         pool_->page_size();
}

}  // namespace lsdb
