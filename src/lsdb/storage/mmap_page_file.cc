#include "lsdb/storage/mmap_page_file.h"

#include <cstring>

namespace lsdb {

namespace {

/// Decodes the little-endian CRC trailer that follows the page content in
/// a slot. memcpy-free byte assembly keeps this alignment-safe on the
/// mapped bytes.
uint32_t TrailerCrc(const uint8_t* trailer) {
  return static_cast<uint32_t>(trailer[0]) |
         static_cast<uint32_t>(trailer[1]) << 8 |
         static_cast<uint32_t>(trailer[2]) << 16 |
         static_cast<uint32_t>(trailer[3]) << 24;
}

}  // namespace

MmapPageFile::MmapPageFile(const uint8_t* base, uint32_t page_count,
                           uint32_t page_size, bool zero_copy)
    : PageFile(page_size),
      base_(base),
      page_count_(page_count),
      zero_copy_(zero_copy),
      claims_(page_count) {}

Status MmapPageFile::Read(PageId id, void* buf, uint32_t* checksum) {
  if (id >= page_count_) {
    return Status::InvalidArgument("read of unallocated page");
  }
  const uint8_t* slot = Slot(id);
  std::memcpy(buf, slot, page_size_);
  *checksum = TrailerCrc(slot + page_size_);
  return Status::OK();
}

StatusOr<PageFile::MappedPage> MmapPageFile::MapPage(PageId id) {
  if (id >= page_count_) {
    return Status::InvalidArgument("map of unallocated page");
  }
  const uint8_t* slot = Slot(id);
  if (claims_.claimed(id)) return MappedPage{slot, false};
  return claims_.Claim(id, slot, page_size_, TrailerCrc(slot + page_size_));
}

Status MmapPageFile::Write(PageId, const void*, uint32_t) {
  return Status::InvalidArgument("write to a read-only snapshot section");
}

StatusOr<PageId> MmapPageFile::Allocate() {
  return Status::InvalidArgument("allocate in a read-only snapshot section");
}

Status MmapPageFile::Free(PageId) {
  return Status::InvalidArgument("free in a read-only snapshot section");
}

}  // namespace lsdb
