// Read-only page file over a memory mapping.
//
// Serves frozen snapshot sections with zero copies: MapPage() hands out a
// pointer straight into the mapped region instead of copying the page into
// a buffer-pool frame. The stored per-page CRC-32C trailer (same slot
// layout as PosixPageFile: page_size content bytes + 4-byte little-endian
// trailer) is verified the first time each page is touched (the same
// FirstTouchClaims a MemPageFile lends its pages through); a mismatch is a
// typed Status::Corruption, never an assert, so a flipped byte in a
// snapshot file degrades one query instead of the process.
//
// The mapping itself is not owned here — a SnapshotReader maps the whole
// snapshot file once and hands each section's base pointer to one
// MmapPageFile view (mmap(2) offsets must be page-aligned, which section
// offsets inside the container are not). The reader must outlive its views.
//
// `zero_copy` can be disabled at construction to force the classic
// copy-into-frame path through the BufferPool: the view then lends no
// pages, Read() serves the page bytes + stored CRC like any other backend,
// and the pool's 16-frame LRU disk-access accounting matches the paper's
// model exactly, frozen or not. This is how the experiment harness
// replays Table 2 from a snapshot.

#ifndef LSDB_STORAGE_MMAP_PAGE_FILE_H_
#define LSDB_STORAGE_MMAP_PAGE_FILE_H_

#include <cstdint>

#include "lsdb/storage/page_file.h"
#include "lsdb/util/status.h"

namespace lsdb {

class MmapPageFile : public PageFile {
 public:
  /// `base` points at `page_count` consecutive slots of
  /// page_size + kPageTrailerSize bytes inside a live mapping owned by the
  /// caller (not adopted). `zero_copy` selects MapPage-serving vs
  /// pool-copy serving (see file comment).
  MmapPageFile(const uint8_t* base, uint32_t page_count, uint32_t page_size,
               bool zero_copy);

  using PageFile::Read;

  bool read_only() const override { return true; }
  bool lends_pages() const override { return zero_copy_; }

  uint32_t page_count() const override { return page_count_; }
  uint32_t live_page_count() const override { return page_count_; }

  /// Copies page `id` out of the mapping with its stored trailer CRC
  /// (pool-copy mode; the BufferPool verifies as usual).
  [[nodiscard]] Status Read(PageId id, void* buf, uint32_t* checksum) override;
  /// Borrowed zero-copy view; verifies the trailer CRC on first touch.
  [[nodiscard]] StatusOr<MappedPage> MapPage(PageId id) override;

  // The section is frozen: every mutation is a typed error.
  [[nodiscard]] Status Write(PageId id, const void* buf,
                             uint32_t checksum) override;
  [[nodiscard]] StatusOr<PageId> Allocate() override;
  [[nodiscard]] Status Free(PageId id) override;

  /// Pages whose checksum has been verified so far (obs gauge).
  uint64_t pages_verified() const { return claims_.pages_verified(); }

 private:
  uint32_t slot_size() const { return page_size_ + kPageTrailerSize; }
  const uint8_t* Slot(PageId id) const {
    return base_ + static_cast<size_t>(id) * slot_size();
  }

  const uint8_t* base_;  ///< Not owned; the mapping must outlive this view.
  const uint32_t page_count_;
  const bool zero_copy_;
  FirstTouchClaims claims_;
};

}  // namespace lsdb

#endif  // LSDB_STORAGE_MMAP_PAGE_FILE_H_
