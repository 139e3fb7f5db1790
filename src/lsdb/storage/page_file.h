// Page files: fixed-size-page storage backends.
//
// Every index in this library is organized in pages, exactly as in the
// paper ("our data structures are organized in terms of pages"). A PageFile
// is the raw storage; all access goes through a BufferPool which implements
// the 16-page LRU cache of the paper and counts disk accesses.
//
// Checksums: each stored page carries a CRC-32C of its contents, kept
// *out of band* — the logical page stays exactly page_size bytes, so page
// capacities (and therefore the paper's Table 1/2 metrics) are unchanged.
// The backend stores the checksum next to the page (a trailer on disk, a
// side array in memory) and hands it back on Read; the BufferPool stamps it
// on write-back and verifies it on miss, surfacing silent corruption as
// Status::Corruption. Backends never verify on Read: the fault-injection
// decorator sits between pool and backend, so corruption it introduces is
// caught by the pool exactly like real media corruption. A page lent
// through MapPage() never passes through the pool's hands, so the backend
// verifies it on first touch itself (FirstTouchClaims).
//
// Two backends are provided:
//  * MemPageFile   — pages live in memory. Used by tests, benchmarks and
//                    built query services; disk-access *counts* are
//                    identical to a real disk because they are produced by
//                    the buffer pool, not the backend. It also lends its
//                    own page bytes through MapPage(), which a frozen pool
//                    serves with no copy and no lock.
//  * PosixPageFile — pages live in a real file (pread/pwrite), demonstrating
//                    that the structures are genuinely disk-resident. On
//                    disk each page occupies page_size + 4 bytes: the page
//                    followed by its little-endian CRC-32C trailer.

#ifndef LSDB_STORAGE_PAGE_FILE_H_
#define LSDB_STORAGE_PAGE_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lsdb/util/status.h"

namespace lsdb {

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0xffffffffu;

/// Bytes of per-page checksum trailer stored by on-disk backends.
inline constexpr uint32_t kPageTrailerSize = 4;

/// Abstract fixed-page storage.
class PageFile {
 public:
  /// A borrowed, read-only view of a page lent straight from the backend's
  /// own bytes (no copy into a pool frame). `data` points at page_size
  /// bytes owned by the backend and valid until the page is next written
  /// or freed. `first_touch` is true the first time the page was handed
  /// out since it was last written (and therefore checksum-verified),
  /// letting the pool count it as the one disk access the paper's model
  /// charges for faulting the page in.
  struct MappedPage {
    const uint8_t* data = nullptr;
    bool first_touch = false;
  };

  explicit PageFile(uint32_t page_size) : page_size_(page_size) {}
  virtual ~PageFile() = default;

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  uint32_t page_size() const { return page_size_; }

  /// True when the backend rejects Write/Allocate/Free (frozen snapshot
  /// sections). Callers use this to skip flushes that could never succeed.
  virtual bool read_only() const { return false; }

  /// True when MapPage() lends pointers to the backend's own page bytes.
  /// A frozen BufferPool serves such a backend through them, with no frame
  /// and no lock.
  virtual bool lends_pages() const { return false; }

  /// True when the pages never change and are lent (zero-copy snapshot
  /// sections): the BufferPool serves them zero-copy from construction and
  /// never copies them into its frames.
  bool zero_copy() const { return lends_pages() && read_only(); }

  /// Returns a borrowed read-only view of page `id`, verifying the stored
  /// checksum on the first touch since the page was last written
  /// (Status::Corruption on mismatch, never an assert). Only meaningful
  /// when lends_pages() is true.
  [[nodiscard]] virtual StatusOr<MappedPage> MapPage(PageId id) {
    (void)id;
    return Status::InvalidArgument("backend does not support page mapping");
  }

  /// Number of pages ever allocated (including freed ones).
  virtual uint32_t page_count() const = 0;
  /// Number of currently live (allocated and not freed) pages.
  virtual uint32_t live_page_count() const = 0;

  /// Reads page `id` into `buf` (page_size bytes) and its stored CRC-32C
  /// into `*checksum`. The backend does not verify; the caller (normally
  /// the BufferPool) compares against crc32c::Compute of `buf`.
  [[nodiscard]] virtual Status Read(PageId id, void* buf, uint32_t* checksum) = 0;
  /// Writes page `id` from `buf` (page_size bytes) with `checksum` stored
  /// alongside it.
  [[nodiscard]] virtual Status Write(PageId id, const void* buf, uint32_t checksum) = 0;
  /// Allocates a zeroed page (with a matching stored checksum), reusing
  /// freed pages when possible.
  [[nodiscard]] virtual StatusOr<PageId> Allocate() = 0;
  /// Returns a page to the free list. The caller must ensure no live
  /// references remain.
  [[nodiscard]] virtual Status Free(PageId id) = 0;

  /// Convenience: read discarding the stored checksum (no verification).
  [[nodiscard]] Status Read(PageId id, void* buf) {
    uint32_t crc;
    return Read(id, buf, &crc);
  }
  /// Convenience: write computing the checksum from `buf`.
  [[nodiscard]] Status Write(PageId id, const void* buf);

 protected:
  uint32_t page_size_;
};

/// Verify-once claims of a backend that lends its pages (MapPage): the
/// first touch of a page since it was last written checks its stored
/// CRC-32C, and exactly one of any racing first touches claims it as the
/// miss the pool counts. A lending backend's MapPage() lends a claimed()
/// page as is and passes any other to Claim(). Neither takes a lock (one
/// atomic flag per page); Resize() and Reset() must not run concurrently
/// with them, which holds because a backend is only written while no
/// frozen pool serves it.
class FirstTouchClaims {
 public:
  explicit FirstTouchClaims(uint32_t pages);

  /// Grows to `pages` flags; new pages start unclaimed.
  void Resize(uint32_t pages);
  /// Page `id` changed: its next touch verifies and claims it again.
  void Reset(PageId id) { flags_[id].store(0, std::memory_order_relaxed); }
  /// True once page `id` has been verified since it was last written. The
  /// hit path reads only this flag, never the stored checksum.
  bool claimed(PageId id) const {
    return flags_[id].load(std::memory_order_acquire) != 0;
  }
  /// Verifies `data` (page_size bytes stored with checksum `stored`) and
  /// lends it; `first_touch` is set for exactly one of any racing callers.
  /// Status::Corruption on a mismatch.
  [[nodiscard]] StatusOr<PageFile::MappedPage> Claim(PageId id,
                                                     const uint8_t* data,
                                                     uint32_t page_size,
                                                     uint32_t stored);
  /// First touches claimed so far (obs gauge; equals the misses of the
  /// pool serving the backend).
  uint64_t pages_verified() const {
    return pages_verified_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<std::atomic<uint8_t>[]> flags_;
  uint32_t capacity_ = 0;
  std::atomic<uint64_t> pages_verified_{0};
};

/// In-memory page file. Checksums live in a side array — same verification
/// semantics as the on-disk layout without changing page addressing. Each
/// page is its own allocation, so a lent page pointer stays valid while
/// other pages are allocated.
class MemPageFile : public PageFile {
 public:
  explicit MemPageFile(uint32_t page_size);

  using PageFile::Read;
  using PageFile::Write;

  bool lends_pages() const override { return true; }

  uint32_t page_count() const override;
  uint32_t live_page_count() const override;
  [[nodiscard]] Status Read(PageId id, void* buf, uint32_t* checksum) override;
  /// Lends the page's own bytes; verifies the stored checksum on the first
  /// touch since the page was last written.
  [[nodiscard]] StatusOr<MappedPage> MapPage(PageId id) override;
  [[nodiscard]] Status Write(PageId id, const void* buf, uint32_t checksum) override;
  [[nodiscard]] StatusOr<PageId> Allocate() override;
  [[nodiscard]] Status Free(PageId id) override;

  /// First touches verified through MapPage() so far.
  uint64_t pages_verified() const { return claims_.pages_verified(); }

 private:
  std::vector<std::unique_ptr<uint8_t[]>> pages_;
  std::vector<uint32_t> crcs_;  ///< Stored checksum per page.
  std::vector<PageId> free_list_;
  std::vector<bool> live_;
  const uint32_t zero_crc_;  ///< CRC-32C of an all-zero page.
  FirstTouchClaims claims_{0};
};

/// POSIX file-backed page file. The free list is kept in memory for the
/// lifetime of the object; persisting it across process restarts is out of
/// scope for this study (the paper builds its structures fresh per run).
///
/// On-disk layout: page `id` occupies bytes [id * (page_size + 4),
/// (id + 1) * (page_size + 4)): page_size content bytes followed by the
/// 4-byte little-endian CRC-32C trailer. All transfers loop over short
/// pread/pwrite returns and retry EINTR.
class PosixPageFile : public PageFile {
 public:
  /// Creates (truncates) `path`.
  [[nodiscard]] static StatusOr<std::unique_ptr<PosixPageFile>> Create(
      const std::string& path, uint32_t page_size);
  /// Opens an existing page file. All pages below the file size are
  /// treated as live (freed pages from prior sessions are not reclaimed
  /// until the structure is rebuilt — see the class comment).
  [[nodiscard]] static StatusOr<std::unique_ptr<PosixPageFile>> Open(
      const std::string& path, uint32_t page_size);
  ~PosixPageFile() override;

  /// Closes the underlying descriptor, surfacing close(2) failure as a
  /// typed IoError (a failed close can mean lost writes on some
  /// filesystems). Idempotent; the destructor falls back to a logged
  /// best-effort close for refs that never called this.
  [[nodiscard]] Status Close();

  using PageFile::Read;
  using PageFile::Write;

  uint32_t page_count() const override;
  uint32_t live_page_count() const override;
  [[nodiscard]] Status Read(PageId id, void* buf, uint32_t* checksum) override;
  [[nodiscard]] Status Write(PageId id, const void* buf, uint32_t checksum) override;
  [[nodiscard]] StatusOr<PageId> Allocate() override;
  [[nodiscard]] Status Free(PageId id) override;

 private:
  PosixPageFile(int fd, uint32_t page_size);

  uint32_t slot_size() const { return page_size_ + kPageTrailerSize; }
  off_t SlotOffset(PageId id) const {
    return static_cast<off_t>(id) * slot_size();
  }

  int fd_;
  uint32_t page_count_ = 0;
  std::vector<PageId> free_list_;
  std::vector<bool> live_;
};

}  // namespace lsdb

#endif  // LSDB_STORAGE_PAGE_FILE_H_
