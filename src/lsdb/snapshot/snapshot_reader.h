// SnapshotReader: opens and validates a *.lsnap container and serves its
// sections as read-only MmapPageFile views.
//
// The whole file is mapped once (section offsets are not mmap-aligned, so
// per-section maps are impossible anyway); each OpenSection() hands out a
// view into that mapping. Views borrow the mapping — the reader must
// outlive every view and every structure opened over one.
//
// Validation is layered so every hostile input is a *typed* error:
//   * structural damage (truncation, bad magic, garbled offset table,
//     missing footer from a mid-write crash)      -> Status::Corruption
//   * a well-formed file this reader cannot serve
//     (newer version)                             -> Status::InvalidArgument
//   * payload damage -> caught lazily per page (verify-on-first-touch in
//     MmapPageFile) or eagerly by VerifyAll()'s section CRC sweep.
// Nothing in this path asserts on file bytes.

#ifndef LSDB_SNAPSHOT_SNAPSHOT_READER_H_
#define LSDB_SNAPSHOT_SNAPSHOT_READER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lsdb/snapshot/snapshot_format.h"
#include "lsdb/storage/mmap_page_file.h"
#include "lsdb/util/status.h"

namespace lsdb {
namespace snapshot {

class SnapshotReader {
 public:
  /// Opens `path`, maps it, and validates header / offset table / footer
  /// (not the section payloads — see VerifyAll).
  [[nodiscard]] static StatusOr<std::unique_ptr<SnapshotReader>> Open(
      const std::string& path);
  ~SnapshotReader();

  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  /// Unmaps and closes, surfacing munmap(2)/close(2) failures as typed
  /// IoError. Idempotent; the destructor falls back to logging.
  [[nodiscard]] Status Close();

  const Header& header() const { return header_; }
  const std::vector<SectionEntry>& sections() const { return sections_; }

  /// Returns the section of `kind`, or NotFound.
  [[nodiscard]] StatusOr<const SectionEntry*> Section(SectionKind kind) const;

  /// Opens a page-file view over the section of `kind`. `zero_copy`
  /// selects MapPage() serving (true; every query service) or pool-copy
  /// serving (false; paper-exact LRU accounting in the experiment
  /// harness). The returned view borrows this reader's mapping.
  [[nodiscard]] StatusOr<std::unique_ptr<MmapPageFile>> OpenSection(
      SectionKind kind, bool zero_copy) const;

  /// Recomputes section `index`'s CRC-32C over its full payload;
  /// Corruption on mismatch.
  [[nodiscard]] Status VerifySection(size_t index) const;
  /// VerifySection over every section.
  [[nodiscard]] Status VerifyAll() const;

 private:
  SnapshotReader() = default;

  const uint8_t* base_ = nullptr;  ///< Whole-file mapping (PROT_READ).
  size_t size_ = 0;
  int fd_ = -1;
  Header header_;
  std::vector<SectionEntry> sections_;
};

}  // namespace snapshot
}  // namespace lsdb

#endif  // LSDB_SNAPSHOT_SNAPSHOT_READER_H_
