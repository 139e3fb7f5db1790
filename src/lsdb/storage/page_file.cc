#include "lsdb/storage/page_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "lsdb/util/crc32c.h"

namespace lsdb {

namespace {

/// pread that retries EINTR and continues after short transfers until `n`
/// bytes are read. Hitting EOF mid-page is an error (the page is supposed
/// to exist in full).
Status FullPread(int fd, void* buf, size_t n, off_t off) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  while (n > 0) {
    const ssize_t r = ::pread(fd, p, n, off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pread: ") + std::strerror(errno));
    }
    if (r == 0) return Status::IoError("pread: unexpected end of file");
    p += r;
    off += r;
    n -= static_cast<size_t>(r);
  }
  return Status::OK();
}

/// pwrite that retries EINTR and continues after short transfers.
Status FullPwrite(int fd, const void* buf, size_t n, off_t off) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  while (n > 0) {
    const ssize_t r = ::pwrite(fd, p, n, off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pwrite: ") + std::strerror(errno));
    }
    if (r == 0) return Status::IoError("pwrite: wrote zero bytes");
    p += r;
    off += r;
    n -= static_cast<size_t>(r);
  }
  return Status::OK();
}

uint32_t ZeroPageCrc(uint32_t page_size) {
  std::vector<uint8_t> zero(page_size, 0);
  return crc32c::Compute(zero.data(), zero.size());
}

}  // namespace

Status PageFile::Write(PageId id, const void* buf) {
  return Write(id, buf, crc32c::Compute(buf, page_size_));
}

FirstTouchClaims::FirstTouchClaims(uint32_t pages) { Resize(pages); }

void FirstTouchClaims::Resize(uint32_t pages) {
  if (pages <= capacity_) return;
  const uint32_t cap = std::max(pages, 2 * capacity_);
  std::unique_ptr<std::atomic<uint8_t>[]> grown(new std::atomic<uint8_t>[cap]);
  for (uint32_t i = 0; i < cap; ++i) {
    grown[i].store(i < capacity_ ? flags_[i].load(std::memory_order_relaxed)
                                 : 0,
                   std::memory_order_relaxed);
  }
  flags_ = std::move(grown);
  capacity_ = cap;
}

StatusOr<PageFile::MappedPage> FirstTouchClaims::Claim(PageId id,
                                                       const uint8_t* data,
                                                       uint32_t page_size,
                                                       uint32_t stored) {
  if (crc32c::Compute(data, page_size) != stored) {
    return Status::Corruption("mapped page " + std::to_string(id) +
                              " failed checksum verification");
  }
  // Two threads may race to first-touch the same page; both verify the
  // same unchanging bytes, and exchange() lets exactly one claim the
  // first_touch (= one counted disk access) for the pool's accounting.
  const bool first = flags_[id].exchange(1, std::memory_order_acq_rel) == 0;
  if (first) pages_verified_.fetch_add(1, std::memory_order_relaxed);
  return PageFile::MappedPage{data, first};
}

MemPageFile::MemPageFile(uint32_t page_size)
    : PageFile(page_size), zero_crc_(ZeroPageCrc(page_size)) {
  assert(page_size >= 64);  // NOLINT(lsdb-assert-on-disk): constructor option validation
}

uint32_t MemPageFile::page_count() const {
  return static_cast<uint32_t>(pages_.size());
}

uint32_t MemPageFile::live_page_count() const {
  return static_cast<uint32_t>(pages_.size() - free_list_.size());
}

Status MemPageFile::Read(PageId id, void* buf, uint32_t* checksum) {
  if (id >= pages_.size() || !live_[id]) {
    return Status::InvalidArgument("read of unallocated page");
  }
  std::memcpy(buf, pages_[id].get(), page_size_);
  *checksum = crcs_[id];
  return Status::OK();
}

StatusOr<PageFile::MappedPage> MemPageFile::MapPage(PageId id) {
  if (id >= pages_.size() || !live_[id]) {
    return Status::InvalidArgument("map of unallocated page");
  }
  const uint8_t* page = pages_[id].get();
  if (claims_.claimed(id)) return MappedPage{page, false};
  return claims_.Claim(id, page, page_size_, crcs_[id]);
}

Status MemPageFile::Write(PageId id, const void* buf, uint32_t checksum) {
  if (id >= pages_.size() || !live_[id]) {
    return Status::InvalidArgument("write of unallocated page");
  }
  std::memcpy(pages_[id].get(), buf, page_size_);
  crcs_[id] = checksum;
  claims_.Reset(id);
  return Status::OK();
}

StatusOr<PageId> MemPageFile::Allocate() {
  if (!free_list_.empty()) {
    const PageId id = free_list_.back();
    free_list_.pop_back();
    live_[id] = true;
    std::memset(pages_[id].get(), 0, page_size_);
    crcs_[id] = zero_crc_;
    claims_.Reset(id);
    return id;
  }
  const PageId id = static_cast<PageId>(pages_.size());
  auto page = std::make_unique<uint8_t[]>(page_size_);
  std::memset(page.get(), 0, page_size_);
  pages_.push_back(std::move(page));
  crcs_.push_back(zero_crc_);
  live_.push_back(true);
  claims_.Resize(id + 1);
  return id;
}

Status MemPageFile::Free(PageId id) {
  if (id >= pages_.size() || !live_[id]) {
    return Status::InvalidArgument("free of unallocated page");
  }
  live_[id] = false;
  free_list_.push_back(id);
  return Status::OK();
}

StatusOr<std::unique_ptr<PosixPageFile>> PosixPageFile::Create(
    const std::string& path, uint32_t page_size) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  return std::unique_ptr<PosixPageFile>(new PosixPageFile(fd, page_size));
}

StatusOr<std::unique_ptr<PosixPageFile>> PosixPageFile::Open(
    const std::string& path, uint32_t page_size) {
  const int fd = ::open(path.c_str(), O_RDWR, 0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  const uint32_t slot = page_size + kPageTrailerSize;
  if (size < 0 || size % slot != 0) {
    ::close(fd);
    return Status::Corruption(
        "file size is not a multiple of the page slot size");
  }
  auto file =
      std::unique_ptr<PosixPageFile>(new PosixPageFile(fd, page_size));
  file->page_count_ = static_cast<uint32_t>(size / slot);
  file->live_.assign(file->page_count_, true);
  return file;
}

PosixPageFile::PosixPageFile(int fd, uint32_t page_size)
    : PageFile(page_size), fd_(fd) {}

PosixPageFile::~PosixPageFile() {
  // Destructors cannot return a Status; owners that care about close(2)
  // errors call Close() first. A failure here is still logged rather than
  // swallowed — a failed close can mean writes never reached the media.
  if (fd_ >= 0) {
    while (::close(fd_) != 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "lsdb: close failed in ~PosixPageFile: %s\n",
                   std::strerror(errno));
      break;
    }
    fd_ = -1;
  }
}

Status PosixPageFile::Close() {
  if (fd_ < 0) return Status::OK();
  const int fd = fd_;
  fd_ = -1;  // close(2) invalidates the fd even on failure (except EINTR)
  while (::close(fd) != 0) {
    if (errno == EINTR) continue;
    return Status::IoError(std::string("close: ") + std::strerror(errno));
  }
  return Status::OK();
}

uint32_t PosixPageFile::page_count() const { return page_count_; }

uint32_t PosixPageFile::live_page_count() const {
  return page_count_ - static_cast<uint32_t>(free_list_.size());
}

Status PosixPageFile::Read(PageId id, void* buf, uint32_t* checksum) {
  if (id >= page_count_ || !live_[id]) {
    return Status::InvalidArgument("read of unallocated page");
  }
  LSDB_RETURN_IF_ERROR(FullPread(fd_, buf, page_size_, SlotOffset(id)));
  uint8_t trailer[kPageTrailerSize];
  LSDB_RETURN_IF_ERROR(FullPread(fd_, trailer, sizeof(trailer),
                                 SlotOffset(id) + page_size_));
  *checksum = static_cast<uint32_t>(trailer[0]) |
              static_cast<uint32_t>(trailer[1]) << 8 |
              static_cast<uint32_t>(trailer[2]) << 16 |
              static_cast<uint32_t>(trailer[3]) << 24;
  return Status::OK();
}

Status PosixPageFile::Write(PageId id, const void* buf, uint32_t checksum) {
  if (id >= page_count_ || !live_[id]) {
    return Status::InvalidArgument("write of unallocated page");
  }
  // One contiguous slot write: page bytes then the trailer, so a page and
  // its checksum are always issued together.
  std::vector<uint8_t> slot(slot_size());
  std::memcpy(slot.data(), buf, page_size_);
  slot[page_size_] = static_cast<uint8_t>(checksum);
  slot[page_size_ + 1] = static_cast<uint8_t>(checksum >> 8);
  slot[page_size_ + 2] = static_cast<uint8_t>(checksum >> 16);
  slot[page_size_ + 3] = static_cast<uint8_t>(checksum >> 24);
  return FullPwrite(fd_, slot.data(), slot.size(), SlotOffset(id));
}

StatusOr<PageId> PosixPageFile::Allocate() {
  std::vector<uint8_t> zero(page_size_, 0);
  const uint32_t zero_crc = crc32c::Compute(zero.data(), zero.size());
  if (!free_list_.empty()) {
    const PageId id = free_list_.back();
    free_list_.pop_back();
    live_[id] = true;
    LSDB_RETURN_IF_ERROR(Write(id, zero.data(), zero_crc));
    return id;
  }
  const PageId id = page_count_;
  ++page_count_;
  live_.push_back(true);
  const Status s = Write(id, zero.data(), zero_crc);
  if (!s.ok()) {
    --page_count_;
    live_.pop_back();
    return s;
  }
  return id;
}

Status PosixPageFile::Free(PageId id) {
  if (id >= page_count_ || !live_[id]) {
    return Status::InvalidArgument("free of unallocated page");
  }
  live_[id] = false;
  free_list_.push_back(id);
  return Status::OK();
}

}  // namespace lsdb
