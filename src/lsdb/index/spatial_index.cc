#include "lsdb/index/spatial_index.h"

#include "lsdb/storage/buffer_pool.h"

namespace lsdb {

Status SpatialIndex::Freeze() {
  if (frozen_) return Status::OK();
  if (BufferPool* pool = mutable_pool()) {
    if (!pool->read_only()) LSDB_RETURN_IF_ERROR(Flush());
    LSDB_RETURN_IF_ERROR(pool->Freeze());
  }
  frozen_ = true;
  return Status::OK();
}

void SpatialIndex::Thaw() {
  DropScanCache();
  if (BufferPool* pool = mutable_pool()) pool->Thaw();
  frozen_ = false;
}

Status SpatialIndex::CheckMutable() const {
  if (frozen_) {
    return Status::InvalidArgument("index is frozen for serving");
  }
  if (const BufferPool* p = pool(); p != nullptr && p->read_only()) {
    return Status::InvalidArgument("index is served from a read-only file");
  }
  return Status::OK();
}

Status SpatialIndex::WindowQuery(const Rect& w,
                                 std::vector<SegmentId>* out) {
  std::vector<SegmentHit> hits;
  LSDB_RETURN_IF_ERROR(WindowQueryEx(w, &hits));
  out->reserve(out->size() + hits.size());
  for (const SegmentHit& h : hits) out->push_back(h.id);
  return Status::OK();
}

Status SpatialIndex::WindowQueryBatch(
    const std::vector<Rect>& ws, std::vector<std::vector<SegmentHit>>* outs) {
  outs->assign(ws.size(), {});
  for (size_t i = 0; i < ws.size(); ++i) {
    LSDB_RETURN_IF_ERROR(WindowQueryEx(ws[i], &(*outs)[i]));
  }
  return Status::OK();
}

Status SpatialIndex::PointQueryEx(const Point& p,
                                  std::vector<SegmentHit>* out) {
  return WindowQueryEx(Rect::AtPoint(p), out);
}

Status SpatialIndex::PointQuery(const Point& p,
                                std::vector<SegmentId>* out) {
  return WindowQuery(Rect::AtPoint(p), out);
}

}  // namespace lsdb
