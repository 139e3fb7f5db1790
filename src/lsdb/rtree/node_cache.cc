#include "lsdb/rtree/node_cache.h"

#include <utility>

#include "lsdb/util/counters.h"
#include "lsdb/util/query_context.h"

namespace lsdb {

Status FrozenNodeCache::Build(RNodeIO* io, PageId root) {
  Clear();
  if (root == kInvalidPageId) return Status::OK();  // Empty tree: no cache.
  if (io->Capacity() > kMaxNodeMaskWords * 64) {
    return Status::InvalidArgument("page capacity exceeds scan-cache limit");
  }

  // The walk streams every page through the buffer pool; route the fetch
  // counters it generates into a scratch so the index-owned paper metrics
  // are untouched by cache construction.
  MetricCounters scratch;
  ScopedQueryContext scoped({.counters = &scratch});

  // Every page id must lie inside the file, and a (corrupt) cyclic tree must
  // terminate: the page file itself bounds how many distinct nodes exist.
  const uint32_t page_bound = io->pool()->file()->page_count();

  std::vector<PageId> stack{root};
  while (!stack.empty()) {
    const PageId pid = stack.back();
    stack.pop_back();
    if (pid >= page_bound) {
      Clear();
      return Status::Corruption("scan-cache walk left the page file");
    }
    if (pid < nodes_.size() && nodes_[pid] != nullptr) continue;

    RNode node;
    Status s = io->Load(pid, &node);
    if (!s.ok()) {
      Clear();
      return s;
    }

    auto cached = std::make_unique<CachedRNode>();
    cached->level = node.level;
    cached->count = static_cast<uint32_t>(node.entries.size());
    cached->overflow = node.overflow;
    cached->rects.Reset(node.entries.size());
    cached->child.resize(node.entries.size());
    for (size_t i = 0; i < node.entries.size(); ++i) {
      cached->rects.Set(i, node.entries[i].rect);
      cached->child[i] = node.entries[i].child;
    }
    if (!cached->leaf()) {
      for (const RNodeEntry& e : node.entries) stack.push_back(e.child);
    }
    if (cached->overflow != kInvalidPageId) stack.push_back(cached->overflow);

    if (pid >= nodes_.size()) nodes_.resize(pid + 1);
    bytes_ += sizeof(CachedRNode) +
              cached->rects.padded_size() * 4 * sizeof(int32_t) +
              cached->child.size() * sizeof(uint32_t);
    nodes_[pid] = std::move(cached);
    ++node_count_;
  }
  bytes_ += nodes_.capacity() * sizeof(nodes_[0]);
  return Status::OK();
}

}  // namespace lsdb
