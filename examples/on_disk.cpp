// On-disk demo: the structures are genuinely disk-resident — this example
// backs the segment table and a PMR quadtree with real files (PosixPageFile
// / pread / pwrite) instead of the in-memory page file used by the
// benchmarks, builds the index, flushes it, then REOPENS both files in a
// second phase and queries without rebuilding (superblock persistence).
//
//   $ ./examples/on_disk [dir]

#include <cstdio>

#include "lsdb/data/county_generator.h"
#include "lsdb/pmr/pmr_quadtree.h"
#include "lsdb/seg/segment_table.h"

using namespace lsdb;  // NOLINT

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "/tmp";
  CountyProfile profile;
  profile.name = "on-disk";
  profile.lattice = 20;
  profile.meander_steps = 5;
  profile.seed = 21;
  const PolygonalMap map = GenerateCounty(profile, 14);

  IndexOptions options;
  auto table_file =
      PosixPageFile::Create(dir + "/lsdb_segments.pages", options.page_size);
  auto index_file =
      PosixPageFile::Create(dir + "/lsdb_pmr.pages", options.page_size);
  if (!table_file.ok() || !index_file.ok()) {
    std::fprintf(stderr, "cannot create page files in %s\n", dir.c_str());
    return 1;
  }
  BufferPool table_pool(table_file->get(), options.buffer_frames, nullptr);
  SegmentTable table(&table_pool);
  PmrQuadtree index(options, index_file->get(), &table);
  if (!index.Init().ok()) return 1;

  for (const Segment& s : map.segments) {
    auto id = table.Append(s);
    if (!id.ok() || !index.Insert(*id, s).ok()) return 1;
  }
  if (!index.Flush().ok() || !table_pool.FlushAll().ok()) return 1;
  std::printf("built on disk: %u index pages (%llu KB) + %u segment pages "
              "for %zu segments\n",
              (*index_file)->live_page_count(),
              static_cast<unsigned long long>(index.bytes() / 1024),
              (*table_file)->live_page_count(), map.segments.size());
  std::printf("disk accesses during build: %llu\n",
              static_cast<unsigned long long>(
                  index.metrics().disk_accesses()));

  std::vector<SegmentHit> hits;
  if (!index.WindowQueryEx(Rect::Of(4000, 4000, 4800, 4800), &hits).ok()) {
    return 1;
  }
  std::printf("window query over the on-disk index found %zu segments\n",
              hits.size());

  // Phase 2: drop everything and reopen from the files alone.
  if (!table.Flush().ok()) return 1;
  auto table_file2 =
      PosixPageFile::Open(dir + "/lsdb_segments.pages", options.page_size);
  auto index_file2 =
      PosixPageFile::Open(dir + "/lsdb_pmr.pages", options.page_size);
  if (!table_file2.ok() || !index_file2.ok()) return 1;
  BufferPool table_pool2(table_file2->get(), options.buffer_frames, nullptr);
  SegmentTable table2(&table_pool2);
  if (!table2.Open().ok()) return 1;
  PmrQuadtree index2(options, index_file2->get(), &table2);
  const Status open_status = index2.Open();
  if (!open_status.ok()) {
    std::fprintf(stderr, "reopen failed: %s\n",
                 open_status.ToString().c_str());
    return 1;
  }
  std::vector<SegmentHit> hits2;
  if (!index2.WindowQueryEx(Rect::Of(4000, 4000, 4800, 4800), &hits2).ok()) {
    return 1;
  }
  std::printf("reopened from disk without rebuilding: same window returns "
              "%zu segments (%s)\n",
              hits2.size(), hits2.size() == hits.size() ? "match" : "MISMATCH");
  return hits2.size() == hits.size() ? 0 : 1;
}
