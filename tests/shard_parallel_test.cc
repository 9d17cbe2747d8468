// The sharded route's pools: ShardRun finishes its K shards on a pool and
// EncodeShardFile encodes each shard's epoch frames on one, so both must
// produce exactly what serial work would. Every shard file is compared byte
// for byte with a frame-by-frame reference appended serially through
// AppendCompressedFrame and, at K=1, with the epoch slicer's own slices.
// Labelled tsan: under KAROUSOS_SANITIZE=thread it race-checks both pools.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/server/server.h"
#include "src/server/shard.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

ServerRunResult ServeStacks(size_t requests) {
  AppSpec app = MakeAppByName("stacks").value();
  WorkloadConfig wl;
  wl.app = "stacks";
  wl.kind = WorkloadKind::kMixed;
  wl.requests = requests;
  ServerConfig config;
  config.concurrency = 8;
  Server server(*app.program, config);
  return server.Run(GenerateWorkload(wl));
}

// The shard file layout appended one frame at a time on this thread.
std::vector<uint8_t> SerialShardFile(const ShardBoundary& boundary,
                                     const std::vector<EpochSegment>& segments,
                                     const KsegCompression& c) {
  SegmentWriter writer(SegmentFormatVersionFor(c));
  ByteWriter manifest;
  boundary.Serialize(&manifest);
  writer.Append(SegmentKind::kShardBoundary, boundary.shard, manifest.bytes());
  for (const EpochSegment& seg : segments) {
    AppendCompressedFrame(&writer, SegmentKind::kTrace, seg, c);
    AppendCompressedFrame(&writer, SegmentKind::kAdvice, seg, c);
  }
  return writer.Take();
}

TEST(ShardParallelTest, PooledPartitionAndEncodeMatchSerialFrames) {
  const ServerRunResult run = ServeStacks(60);
  const KsegCompression c = KsegCompression::All();
  for (uint32_t k : {1u, 4u}) {
    for (uint64_t epoch_size : {uint64_t{1}, uint64_t{50}, uint64_t{0}}) {
      const std::string context =
          "K=" + std::to_string(k) + " epoch=" + std::to_string(epoch_size);
      const std::vector<ShardFile> shards =
          ShardRun(run.trace, run.advice, epoch_size, ShardSpec{k, ShardMode::kHash});
      ASSERT_EQ(shards.size(), k) << context;
      for (const ShardFile& shard : shards) {
        const std::vector<uint8_t> bytes = EncodeShardFile(shard, c);
        EXPECT_EQ(bytes, SerialShardFile(shard.boundary, shard.slices.segments, c))
            << context << " shard " << shard.boundary.shard;
        ShardLoadResult loaded = LoadShardBytes(bytes);
        EXPECT_TRUE(loaded.ok) << context << ": " << loaded.reason;
      }
      if (k == 1) {
        const EpochSlices slices = SliceRun(run.trace, run.advice, epoch_size);
        EXPECT_EQ(EncodeShardFile(shards[0], c),
                  SerialShardFile(shards[0].boundary, slices.segments, c))
            << context << " vs SliceRun";
      }
    }
  }
}

}  // namespace
}  // namespace karousos
