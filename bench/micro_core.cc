// Micro-benchmarks of the core primitives the audit pipeline leans on:
// digests, Value encoding, graph cycle detection, the transactional store,
// and SIMD-on-demand multivalues.
#include <benchmark/benchmark.h>

#include "src/common/digest.h"
#include "src/common/graph.h"
#include "src/common/serde.h"
#include "src/common/value.h"
#include "src/multivalue/multivalue.h"
#include "src/txkv/store.h"

namespace karousos {
namespace {

void BM_DigestString(benchmark::State& state) {
  std::string s(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(DigestOf(s));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DigestString)->Arg(16)->Arg(256)->Arg(4096);

void BM_ValueDigest(benchmark::State& state) {
  ValueMap m;
  for (int i = 0; i < state.range(0); ++i) {
    m["key" + std::to_string(i)] = MakeList({i, "text", MakeMap({{"n", i}})});
  }
  Value v(std::move(m));
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.DigestValue());
  }
}
BENCHMARK(BM_ValueDigest)->Arg(4)->Arg(64);

void BM_ValueSerdeRoundTrip(benchmark::State& state) {
  ValueMap m;
  for (int i = 0; i < state.range(0); ++i) {
    m["key" + std::to_string(i)] = MakeList({i, "text"});
  }
  Value v(std::move(m));
  for (auto _ : state) {
    ByteWriter w;
    w.WriteValue(v);
    ByteReader r(w.bytes());
    benchmark::DoNotOptimize(r.ReadValue());
  }
}
BENCHMARK(BM_ValueSerdeRoundTrip)->Arg(4)->Arg(64);

void BM_GraphCycleDetect(benchmark::State& state) {
  DirectedGraph g;
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  for (uint64_t i = 0; i + 1 < n; ++i) {
    g.AddEdge(NodeKey{i, 0, 0}, NodeKey{i + 1, 0, 0});
    if (i % 7 == 0 && i + 8 < n) {
      g.AddEdge(NodeKey{i, 0, 0}, NodeKey{i + 8, 0, 0});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.HasCycle());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_GraphCycleDetect)->Arg(1000)->Arg(100000);

void BM_TxKvCommitCycle(benchmark::State& state) {
  TxKvStore store(IsolationLevel::kSerializable);
  uint64_t next = 1;
  for (auto _ : state) {
    RequestId rid = next;
    TxId tid = next * 1000;
    ++next;
    store.Begin(rid, tid);
    store.Put(rid, tid, 2, "key" + std::to_string(next % 64), Value(static_cast<int64_t>(next)));
    benchmark::DoNotOptimize(store.Get(rid, tid, "key" + std::to_string(next % 64)));
    store.Commit(rid, tid);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TxKvCommitCycle);

void BM_MultiValueZipCollapsed(benchmark::State& state) {
  MultiValue a(Value(1));
  MultiValue b(Value(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MvAdd(a, b));
  }
}
BENCHMARK(BM_MultiValueZipCollapsed);

void BM_MultiValueZipExpanded(benchmark::State& state) {
  std::vector<Value> lanes;
  for (int i = 0; i < state.range(0); ++i) {
    lanes.emplace_back(i);
  }
  MultiValue a = MultiValue::Expanded(lanes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MvAdd(a, MultiValue(1)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MultiValueZipExpanded)->Arg(8)->Arg(64)->Arg(512);

}  // namespace
}  // namespace karousos
