#include <gtest/gtest.h>

#include <thread>

#include "decomp/bz.h"
#include "gen/generators.h"
#include "maint/core_state.h"
#include "test_util.h"

namespace parcore {
namespace {

using test::Family;

TEST(LevelDirectory, CreateAndGet) {
  LevelDirectory dir;
  dir.configure(8);
  dir.ensure_capacity(10);
  EXPECT_EQ(dir.get(3), nullptr);
  OrderList& l3 = dir.get_or_create(3);
  EXPECT_EQ(dir.get(3), &l3);
  EXPECT_EQ(l3.level(), 3);
  EXPECT_EQ(&dir.get_or_create(3), &l3);  // idempotent
}

TEST(LevelDirectory, EnsureCapacityPreservesLists) {
  LevelDirectory dir;
  dir.configure(8);
  dir.ensure_capacity(4);
  OrderList* l1 = &dir.get_or_create(1);
  dir.ensure_capacity(100);
  EXPECT_EQ(dir.get(1), l1);
  EXPECT_GE(dir.capacity(), 100u);
  EXPECT_EQ(dir.get(99), nullptr);
}

TEST(LevelDirectory, ConcurrentGetOrCreate) {
  LevelDirectory dir;
  dir.configure(8);
  dir.ensure_capacity(64);
  std::vector<std::thread> threads;
  std::vector<OrderList*> results(8);
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] = &dir.get_or_create(7);
    });
  for (auto& th : threads) th.join();
  for (int t = 1; t < 8; ++t) EXPECT_EQ(results[0], results[t]);
}

TEST(CoreState, InitializeBuildsConsistentState) {
  for (Family f : {Family::kEr, Family::kBa, Family::kRmat, Family::kPath,
                   Family::kStar, Family::kClique}) {
    Rng rng(3);
    auto edges = test::family_edges(f, 150, rng);
    std::size_t max_v = 150;
    for (const Edge& e : edges)
      max_v = std::max<std::size_t>(max_v, std::max(e.u, e.v) + 1);
    auto g = DynamicGraph::from_edges(max_v, edges);
    CoreState st;
    st.initialize(g);
    std::string err;
    EXPECT_TRUE(st.check_invariants(g, &err, /*check_cores=*/true))
        << test::family_name(f) << ": " << err;
    // The cold-start k-order is exactly BZ's peel order.
    EXPECT_EQ(st.save_order().order, bz_decompose(g).peel_order)
        << test::family_name(f);
  }
}

TEST(CoreState, PrecedesIsStrictTotalOrderPerLevel) {
  auto g = test::make_graph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  CoreState st;
  st.initialize(g);
  for (VertexId a = 0; a < 6; ++a)
    for (VertexId b = 0; b < 6; ++b) {
      if (a == b) continue;
      EXPECT_NE(st.precedes_stable(a, b), st.precedes_stable(b, a))
          << a << " vs " << b;
      EXPECT_EQ(st.precedes_stable(a, b), st.precedes_guarded(a, b));
    }
}

TEST(CoreState, PrecedesRespectsCoreLevels) {
  // Triangle (core 2) + tail (core 1): every tail vertex precedes every
  // triangle vertex.
  auto g = test::make_graph(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
  CoreState st;
  st.initialize(g);
  for (VertexId low : {3u, 4u})
    for (VertexId high : {0u, 1u, 2u}) {
      EXPECT_TRUE(st.precedes_stable(low, high));
      EXPECT_FALSE(st.precedes_stable(high, low));
    }
}

TEST(CoreState, ComputeDoutMatchesStoredAfterInit) {
  Rng rng(5);
  auto g = DynamicGraph::from_edges(200, gen_erdos_renyi(200, 700, rng));
  CoreState st;
  st.initialize(g);
  for (VertexId v = 0; v < 200; ++v)
    EXPECT_EQ(st.dout(v).load(), st.compute_dout(g, v)) << v;
}

TEST(CoreState, ComputeMcdMatchesStoredAfterInit) {
  Rng rng(6);
  auto g = DynamicGraph::from_edges(200, gen_barabasi_albert(200, 3, rng));
  CoreState st;
  st.initialize(g);
  for (VertexId v = 0; v < 200; ++v)
    EXPECT_EQ(st.mcd(v).load(), st.compute_mcd(g, v)) << v;
}

TEST(CoreState, McdIncrementSkipsEmpty) {
  auto g = test::make_graph(3, {{0, 1}, {1, 2}});
  CoreState st;
  st.initialize(g);
  st.mcd(0).store(kMcdEmpty);
  st.mcd_increment_unless_empty(0);
  EXPECT_EQ(st.mcd(0).load(), kMcdEmpty);
  st.mcd(1).store(3);
  st.mcd_increment_unless_empty(1);
  EXPECT_EQ(st.mcd(1).load(), 4);
}

TEST(CoreState, GuardedPrecedesWaitsForEvenStatus) {
  auto g = test::make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  CoreState st;
  st.initialize(g);
  // Make vertex 1's status odd; a reader must block until it is even.
  st.s(1).fetch_add(1);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    bool r = st.precedes_guarded(0, 1);
    (void)r;
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());
  st.s(1).fetch_add(1);  // even again
  reader.join();
  EXPECT_TRUE(done.load());
}

TEST(CoreState, RaiseMaxCoreIsMonotonicCasMax) {
  auto g = test::make_graph(3, {{0, 1}});
  CoreState st;
  st.initialize(g);
  const CoreValue base = st.max_core();
  st.raise_max_core(base + 5);
  EXPECT_EQ(st.max_core(), base + 5);
  st.raise_max_core(base + 2);  // lower: no effect
  EXPECT_EQ(st.max_core(), base + 5);
}

TEST(CoreState, CheckInvariantsDetectsBadDout) {
  auto g = test::make_graph(3, {{0, 1}, {1, 2}});
  CoreState st;
  st.initialize(g);
  st.dout(1).store(99);
  std::string err;
  EXPECT_FALSE(st.check_invariants(g, &err));
  EXPECT_NE(err.find("dout"), std::string::npos);
}

TEST(CoreState, CheckInvariantsDetectsHeldLock) {
  auto g = test::make_graph(3, {{0, 1}, {1, 2}});
  CoreState st;
  st.initialize(g);
  st.lock(2).lock();
  std::string err;
  EXPECT_FALSE(st.check_invariants(g, &err));
  st.lock(2).unlock();
  EXPECT_TRUE(st.check_invariants(g, &err)) << err;
}

}  // namespace
}  // namespace parcore
