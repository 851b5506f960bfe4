// Distributed hash table tests: all three variants vs a std::unordered_map
// oracle, value-size sweeps across the eager/rendezvous boundary, and the
// paper's asynchronous-chaining idioms.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/dht/dht.hpp"
#include "arch/rng.hpp"
#include "spmd_helpers.hpp"

using testutil::spmd;

namespace {

std::string make_key(arch::Xoshiro256& rng) {
  // 8-byte random keys rendered as hex, as in the paper's benchmark setup.
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(rng.next()));
  return std::string(buf, 16);
}

std::string make_value(arch::Xoshiro256& rng, std::size_t len) {
  std::string v(len, '\0');
  for (auto& c : v) c = static_cast<char>('A' + rng.next_below(26));
  return v;
}

TEST(DhtRpcOnly, InsertFindRoundTrip) {
  spmd(4, [] {
    dht::RpcOnlyMap map;
    upcxx::barrier();
    // The paper's example.
    upcxx::future<> f = map.insert("Germany", "Bonn");
    f.wait();
    upcxx::barrier();
    auto found = map.find("Germany").wait();
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, "Bonn");
    EXPECT_FALSE(map.find("France").wait().has_value());
    upcxx::barrier();
  });
}

TEST(DhtRpcOnly, MatchesOracle) {
  spmd(4, [] {
    dht::RpcOnlyMap map;
    upcxx::barrier();
    arch::Xoshiro256 rng(100 + upcxx::rank_me());
    std::unordered_map<std::string, std::string> oracle;
    for (int i = 0; i < 200; ++i) {
      auto k = make_key(rng);
      auto v = make_value(rng, 8 + rng.next_below(64));
      oracle[k] = v;
      map.insert(k, v).wait();
    }
    upcxx::barrier();
    for (const auto& [k, v] : oracle) {
      auto got = map.find(k).wait();
      ASSERT_TRUE(got.has_value()) << k;
      EXPECT_EQ(*got, v);
    }
    upcxx::barrier();
  });
}

TEST(DhtRpcOnly, OverwriteKey) {
  spmd(2, [] {
    dht::RpcOnlyMap map;
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      map.insert("k", "v1").wait();
      map.insert("k", "v2").wait();
      EXPECT_EQ(*map.find("k").wait(), "v2");
    }
    upcxx::barrier();
  });
}

TEST(DhtRpcOnly, PipelinedInsertsWithPromise) {
  // Non-blocking insert storm tracked by conjoined futures.
  spmd(4, [] {
    dht::RpcOnlyMap map;
    upcxx::barrier();
    arch::Xoshiro256 rng(7 + upcxx::rank_me());
    std::vector<std::string> keys;
    upcxx::future<> all = upcxx::make_future();
    for (int i = 0; i < 100; ++i) {
      keys.push_back(make_key(rng));
      all = upcxx::when_all(all, map.insert(keys.back(), "v"));
      if (i % 10 == 0) upcxx::progress();
    }
    all.wait();
    upcxx::barrier();
    for (const auto& k : keys) EXPECT_TRUE(map.find(k).wait().has_value());
    upcxx::barrier();
  });
}

class DhtRmaSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DhtRmaSizes, RpcRmaMatchesOracleAcrossValueSizes) {
  const std::size_t value_len = GetParam();
  spmd(4, [value_len] {
    dht::RpcRmaMap map;
    upcxx::barrier();
    arch::Xoshiro256 rng(900 + upcxx::rank_me());
    std::unordered_map<std::string, std::string> oracle;
    const int n = value_len > 4096 ? 20 : 60;
    for (int i = 0; i < n; ++i) {
      auto k = make_key(rng);
      auto v = make_value(rng, value_len);
      oracle[k] = v;
      map.insert(k, v).wait();
    }
    upcxx::barrier();
    for (const auto& [k, v] : oracle) {
      auto got = map.find(k).wait();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, v);
    }
    EXPECT_FALSE(map.find("absent-key-123").wait().has_value());
    upcxx::barrier();
  });
}

// Sweep across the eager/rendezvous boundary (test cfg eager_max = 8 KiB)
// AND the async data-motion threshold (default rma_async_min = 64 KiB):
// 128 KiB values ride the chunked XferEngine, which reads the insert's
// source bytes from later progress polls — a regression guard for the
// value-lifetime anchoring in RpcRmaMap::insert.
INSTANTIATE_TEST_SUITE_P(ValueSizes, DhtRmaSizes,
                         ::testing::Values(1, 64, 1024, 8192, 32768,
                                           131072));

TEST(DhtRpcRma, InsertIsFullyAsynchronous) {
  // The paper's chained insert: the returned future covers RPC + rput.
  spmd(2, [] {
    dht::RpcRmaMap map;
    upcxx::barrier();
    std::vector<upcxx::future<>> futs;
    for (int i = 0; i < 32; ++i)
      futs.push_back(map.insert("key" + std::to_string(i),
                                std::string(1024, 'x')));
    for (auto& f : futs) f.wait();
    upcxx::barrier();
    for (int i = 0; i < 32; ++i) {
      auto got = map.find("key" + std::to_string(i)).wait();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->size(), 1024u);
    }
    upcxx::barrier();
  });
}

TEST(DhtOldApi, MatchesOracle) {
  spmd(4, [] {
    dht::OldApiMap map;
    upcxx::barrier();
    arch::Xoshiro256 rng(55 + upcxx::rank_me());
    std::unordered_map<std::string, std::string> oracle;
    for (int i = 0; i < 50; ++i) {
      auto k = make_key(rng);
      auto v = make_value(rng, 256);
      oracle[k] = v;
      map.insert(k, v);  // blocking, v0.1 style
    }
    upcxx::barrier();
    for (const auto& [k, v] : oracle) {
      auto got = map.find(k);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, v);
    }
    EXPECT_FALSE(map.find("nope").has_value());
    upcxx::barrier();
  });
}

TEST(Dht, VariantsSeeSameDistribution) {
  // get_target must agree across variants (same hash), so the same key maps
  // to the same rank in each implementation.
  spmd(4, [] {
    dht::RpcOnlyMap a;
    dht::RpcRmaMap b;
    dht::OldApiMap c;
    upcxx::barrier();
    arch::Xoshiro256 rng(1);
    for (int i = 0; i < 100; ++i) {
      auto k = make_key(rng);
      EXPECT_EQ(a.get_target(k), b.get_target(k));
      EXPECT_EQ(a.get_target(k), c.get_target(k));
    }
    upcxx::barrier();
  });
}

TEST(Dht, LoadBalanceRoughlyUniform) {
  spmd(4, [] {
    dht::RpcOnlyMap map;
    upcxx::barrier();
    arch::Xoshiro256 rng(2);
    std::vector<int> counts(upcxx::rank_n(), 0);
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) ++counts[map.get_target(make_key(rng))];
    for (int c : counts) {
      EXPECT_GT(c, kN / 4 - kN / 16);
      EXPECT_LT(c, kN / 4 + kN / 16);
    }
    upcxx::barrier();
  });
}

TEST(Dht, GraphVertexUpdateIdiom) {
  // The paper's Vertex-neighbor update example (§IV-C).
  struct Vertex {
    std::vector<std::string> nbs;
  };
  using Graph = std::unordered_map<std::string, Vertex>;
  spmd(2, [] {
    upcxx::dist_object<Graph> graph(Graph{});
    // Rank 1 owns vertex "v7".
    if (upcxx::rank_me() == 1) (*graph)["v7"] = Vertex{};
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      upcxx::rpc(1,
                 [](upcxx::dist_object<Graph>& g, const std::string& key,
                    const std::string& val) {
                   auto it = g->find(key);
                   ASSERT_NE(it, g->end());
                   it->second.nbs.push_back(val);
                 },
                 graph, std::string("v7"), std::string("v9"))
          .wait();
    }
    upcxx::barrier();
    if (upcxx::rank_me() == 1) {
      ASSERT_EQ((*graph)["v7"].nbs.size(), 1u);
      EXPECT_EQ((*graph)["v7"].nbs[0], "v9");
    }
    upcxx::barrier();
  });
}

}  // namespace

TEST(DhtRpcOnly, EraseRemovesMapping) {
  spmd(4, [] {
    dht::RpcOnlyMap map;
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      map.insert("k1", "v1").wait();
      map.insert("k2", "v2").wait();
      EXPECT_TRUE(map.erase("k1").wait());
      EXPECT_FALSE(map.erase("k1").wait()) << "second erase finds nothing";
      EXPECT_FALSE(map.find("k1").wait().has_value());
      EXPECT_EQ(map.find("k2").wait().value(), "v2");
    }
    upcxx::barrier();
  });
}

TEST(DhtRpcOnly, UpdateAppliesAtOwner) {
  // The paper's Vertex motif: update a complex entry in place with one RPC
  // instead of lock + rget + modify + rput + unlock.
  spmd(4, [] {
    dht::RpcOnlyMap map;
    upcxx::barrier();
    if (upcxx::rank_me() == 0) map.insert("vertex", "a").wait();
    upcxx::barrier();
    // Every rank appends its digit; all updates run at the owner, so none
    // are lost (the RMA alternative would race).
    map.update("vertex", [](std::string& v) { v += '+'; }).wait();
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      auto v = map.find("vertex").wait();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, "a++++") << "one '+' per rank, none lost";
    }
    upcxx::barrier();
  });
}

TEST(DhtRpcOnly, UpdateDefaultInsertsMissingKey) {
  spmd(2, [] {
    dht::RpcOnlyMap map;
    upcxx::barrier();
    if (upcxx::rank_me() == 1) {
      map.update("fresh", [](std::string& v) { v = "born"; }).wait();
      EXPECT_EQ(map.find("fresh").wait().value(), "born");
    }
    upcxx::barrier();
  });
}

TEST(DhtRpcRma, EraseFreesLandingZone) {
  spmd(4, [] {
    dht::RpcRmaMap map;
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      const std::string big(4096, 'z');
      map.insert("blob", big).wait();
      EXPECT_EQ(map.find("blob").wait().value(), big);
      EXPECT_TRUE(map.erase("blob").wait());
      EXPECT_FALSE(map.find("blob").wait().has_value());
      // The landing zone was deallocated at the owner: inserting again
      // reuses segment space rather than leaking it.
      for (int i = 0; i < 64; ++i) {
        map.insert("blob", big).wait();
        EXPECT_TRUE(map.erase("blob").wait());
      }
    }
    upcxx::barrier();
  });
}

TEST(DhtRpcRma, ConcurrentSameKeyInsertsAreMemorySafe) {
  // Every rank pipelines inserts of the same keys, so owners replace a
  // key's zone while the writer it was handed to has not done its rput.
  // The replaced zone must stay allocated until that writer releases it:
  // freed early, the next allocation reuses it and the late rput corrupts
  // another value or the heap's own bookkeeping.
  static constexpr int kKeys = 8, kRounds = 32;
  spmd(4, [] {
    const int me = upcxx::rank_me();
    // Writer r's value in round i: a rank-specific length, r and i in its
    // first two bytes, the rest one rank-specific letter.
    auto value = [](int r, int i) {
      std::string v(1000 + 997 * static_cast<std::size_t>(r),
                    static_cast<char>('A' + r));
      v[0] = static_cast<char>(r);
      v[1] = static_cast<char>(i);
      return v;
    };
    auto key = [](int k) { return "key" + std::to_string(k); };
    auto& seg = gex::self()->arena->segment_heap(me);
    upcxx::barrier();
    const std::size_t free0 = seg.bytes_free();
    {
      dht::RpcRmaMap map;
      upcxx::barrier();
      std::vector<upcxx::future<>> futs;
      for (int i = 0; i < kRounds; ++i)
        for (int k = 0; k < kKeys; ++k)
          futs.push_back(map.insert(key(k), value(me, i)));
      for (auto& f : futs) f.wait();
      upcxx::barrier();
      for (int k = 0; k < kKeys; ++k) {
        const auto got = map.find(key(k)).wait();
        ASSERT_TRUE(got.has_value()) << key(k);
        ASSERT_GE(got->size(), 2u);
        const int r = static_cast<unsigned char>((*got)[0]);
        const int i = static_cast<unsigned char>((*got)[1]);
        ASSERT_LT(r, upcxx::rank_n());
        ASSERT_LT(i, kRounds);
        EXPECT_EQ(*got, value(r, i)) << key(k);
      }
      upcxx::barrier();
    }
    upcxx::barrier();
    EXPECT_EQ(seg.bytes_free(), free0);
  });
}

TEST(DhtRpcRma, OverwriteFreesLandingZone) {
  // Overwriting a key replaces its landing zone; the owner must free the
  // old one (as erase does), or every overwrite leaks a zone's worth of
  // segment space.
  constexpr std::size_t kValue = 4096;
  // One zone's heap footprint: the NUL-terminated value plus block header
  // and alignment slack.
  constexpr std::size_t kZone = kValue + 1 + 256;
  spmd(2, [] {
    dht::RpcRmaMap map;
    upcxx::barrier();
    if (upcxx::rank_me() == 0) {
      const std::string key = "blob";
      auto owner_used = [&] {
        return upcxx::rpc(map.get_target(key), [] {
                 auto* r = gex::self();
                 auto& h = r->arena->segment_heap(r->me);
                 return static_cast<std::uint64_t>(h.bytes_total() -
                                                   h.bytes_free());
               }).wait();
      };
      auto value = [](int i) {
        std::string v(kValue, static_cast<char>('a' + i % 26));
        std::memcpy(v.data(), &i, sizeof i);
        return v;
      };
      map.insert(key, value(0)).wait();
      const std::uint64_t level = owner_used();
      for (int i = 1; i <= 256; ++i) {
        map.insert(key, value(i)).wait();
        const std::uint64_t used = owner_used();
        ASSERT_LE(used, level + kZone) << "after overwrite " << i;
        ASSERT_GE(used + kZone, level) << "after overwrite " << i;
      }
      EXPECT_EQ(map.find(key).wait().value(), value(256));
    }
    upcxx::barrier();
  });
}
