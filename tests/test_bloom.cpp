// Unit tests: the owner-side Bloom filter of bloom_construction.
// hash::OwnerFilter is the one Bloom implementation; these cases check its
// use as a singleton filter during Step III, where insert()'s "seen before"
// answer decides which keys get an exact-table entry. The filter-exchange
// properties (serialization, FP rate across sizes) are in test_owner_filter.
#include "hash/owner_filter.hpp"

#include <gtest/gtest.h>

#include "seq/rng.hpp"

namespace reptile::hash {
namespace {

TEST(BloomFilter, NoFalseNegatives) {
  OwnerFilter bf(1000, 0.01);
  seq::Rng rng(1);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back(rng.next());
  for (auto k : keys) bf.insert(k);
  for (auto k : keys) EXPECT_TRUE(bf.possibly_contains(k));
}

TEST(BloomFilter, FalsePositiveRateNearTarget) {
  OwnerFilter bf(10000, 0.01);
  seq::Rng rng(2);
  for (int i = 0; i < 10000; ++i) bf.insert(rng.next());
  int fp = 0;
  constexpr int kProbes = 50000;
  seq::Rng probe_rng(3);  // fresh stream: effectively disjoint keys
  for (int i = 0; i < kProbes; ++i) {
    if (bf.possibly_contains(probe_rng.next())) ++fp;
  }
  const double rate = static_cast<double>(fp) / kProbes;
  EXPECT_LT(rate, 0.03);
}

TEST(BloomFilter, InsertReportsPriorPresence) {
  OwnerFilter bf(1000, 0.01);
  EXPECT_FALSE(bf.insert(42));  // first time: not all bits set
  EXPECT_TRUE(bf.insert(42));   // second time: definitely all set
  EXPECT_EQ(bf.key_count(), 2u);
}

TEST(BloomFilter, SingletonSuppressionWorkflow) {
  // The paper's suggested memory-efficient pruning: only keys seen twice
  // get an exact-table entry.
  OwnerFilter bf(2000, 0.01);
  seq::Rng rng(4);
  std::vector<std::uint64_t> repeated, singles;
  for (int i = 0; i < 500; ++i) repeated.push_back(rng.next());
  for (int i = 0; i < 1000; ++i) singles.push_back(rng.next());

  int admitted = 0;
  auto offer = [&](std::uint64_t k) {
    if (bf.insert(k)) ++admitted;
  };
  for (auto k : singles) offer(k);
  for (auto k : repeated) offer(k);
  for (auto k : repeated) offer(k);  // second sighting admits them
  EXPECT_GE(admitted, 500);
  EXPECT_LT(admitted, 500 + 60);  // few false admissions from singles
}

TEST(BloomFilter, FillRatioGrowsWithInserts) {
  OwnerFilter bf(1000, 0.01);
  EXPECT_DOUBLE_EQ(bf.fill_ratio(), 0.0);
  seq::Rng rng(5);
  for (int i = 0; i < 500; ++i) bf.insert(rng.next());
  const double half = bf.fill_ratio();
  for (int i = 0; i < 500; ++i) bf.insert(rng.next());
  EXPECT_GT(bf.fill_ratio(), half);
  EXPECT_LT(bf.fill_ratio(), 0.6);  // sized for ~50% at capacity
}

TEST(BloomFilter, SizingMonotoneInExpectedKeys) {
  OwnerFilter small(100, 0.01);
  OwnerFilter large(100000, 0.01);
  EXPECT_LT(small.memory_bytes(), large.memory_bytes());
  EXPECT_GE(small.hash_count(), 1);
}

TEST(BloomFilter, ZeroExpectedKeysStillUsable) {
  OwnerFilter bf(0, 0.01);
  EXPECT_FALSE(bf.possibly_contains(1));
  EXPECT_FALSE(bf.insert(1));
  EXPECT_TRUE(bf.possibly_contains(1));
  EXPECT_TRUE(bf.insert(1));
}

}  // namespace
}  // namespace reptile::hash
