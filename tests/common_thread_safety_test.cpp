// Tests for the reader-sharded ts_shared_mutex (urmem/common/
// thread_safety.hpp): thread slots are stable and spread round-robin,
// shared holds on distinct slots overlap, and an exclusive hold
// excludes readers on every shard. The guarded state is plain integers,
// so a shard the writer failed to take is a data race the TSan lane
// reports, not only a wrong value.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <set>
#include <thread>
#include <vector>

#include "urmem/common/thread_safety.hpp"

namespace urmem {
namespace {

struct guarded_pair {
  ts_shared_mutex gate;
  int first URMEM_GUARDED_BY(gate) = 0;
  int second URMEM_GUARDED_BY(gate) = 0;
};

/// Spins (yielding) until `count` reaches `target` or ten seconds pass;
/// returns whether the target was reached.
bool wait_for(const std::atomic<int>& count, int target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (count.load() < target) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadShard, SlotIsStablePerThreadAndInRange) {
  std::size_t first = 0;
  std::size_t again = 0;
  std::thread worker([&] {
    first = ts_thread_shard();
    again = ts_thread_shard();
  });
  worker.join();
  EXPECT_LT(first, ts_shard_count);
  EXPECT_EQ(first, again);
}

TEST(ShardedSharedMutex, ReadersOnDistinctSlotsOverlap) {
  guarded_pair state;
  std::atomic<int> inside{0};
  std::size_t slots[2] = {0, 0};
  bool overlapped[2] = {false, false};

  auto reader = [&](int index) {
    slots[index] = ts_thread_shard();
    ts_shared_lock hold(state.gate);
    inside.fetch_add(1);
    // Both readers must be inside at once; a gate that serialized
    // readers would leave this one waiting until the deadline.
    overlapped[index] = wait_for(inside, 2);
    EXPECT_EQ(state.first, 0);
  };
  std::thread a(reader, 0);
  std::thread b(reader, 1);
  a.join();
  b.join();

  EXPECT_NE(slots[0], slots[1]);
  EXPECT_TRUE(overlapped[0]);
  EXPECT_TRUE(overlapped[1]);
}

TEST(ShardedSharedMutex, WriterExcludesReadersOnEveryShard) {
  guarded_pair state;
  std::atomic<int> ready{0};
  std::atomic<int> entered{0};
  std::vector<std::size_t> slots(ts_shard_count);
  std::vector<int> seen(ts_shard_count, -1);
  std::vector<std::thread> readers;

  {
    ts_unique_lock writer(state.gate);
    for (std::size_t index = 0; index < ts_shard_count; ++index) {
      readers.emplace_back([&, index] {
        slots[index] = ts_thread_shard();
        ready.fetch_add(1);
        ts_shared_lock hold(state.gate);
        entered.fetch_add(1);
        seen[index] = state.first;
      });
    }
    EXPECT_TRUE(wait_for(ready, static_cast<int>(ts_shard_count)));
    // Give any reader on a shard the writer failed to take time to get
    // in; with every shard held, none can.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(entered.load(), 0);
    state.first = 1;
  }
  for (std::thread& reader : readers) reader.join();

  // Consecutively started threads take every slot, so each shard had a
  // reader queued behind the writer, and each saw the writer's value.
  EXPECT_EQ(std::set<std::size_t>(slots.begin(), slots.end()).size(),
            ts_shard_count);
  for (const int value : seen) EXPECT_EQ(value, 1);
}

TEST(ShardedSharedMutex, ReadersNeverSeeAHalfWrittenPairBeyondShardCount) {
  // More readers than shards: aliased slots share a shard and must stay
  // correct. The writer updates two plain fields in one exclusive hold;
  // no reader may observe them apart.
  guarded_pair state;
  constexpr int rounds = 2000;
  constexpr std::size_t reader_count = ts_shard_count + 4;
  std::atomic<bool> done{false};
  std::atomic<int> torn{0};

  std::vector<std::thread> readers;
  for (std::size_t index = 0; index < reader_count; ++index) {
    readers.emplace_back([&] {
      while (!done.load()) {
        {
          ts_shared_lock hold(state.gate);
          if (state.first != state.second) torn.fetch_add(1);
        }
        std::this_thread::yield();  // leave the writer a gap to get in
      }
    });
  }
  for (int round = 0; round < rounds; ++round) {
    ts_unique_lock writer(state.gate);
    ++state.first;
    ++state.second;
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(torn.load(), 0);
  ts_shared_lock hold(state.gate);
  EXPECT_EQ(state.first, rounds);
  EXPECT_EQ(state.second, rounds);
}

}  // namespace
}  // namespace urmem
