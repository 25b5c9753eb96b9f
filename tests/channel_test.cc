#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/channel.h"

namespace tpart {
namespace {

TEST(BlockingQueueTest, SendReceiveBasic) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.Send(1));  // unbounded: never waits
  q.Send(2);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.Receive(), 1);
  EXPECT_EQ(q.Receive(), 2);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.TryReceive().has_value());
}

TEST(BlockingQueueTest, MessageFifoAndTryReceive) {
  Channel ch;
  EXPECT_FALSE(ch.TryReceive().has_value());
  for (int i = 0; i < 5; ++i) {
    Message m;
    m.type = Message::Type::kPushVersion;
    m.version = static_cast<TxnId>(i);
    ch.Send(std::move(m));
  }
  EXPECT_EQ(ch.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    const std::optional<Message> m = ch.TryReceive();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->version, static_cast<TxnId>(i));
  }
  EXPECT_EQ(ch.size(), 0u);
}

// The buffer starts at 16 slots. Advancing the head, then filling past
// the end, leaves the live elements wrapped around the buffer's end when
// it doubles; growth must unwrap them in FIFO order.
TEST(BlockingQueueTest, FifoAcrossGrowthWithWrappedHead) {
  BlockingQueue<int> q;
  int next_in = 0;
  int next_out = 0;
  for (int i = 0; i < 10; ++i) q.Send(next_in++);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(q.Receive(), next_out++);
  // Head at slot 6; 4 live. 12 more fill all 16 slots, wrapping the tail.
  for (int i = 0; i < 12; ++i) q.Send(next_in++);
  EXPECT_EQ(q.size(), 16u);
  // Full with a wrapped head: this send doubles the buffer, and so on.
  for (int i = 0; i < 100; ++i) q.Send(next_in++);
  // Interleave so the head wraps in the grown buffer too.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 7; ++i) EXPECT_EQ(q.Receive(), next_out++);
    for (int i = 0; i < 5; ++i) q.Send(next_in++);
  }
  while (next_out < next_in) EXPECT_EQ(q.Receive(), next_out++);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.TryReceive().has_value());
}

TEST(BlockingQueueTest, HighWaterTracksDeepestQueue) {
  BlockingQueue<int> q;
  EXPECT_EQ(q.high_water(), 0u);
  for (int i = 0; i < 40; ++i) q.Send(int(i));
  for (int i = 0; i < 30; ++i) q.Receive();
  for (int i = 0; i < 20; ++i) q.Send(int(i));
  EXPECT_EQ(q.size(), 30u);
  EXPECT_EQ(q.high_water(), 40u);  // depth fell, the mark did not
  for (int i = 0; i < 25; ++i) q.Send(int(i));
  EXPECT_EQ(q.high_water(), 55u);
}

TEST(BlockingQueueTest, ReceiveForTimesOut) {
  BlockingQueue<int> q;
  const auto start = std::chrono::steady_clock::now();
  auto r = q.ReceiveFor(std::chrono::microseconds(20000));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(elapsed, std::chrono::microseconds(19000));
}

TEST(BlockingQueueTest, ReceiveForGetsLateMessage) {
  BlockingQueue<int> q;
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.Send(42);
  });
  auto r = q.ReceiveFor(std::chrono::seconds(5));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  sender.join();
}

TEST(BlockingQueueTest, BoundedSendWaitsUntilReceive) {
  BlockingQueue<int> q(/*capacity=*/2);
  EXPECT_FALSE(q.Send(1));
  EXPECT_FALSE(q.Send(2));
  std::atomic<bool> started{false};
  std::atomic<bool> sent{false};
  bool waited = false;
  std::thread sender([&] {
    started.store(true);
    waited = q.Send(3);
    sent.store(true);
  });
  // The queue stays full until the Receive below, so the send waits as
  // long as it starts before then; the sleep gives it time to start even
  // on a loaded host.
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(sent.load());  // full: the third send is parked
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.Receive(), 1);  // frees a slot and wakes the sender
  sender.join();
  EXPECT_TRUE(sent.load());
  EXPECT_TRUE(waited);
  EXPECT_EQ(q.high_water(), 2u);
  EXPECT_EQ(q.Receive(), 2);
  EXPECT_EQ(q.Receive(), 3);
}

// The production shape: several producers feeding one consumer that
// parks whenever the queue runs dry. Run under TSan this exercises the
// wakeup path and buffer growth racing with sends.
TEST(BlockingQueueTest, MultiProducerParkedConsumerKeepsPerProducerFifo) {
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 25000;
  BlockingQueue<std::uint64_t> q;
  std::vector<std::uint64_t> next(kProducers, 0);
  std::thread consumer([&] {
    for (std::uint64_t n = 0; n < kProducers * kPerProducer; ++n) {
      const std::uint64_t v = q.Receive();
      const int p = static_cast<int>(v >> 32);
      const std::uint64_t seq = v & 0xffffffffull;
      ASSERT_EQ(seq, next[p]) << "producer " << p << " reordered";
      ++next[p];
    }
  });
  // Let the consumer park on the empty queue before the first send.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        q.Send((static_cast<std::uint64_t>(p) << 32) | i);
        if (i % 1024 == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next[p], kPerProducer);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.TryReceive().has_value());
}

}  // namespace
}  // namespace tpart
