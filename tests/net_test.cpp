#include <gtest/gtest.h>

#include "net/link.hpp"
#include "net/message_stream.hpp"

namespace vmig::net {
namespace {

using sim::Duration;
using sim::Simulator;
using sim::Task;
using sim::TimePoint;
using namespace vmig::sim::literals;

constexpr std::uint64_t kMiBc = 1024 * 1024;

TEST(LinkTest, TransmitTimeIsSerializationPlusLatency) {
  Simulator sim;
  LinkParams p;
  p.bandwidth_mibps = 100.0;
  p.latency = 10_ms;
  Link link{sim, p};
  sim.spawn([](Link& l) -> Task<void> {
    co_await l.transmit(100 * kMiBc);  // 1 s serialize
  }(link));
  sim.run();
  EXPECT_NEAR(sim.now().to_seconds(), 1.010, 1e-6);
  EXPECT_EQ(link.bytes_sent(), 100 * kMiBc);
  EXPECT_EQ(link.messages_sent(), 1u);
}

TEST(LinkTest, BackToBackTransmissionsSerialize) {
  Simulator sim;
  LinkParams p;
  p.bandwidth_mibps = 10.0;
  p.latency = Duration::zero();
  Link link{sim, p};
  TimePoint t1{}, t2{};
  sim.spawn([](Simulator& s, Link& l, TimePoint& a, TimePoint& b) -> Task<void> {
    co_await l.transmit(10 * kMiBc);
    a = s.now();
    co_await l.transmit(10 * kMiBc);
    b = s.now();
  }(sim, link, t1, t2));
  sim.run();
  EXPECT_NEAR(t1.to_seconds(), 1.0, 1e-6);
  EXPECT_NEAR(t2.to_seconds(), 2.0, 1e-6);
}

TEST(LinkTest, ConcurrentSendersShareBandwidth) {
  Simulator sim;
  LinkParams p;
  p.bandwidth_mibps = 10.0;
  p.latency = Duration::zero();
  Link link{sim, p};
  int done = 0;
  for (int i = 0; i < 2; ++i) {
    sim.spawn([](Link& l, int& done) -> Task<void> {
      co_await l.transmit(10 * kMiBc);
      ++done;
    }(link, done));
  }
  sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_NEAR(sim.now().to_seconds(), 2.0, 1e-6);  // FIFO: 1s + 1s
}

TEST(LinkTest, UtilizationReflectsIdleTime) {
  Simulator sim;
  LinkParams p;
  p.bandwidth_mibps = 10.0;
  p.latency = Duration::zero();
  Link link{sim, p};
  sim.spawn([](Simulator& s, Link& l) -> Task<void> {
    co_await l.transmit(10 * kMiBc);  // 1 s busy
    co_await s.delay(1_s);            // 1 s idle
  }(sim, link));
  sim.run();
  EXPECT_NEAR(link.utilization(), 0.5, 0.01);
}

TEST(TokenBucketTest, UnlimitedPassesInstantly) {
  Simulator sim;
  TokenBucket tb{sim, 0.0};
  EXPECT_TRUE(tb.unlimited());
  sim.spawn([](TokenBucket& tb) -> Task<void> {
    co_await tb.acquire(1ull << 40);
  }(tb));
  sim.run();
  EXPECT_EQ(sim.now(), TimePoint::origin());
}

TEST(TokenBucketTest, PacesToRate) {
  Simulator sim;
  TokenBucket tb{sim, 10.0, /*burst_mib=*/0.0};
  sim.spawn([](TokenBucket& tb) -> Task<void> {
    for (int i = 0; i < 100; ++i) co_await tb.acquire(kMiBc);  // 100 MiB
  }(tb));
  sim.run();
  EXPECT_NEAR(sim.now().to_seconds(), 10.0, 0.01);
}

TEST(TokenBucketTest, BurstAbsorbsInitialSpike) {
  Simulator sim;
  TokenBucket tb{sim, 1.0, /*burst_mib=*/5.0};
  TimePoint after_burst{};
  sim.spawn([](Simulator& s, TokenBucket& tb, TimePoint& t) -> Task<void> {
    co_await tb.acquire(5 * kMiBc);  // within burst: immediate
    t = s.now();
    co_await tb.acquire(kMiBc);      // now paced at 1 MiB/s
  }(sim, tb, after_burst));
  sim.run();
  EXPECT_EQ(after_burst, TimePoint::origin());
  EXPECT_NEAR(sim.now().to_seconds(), 1.0, 0.01);
}

TEST(TokenBucketTest, ShapedLinkTransmitsAtShapedRate) {
  Simulator sim;
  LinkParams p;
  p.bandwidth_mibps = 100.0;
  p.latency = Duration::zero();
  Link link{sim, p};
  TokenBucket tb{sim, 10.0, /*burst_mib=*/0.0};  // shape to a tenth of the link
  sim.spawn([](Link& l, TokenBucket& tb) -> Task<void> {
    for (int i = 0; i < 20; ++i) co_await l.transmit(kMiBc, &tb);
  }(link, tb));
  sim.run();
  // Sequential loop: each message pays 0.1 s shaping + 0.01 s serialization.
  EXPECT_NEAR(sim.now().to_seconds(), 2.2, 0.05);
}

TEST(TokenBucketTest, RateChangeTakesEffect) {
  Simulator sim;
  TokenBucket tb{sim, 1.0, 0.0};
  sim.spawn([](Simulator& s, TokenBucket& tb) -> Task<void> {
    co_await tb.acquire(kMiBc);  // 1 s at 1 MiB/s
    tb.set_rate_mibps(10.0);
    for (int i = 0; i < 10; ++i) co_await tb.acquire(kMiBc);  // 1 s at 10 MiB/s
    (void)s;
  }(sim, tb));
  sim.run();
  EXPECT_NEAR(sim.now().to_seconds(), 2.0, 0.05);
}

struct TestMsg {
  int id = 0;
  std::uint64_t size = 0;
  std::uint64_t wire_bytes() const { return size; }
};

TEST(MessageStreamTest, DeliversInOrderWithTiming) {
  Simulator sim;
  LinkParams p;
  p.bandwidth_mibps = 1.0;
  p.latency = Duration::zero();
  Link link{sim, p};
  MessageStream<TestMsg> stream{sim, link};
  std::vector<int> got;
  std::vector<double> at;
  sim.spawn([](MessageStream<TestMsg>& st, Simulator& s, std::vector<int>& got,
               std::vector<double>& at) -> Task<void> {
    for (;;) {
      const auto m = co_await st.recv();
      if (!m) break;
      got.push_back(m->id);
      at.push_back(s.now().to_seconds());
    }
  }(stream, sim, got, at));
  sim.spawn([](MessageStream<TestMsg>& st) -> Task<void> {
    co_await st.send(TestMsg{1, kMiBc});
    co_await st.send(TestMsg{2, kMiBc});
    st.close();
  }(stream));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  ASSERT_EQ(at.size(), 2u);
  EXPECT_NEAR(at[0], 1.0, 1e-6);
  EXPECT_NEAR(at[1], 2.0, 1e-6);
}

TEST(MessageStreamTest, SendOnClosedReturnsFalse) {
  Simulator sim;
  Link link{sim};
  MessageStream<TestMsg> stream{sim, link};
  stream.close();
  bool ok = true;
  sim.spawn([](MessageStream<TestMsg>& st, bool& ok) -> Task<void> {
    ok = co_await st.send(TestMsg{1, 100});
  }(stream, ok));
  sim.run();
  EXPECT_FALSE(ok);
}

TEST(MessageStreamTest, TwoSendersInterleaveFifo) {
  Simulator sim;
  LinkParams p;
  p.bandwidth_mibps = 1.0;
  p.latency = Duration::zero();
  Link link{sim, p};
  MessageStream<TestMsg> stream{sim, link};
  std::vector<int> got;
  sim.spawn([](MessageStream<TestMsg>& st, std::vector<int>& got) -> Task<void> {
    for (int i = 0; i < 4; ++i) {
      const auto m = co_await st.recv();
      if (m) got.push_back(m->id);
    }
  }(stream, got));
  sim.spawn([](MessageStream<TestMsg>& st) -> Task<void> {
    co_await st.send(TestMsg{1, kMiBc / 2});
    co_await st.send(TestMsg{2, kMiBc / 2});
  }(stream));
  sim.spawn([](MessageStream<TestMsg>& st) -> Task<void> {
    co_await st.send(TestMsg{10, kMiBc / 2});
    co_await st.send(TestMsg{20, kMiBc / 2});
  }(stream));
  sim.run();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], 1);   // FIFO on the link: first spawned sender first
  EXPECT_EQ(got[1], 10);
}

// A message, a channel hop and a receive are awaiters: once the two
// coroutines below exist, a thousand sends and receives (through a null and
// an unlimited shaper, over a bounded channel) create no coroutine frame.
TEST(MessageStreamTest, UnshapedSendAndRecvStartNoFrame) {
  Simulator sim;
  Link link{sim};
  MessageStream<TestMsg> stream{sim, link};
  sim::Channel<int> hop{sim, 1};
  TokenBucket unlimited{sim, 0.0};
  int received = 0;
  sim.spawn([](MessageStream<TestMsg>& st, sim::Channel<int>& hop,
               TokenBucket& tb) -> Task<void> {
    for (int i = 0; i < 1000; ++i) {
      co_await st.send(TestMsg{i, 1500}, i % 2 == 0 ? nullptr : &tb);
      co_await hop.send(i);
    }
    st.close();
    hop.close();
  }(stream, hop, unlimited));
  sim.spawn([](MessageStream<TestMsg>& st, sim::Channel<int>& hop,
               int& received) -> Task<void> {
    while (const auto m = co_await st.recv()) {
      const auto v = co_await hop.recv();
      if (v && *v == m->id) ++received;
    }
  }(stream, hop, received));
  const std::uint64_t frames = sim.frames_created();
  sim.run();
  EXPECT_EQ(received, 1000);
  EXPECT_EQ(sim.frames_created(), frames);
}

}  // namespace
}  // namespace vmig::net
