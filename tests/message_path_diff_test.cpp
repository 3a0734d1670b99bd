// Differential test of the migration message path. sim::Channel's send/recv
// awaiters and net::MessageStream's send awaiter over net::Link::reserve are
// driven side by side with reference copies of the coroutines they replaced
// (namespace `ref` below), under the same seeded scripts: several producers
// and consumers, bounded and unbounded channels, a close while messages are
// in flight, a lossy link with a drop policy, outage, degradation and
// extra-latency windows, a rate-limited shaper, and frames destroyed while
// they wait or send. Every resumption and every delivery is logged as
// (simulated time, events processed, label); the two logs must be equal,
// which pins the (time, seq) of every timer the message path schedules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/message_stream.hpp"
#include "simcore/channel.hpp"
#include "simcore/notifier.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"

namespace vmig {
namespace {

using sim::Duration;
using sim::Rng;
using sim::Simulator;
using sim::Task;
using sim::TimePoint;

constexpr double kMiB = 1024.0 * 1024.0;

// ------------------------------------------------- reference implementations

namespace ref {

/// The coroutine Channel: send and recv re-check their predicate in a loop
/// and take a fresh Notifier wait each time round.
template <typename T>
class Channel {
 public:
  static constexpr std::size_t kUnbounded = sim::Channel<T>::kUnbounded;

  explicit Channel(Simulator& sim, std::size_t capacity = kUnbounded)
      : capacity_{capacity == 0 ? 1 : capacity},
        not_empty_{sim},
        not_full_{sim} {}

  bool try_send(T v) {
    if (closed_ || q_.size() >= capacity_) return false;
    q_.push_back(std::move(v));
    not_empty_.notify_one();
    return true;
  }

  Task<bool> send(T v) {
    while (!closed_ && q_.size() >= capacity_) {
      co_await not_full_.wait();
    }
    if (closed_) co_return false;
    q_.push_back(std::move(v));
    not_empty_.notify_one();
    co_return true;
  }

  std::optional<T> try_recv() {
    if (q_.empty()) return std::nullopt;
    std::optional<T> v{std::move(q_.front())};
    q_.pop_front();
    not_full_.notify_one();
    return v;
  }

  Task<std::optional<T>> recv() {
    while (q_.empty()) {
      if (closed_) co_return std::nullopt;
      co_await not_empty_.wait();
    }
    std::optional<T> v{std::move(q_.front())};
    q_.pop_front();
    not_full_.notify_one();
    co_return v;
  }

  void close() {
    if (closed_) return;
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }
  bool closed() const noexcept { return closed_; }
  std::size_t size() const noexcept { return q_.size(); }

 private:
  std::size_t capacity_;
  std::deque<T> q_;
  sim::Notifier not_empty_;
  sim::Notifier not_full_;
  bool closed_ = false;
};

/// The coroutine Link::transmit, with the fault knobs the scripts drive.
class Link {
 public:
  Link(Simulator& sim, net::LinkParams p) : sim_{sim}, p_{p} {}

  Task<void> transmit(std::uint64_t bytes, net::TokenBucket* shaper) {
    if (shaper != nullptr) co_await shaper->acquire(bytes);
    const TimePoint arrival = sim_.now();
    const auto serialize = Duration::from_seconds(
        static_cast<double>(bytes) / (p_.bandwidth_mibps * degrade_ * kMiB));
    TimePoint start = std::max(arrival, busy_until_);
    if (start >= down_from_ && start < down_until_) start = down_until_;
    busy_until_ = start + serialize;
    bytes_sent_ += bytes;
    ++messages_sent_;
    const TimePoint delivered = busy_until_ + p_.latency + extra_;
    co_await sim_.delay(delivered - arrival);
  }

  void fail_at(TimePoint at, Duration d) {
    down_from_ = at;
    down_until_ = at + d;
  }
  void set_degradation(double f) { degrade_ = std::max(f, 1e-6); }
  void set_extra_latency(Duration d) { extra_ = d; }
  void set_loss(double p) { loss_ = p; }
  void seed_loss(std::uint64_t seed) { rng_.reseed(seed); }
  bool lossy() const noexcept { return loss_ > 0.0; }
  bool roll_drop() {
    if (!lossy()) return false;
    return rng_.bernoulli(loss_);
  }
  std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  std::uint64_t messages_sent() const noexcept { return messages_sent_; }
  std::uint64_t backlog_bytes() const {
    if (busy_until_ <= sim_.now()) return 0;
    return static_cast<std::uint64_t>((busy_until_ - sim_.now()).to_seconds() *
                                      p_.bandwidth_mibps * kMiB);
  }

 private:
  Simulator& sim_;
  net::LinkParams p_;
  TimePoint busy_until_{};
  TimePoint down_from_ = TimePoint::max();
  TimePoint down_until_{};
  double degrade_ = 1.0;
  Duration extra_{};
  double loss_ = 0.0;
  Rng rng_{};
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_sent_ = 0;
};

/// The coroutine MessageStream::send over the reference link and channel.
template <typename M>
class MessageStream {
 public:
  MessageStream(Simulator& sim, Link& link) : link_{link}, inbox_{sim} {}

  void set_send_observer(std::function<void(const M&)> fn) {
    send_observer_ = std::move(fn);
  }
  void set_drop_policy(std::function<bool(const M&)> fn) {
    drop_policy_ = std::move(fn);
  }

  Task<bool> send(M msg, net::TokenBucket* shaper = nullptr) {
    if (inbox_.closed()) co_return false;
    if (send_observer_) send_observer_(msg);
    co_await link_.transmit(msg.wire_bytes(), shaper);
    if (inbox_.closed()) co_return false;
    if (link_.lossy() && drop_policy_ && drop_policy_(msg) &&
        link_.roll_drop()) {
      ++dropped_;
      co_return true;
    }
    ++delivered_;
    inbox_.try_send(std::move(msg));
    co_return true;
  }

  Task<std::optional<M>> recv() { return inbox_.recv(); }
  void close() { inbox_.close(); }
  bool closed() const noexcept { return inbox_.closed(); }
  std::uint64_t delivered() const noexcept { return delivered_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  Link& link_;
  Channel<M> inbox_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::function<void(const M&)> send_observer_;
  std::function<bool(const M&)> drop_policy_;
};

}  // namespace ref

/// The code under test and the reference, as interchangeable kits.
struct Flat {
  template <typename T>
  using Channel = sim::Channel<T>;
  using Link = net::Link;
  template <typename M>
  using Stream = net::MessageStream<M>;
};
struct Reference {
  template <typename T>
  using Channel = ref::Channel<T>;
  using Link = ref::Link;
  template <typename M>
  using Stream = ref::MessageStream<M>;
};

// ------------------------------------------------------------------- logging

struct Log {
  explicit Log(Simulator& s) : sim{&s} {}
  void add(const std::string& label) {
    lines.push_back("t=" + std::to_string(sim->now().ns()) +
                    " ev=" + std::to_string(sim->events_processed()) + " " +
                    label);
  }
  Simulator* sim;
  std::vector<std::string> lines;
};

void expect_same(const std::vector<std::string>& flat,
                 const std::vector<std::string>& reference) {
  const std::size_t n = std::min(flat.size(), reference.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (flat[i] != reference[i]) {
      ADD_FAILURE() << "logs diverge at line " << i << ":\n  flat:      "
                    << flat[i] << "\n  reference: " << reference[i];
      return;
    }
  }
  EXPECT_EQ(flat.size(), reference.size())
      << "one log is a prefix of the other";
}

Duration micros(std::uint64_t us) {
  return Duration::micros(static_cast<std::int64_t>(us));
}

// ------------------------------------------------------------ channel script

/// Several producers and consumers over one channel. Pauses mix no wait, a
/// zero-delay yield and short delays, so waiters race for the same item;
/// some calls use try_send/try_recv. A closer may close the channel while
/// producers still send, and a victim frame that waits in send or recv is
/// destroyed mid-wait.
template <typename K>
struct ChannelWorld {
  using Chan = typename K::template Channel<std::uint64_t>;

  ChannelWorld(Simulator& sim, std::size_t capacity)
      : log{sim}, ch{sim, capacity} {}

  Log log;
  Chan ch;
  int producers_left = 0;
};

Task<void> pause(Simulator& sim, Rng& rng) {
  switch (rng.uniform_u64(3)) {
    case 0: co_return;
    case 1: co_await sim.delay(Duration::zero()); co_return;
    default: co_await sim.delay(micros(1 + rng.uniform_u64(40)));
  }
}

template <typename K>
Task<void> producer(Simulator& sim, ChannelWorld<K>& w, Rng rng, int id,
                    int items) {
  for (int i = 0; i < items; ++i) {
    co_await pause(sim, rng);
    const std::uint64_t v = static_cast<std::uint64_t>(id) * 1000 + i;
    if (rng.bernoulli(0.2)) {
      const bool ok = w.ch.try_send(v);
      w.log.add("p" + std::to_string(id) + " try_send " + std::to_string(v) +
                " ok=" + std::to_string(ok));
      continue;
    }
    const bool ok = co_await w.ch.send(v);
    w.log.add("p" + std::to_string(id) + " send " + std::to_string(v) +
              " ok=" + std::to_string(ok) + " size=" +
              std::to_string(w.ch.size()));
    if (!ok) break;
  }
  if (--w.producers_left == 0) {
    w.log.add("last producer closes");
    w.ch.close();
  }
}

template <typename K>
Task<void> consumer(Simulator& sim, ChannelWorld<K>& w, Rng rng, int id) {
  for (;;) {
    if (rng.bernoulli(0.15)) {
      co_await sim.delay(micros(1 + rng.uniform_u64(30)));
      const auto v = w.ch.try_recv();
      w.log.add("c" + std::to_string(id) + " try_recv " +
                (v ? std::to_string(*v) : std::string{"-"}));
      continue;
    }
    const auto v = co_await w.ch.recv();
    w.log.add("c" + std::to_string(id) + " recv " +
              (v ? std::to_string(*v) : std::string{"closed"}));
    if (!v) break;
    co_await pause(sim, rng);
  }
}

template <typename K>
Task<void> victim_recv(ChannelWorld<K>& w) {
  const auto v = co_await w.ch.recv();
  w.log.add("victim recv " + (v ? std::to_string(*v) : std::string{"closed"}));
}

template <typename K>
Task<void> victim_send(ChannelWorld<K>& w, std::uint64_t v) {
  const bool ok = co_await w.ch.send(v);
  w.log.add("victim send ok=" + std::to_string(ok));
}

/// Starts a victim frame it owns, then destroys it after a random wait —
/// while it is queued, woken but not yet resumed, or already finished.
template <typename K>
Task<void> killer(Simulator& sim, ChannelWorld<K>& w, Rng rng) {
  co_await sim.delay(micros(rng.uniform_u64(200)));
  Task<void> victim = rng.bernoulli(0.5) ? victim_recv<K>(w)
                                         : victim_send<K>(w, 999999);
  victim.start();
  w.log.add("victim started done=" + std::to_string(victim.done()));
  if (rng.bernoulli(0.3)) {
    co_await sim.delay(Duration::zero());
  } else {
    co_await sim.delay(micros(rng.uniform_u64(200)));
  }
  w.log.add("victim destroyed done=" + std::to_string(victim.done()) +
            " pending=" + std::to_string(sim.pending_count()));
  victim = Task<void>{};
  w.log.add("after destroy pending=" + std::to_string(sim.pending_count()));
}

template <typename K>
Task<void> closer(Simulator& sim, ChannelWorld<K>& w, Duration at) {
  co_await sim.delay(at);
  w.log.add("closer closes");
  w.ch.close();
}

template <typename K>
std::vector<std::string> channel_script(std::uint64_t seed,
                                        std::size_t capacity) {
  Simulator sim;
  ChannelWorld<K> w{sim, capacity};
  Rng rng{seed};
  const int producers = 1 + static_cast<int>(rng.uniform_u64(4));
  const int consumers = 1 + static_cast<int>(rng.uniform_u64(4));
  w.producers_left = producers;
  for (int p = 0; p < producers; ++p) {
    sim.spawn(producer<K>(sim, w, Rng{rng.next_u64()}, p,
                          5 + static_cast<int>(rng.uniform_u64(30))));
  }
  for (int c = 0; c < consumers; ++c) {
    sim.spawn(consumer<K>(sim, w, Rng{rng.next_u64()}, c));
  }
  if (rng.bernoulli(0.4)) {
    sim.spawn(closer<K>(sim, w, micros(rng.uniform_u64(600))));
  }
  if (rng.bernoulli(0.6)) sim.spawn(killer<K>(sim, w, Rng{rng.next_u64()}));
  sim.run();
  w.log.add("end pending=" + std::to_string(sim.pending_count()) +
            " size=" + std::to_string(w.ch.size()));
  return std::move(w.log.lines);
}

// ------------------------------------------------------------- stream script

struct Msg {
  Msg(std::uint32_t id, std::uint64_t bytes) : id{id}, bytes{bytes} {}
  std::uint64_t wire_bytes() const { return bytes; }
  std::uint32_t id;
  std::uint64_t bytes;
};

/// What a stream script turns on.
struct StreamScript {
  bool lossy = false;
  bool faults = false;   ///< outage, degradation and extra-latency windows
  bool shaped = false;   ///< some senders go through a rate-limiting shaper
  bool close_early = false;  ///< close one stream with messages in flight
  bool kill = false;     ///< destroy a sending frame mid-flight
};

/// Two streams share one link; senders interleave on them, each receiver
/// drains one stream. Observers and drop policies log when they run.
template <typename K>
struct StreamWorld {
  using Link = typename K::Link;
  using Stream = typename K::template Stream<Msg>;

  StreamWorld(Simulator& sim, net::LinkParams p, double shaper_mibps)
      : log{sim}, link{sim, p}, a{sim, link}, b{sim, link},
        shaper{sim, shaper_mibps, 0.25}, unlimited{sim, 0.0} {}

  Stream& stream(int i) { return i == 0 ? a : b; }
  std::string counters() const {
    return " link=" + std::to_string(link.messages_sent()) + "/" +
           std::to_string(link.bytes_sent()) + " a=" +
           std::to_string(a.delivered()) + "/" + std::to_string(a.dropped()) +
           " b=" + std::to_string(b.delivered()) + "/" +
           std::to_string(b.dropped());
  }

  Log log;
  Link link;
  Stream a;
  Stream b;
  net::TokenBucket shaper;
  net::TokenBucket unlimited;
  int senders_left = 0;
  bool broken = false;  ///< stop: a dead frame's timer is still armed
};

template <typename K>
Task<void> sender(Simulator& sim, StreamWorld<K>& w, Rng rng, int id, int msgs,
                  bool shaped) {
  for (int i = 0; i < msgs; ++i) {
    co_await pause(sim, rng);
    const int s = static_cast<int>(rng.uniform_u64(2));
    const auto bytes = 64 + rng.uniform_u64(256 * 1024);
    net::TokenBucket* tb = nullptr;
    if (shaped && rng.bernoulli(0.7)) tb = &w.shaper;
    if (!shaped && rng.bernoulli(0.3)) tb = &w.unlimited;
    const auto mid = static_cast<std::uint32_t>(id * 1000 + i);
    const bool ok = co_await w.stream(s).send(Msg{mid, bytes}, tb);
    w.log.add("s" + std::to_string(id) + " m" + std::to_string(mid) + " on " +
              std::to_string(s) + " ok=" + std::to_string(ok) + w.counters());
  }
  if (--w.senders_left == 0) {
    w.log.add("last sender closes");
    w.a.close();
    w.b.close();
  }
}

template <typename K>
Task<void> receiver(Simulator& sim, StreamWorld<K>& w, Rng rng, int s) {
  for (;;) {
    const auto m = co_await w.stream(s).recv();
    w.log.add("r" + std::to_string(s) + " " +
              (m ? "m" + std::to_string(m->id) : std::string{"closed"}) +
              w.counters());
    if (!m) break;
    co_await pause(sim, rng);
  }
}

template <typename K>
Task<void> victim_sender(StreamWorld<K>& w, int s, net::TokenBucket* tb) {
  const bool ok = co_await w.stream(s).send(Msg{777777, 4096}, tb);
  w.log.add("victim send ok=" + std::to_string(ok));
}

template <typename K>
Task<void> stream_killer(Simulator& sim, StreamWorld<K>& w, Rng rng,
                         bool shaped) {
  co_await sim.delay(micros(rng.uniform_u64(3000)));
  Task<void> victim = victim_sender<K>(w, static_cast<int>(rng.uniform_u64(2)),
                                       shaped ? &w.shaper : nullptr);
  victim.start();
  w.log.add("victim started done=" + std::to_string(victim.done()) +
            " pending=" + std::to_string(sim.pending_count()) + w.counters());
  co_await sim.delay(micros(rng.uniform_u64(2000)));
  const bool done = victim.done();
  const std::size_t pending = sim.pending_count();
  w.log.add("victim destroyed done=" + std::to_string(done) +
            " pending=" + std::to_string(pending));
  victim = Task<void>{};
  w.log.add("after destroy pending=" + std::to_string(sim.pending_count()));
  if (!done && sim.pending_count() >= pending) {
    // An unfinished send always has a timer armed (delivery or shaper);
    // left armed, it would resume the destroyed frame.
    ADD_FAILURE() << "destroying a sending frame left its timer armed";
    w.broken = true;
  }
}

template <typename K>
Task<void> fault_driver(Simulator& sim, StreamWorld<K>& w, Rng rng) {
  for (int i = 0; i < 12; ++i) {
    co_await sim.delay(micros(rng.uniform_u64(1500)));
    switch (rng.uniform_u64(3)) {
      case 0: {
        const auto from = sim.now() + micros(rng.uniform_u64(500));
        const auto len = micros(1 + rng.uniform_u64(2000));
        w.link.fail_at(from, len);
        w.log.add("outage");
        break;
      }
      case 1:
        w.link.set_degradation(
            rng.bernoulli(0.3) ? 1.0 : 0.05 + rng.uniform_double());
        w.log.add("degrade");
        break;
      default:
        w.link.set_extra_latency(rng.bernoulli(0.3)
                                     ? Duration::zero()
                                     : micros(rng.uniform_u64(800)));
        w.log.add("latency");
        break;
    }
  }
}

template <typename K>
Task<void> stream_closer(Simulator& sim, StreamWorld<K>& w, Duration at) {
  co_await sim.delay(at);
  w.log.add("closer closes b" + w.counters());
  w.b.close();
}

template <typename K>
std::vector<std::string> stream_script(std::uint64_t seed, StreamScript sc) {
  Simulator sim;
  Rng rng{seed};
  net::LinkParams p;
  p.bandwidth_mibps = 50.0 + rng.uniform_double() * 450.0;
  p.latency = micros(10 + rng.uniform_u64(400));
  StreamWorld<K> w{sim, p, 20.0 + rng.uniform_double() * 100.0};
  if (sc.lossy) {
    w.link.set_loss(0.1 + 0.4 * rng.uniform_double());
    w.link.seed_loss(rng.next_u64());
    // Only odd ids roll, as a protocol marks only datagram-like traffic.
    w.a.set_drop_policy([&w](const Msg& m) {
      w.log.add("policy a m" + std::to_string(m.id));
      return m.id % 2 == 1;
    });
    w.b.set_drop_policy([&w](const Msg& m) {
      w.log.add("policy b m" + std::to_string(m.id));
      return m.id % 2 == 1;
    });
  }
  w.a.set_send_observer([&w](const Msg& m) {
    w.log.add("observe a m" + std::to_string(m.id) + " backlog=" +
              std::to_string(w.link.backlog_bytes()) + w.counters());
  });
  const int senders = 1 + static_cast<int>(rng.uniform_u64(4));
  w.senders_left = senders;
  for (int s = 0; s < senders; ++s) {
    sim.spawn(sender<K>(sim, w, Rng{rng.next_u64()}, s,
                        3 + static_cast<int>(rng.uniform_u64(25)), sc.shaped));
  }
  sim.spawn(receiver<K>(sim, w, Rng{rng.next_u64()}, 0));
  sim.spawn(receiver<K>(sim, w, Rng{rng.next_u64()}, 1));
  if (sc.lossy || rng.bernoulli(0.5)) {
    // A second receiver on stream a races the first for each delivery.
    sim.spawn(receiver<K>(sim, w, Rng{rng.next_u64()}, 0));
  }
  if (sc.faults) sim.spawn(fault_driver<K>(sim, w, Rng{rng.next_u64()}));
  if (sc.close_early) {
    sim.spawn(stream_closer<K>(sim, w, micros(rng.uniform_u64(4000))));
  }
  if (sc.kill) {
    sim.spawn(stream_killer<K>(sim, w, Rng{rng.next_u64()}, sc.shaped));
  }
  while (!w.broken && sim.step()) {
  }
  w.log.add("end pending=" + std::to_string(sim.pending_count()) +
            w.counters());
  return std::move(w.log.lines);
}

// --------------------------------------------------------------------- tests

constexpr std::uint64_t kSeeds = 60;

TEST(MessagePathDiff, ChannelMatchesCoroutineReference) {
  constexpr std::size_t kUnbounded = sim::Channel<std::uint64_t>::kUnbounded;
  for (const std::size_t capacity :
       {std::size_t{1}, std::size_t{3}, kUnbounded}) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE(::testing::Message() << "capacity=" << capacity
                                        << " seed=" << seed);
      expect_same(channel_script<Flat>(seed, capacity),
                  channel_script<Reference>(seed, capacity));
    }
  }
}

void stream_sweep(StreamScript sc) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    expect_same(stream_script<Flat>(seed, sc),
                stream_script<Reference>(seed, sc));
  }
}

TEST(MessagePathDiff, StreamMatchesCoroutineReference) { stream_sweep({}); }

TEST(MessagePathDiff, LossyLinkWithDropPolicy) {
  stream_sweep({.lossy = true});
}

TEST(MessagePathDiff, OutageDegradationAndLatencyWindows) {
  stream_sweep({.faults = true});
}

TEST(MessagePathDiff, RateLimitedShaper) { stream_sweep({.shaped = true}); }

TEST(MessagePathDiff, CloseWhileMessagesInFlight) {
  stream_sweep({.lossy = true, .close_early = true});
}

TEST(MessagePathDiff, DestroySendingFrameMidFlight) {
  stream_sweep({.kill = true});
  stream_sweep({.shaped = true, .kill = true});
}

TEST(MessagePathDiff, EverythingAtOnce) {
  stream_sweep({.lossy = true,
                .faults = true,
                .shaped = true,
                .close_early = true,
                .kill = true});
}

}  // namespace
}  // namespace vmig
