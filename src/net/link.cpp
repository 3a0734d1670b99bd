#include "net/link.hpp"

#include "obs/metrics.hpp"

namespace vmig::net {

namespace {
constexpr double kMiB = 1024.0 * 1024.0;
}

sim::Task<void> TokenBucket::acquire(std::uint64_t bytes) {
  if (unlimited()) co_return;
  const double rate_bps = rate_mibps_ * kMiB;
  const auto cost = sim::Duration::from_seconds(static_cast<double>(bytes) / rate_bps);
  const auto burst_window =
      sim::Duration::from_seconds(burst_mib_ * kMiB / rate_bps);
  // Virtual-clock shaping: reserved_until_ tracks when all conforming bytes
  // so far would finish at the shaped rate. Idle time earns credit up to one
  // burst window, and a sender may run up to one burst window ahead.
  const sim::TimePoint floor = sim_.now() - burst_window;
  if (reserved_until_ < floor) reserved_until_ = floor;
  reserved_until_ += cost;
  const sim::TimePoint release = reserved_until_ - burst_window;
  if (release > sim_.now()) {
    co_await sim_.delay(release - sim_.now());
  }
}

sim::TimePoint Link::reserve(std::uint64_t bytes) {
  const sim::TimePoint arrival = sim_.now();
  const auto serialize = sim::Duration::from_seconds(
      static_cast<double>(bytes) / (p_.bandwidth_mibps * degrade_factor_ * kMiB));
  sim::TimePoint start = std::max(arrival, busy_until_);
  // An injected outage stalls the wire: nothing serializes inside the
  // window. Queued transmissions are retransmitted when it lifts rather
  // than lost (the MessageStream above models a reliable transport).
  if (start >= down_from_ && start < down_until_) start = down_until_;
  busy_until_ = start + serialize;
  busy_time_ += serialize;
  bytes_sent_ += bytes;
  ++messages_sent_;
  if (obs_bytes_ != nullptr) obs_bytes_->add(static_cast<double>(bytes));
  if (obs_msgs_ != nullptr) obs_msgs_->add(1.0);
  return busy_until_ + p_.latency + extra_latency_;
}

sim::Task<void> Link::transmit(std::uint64_t bytes, TokenBucket* shaper) {
  if (shaper != nullptr) co_await shaper->acquire(bytes);
  co_await sim_.delay(reserve(bytes) - sim_.now());
}

double Link::utilization() const {
  const auto elapsed = sim_.now() - sim::TimePoint::origin();
  if (elapsed <= sim::Duration::zero()) return 0.0;
  return std::min(1.0, busy_time_ / elapsed);
}

std::uint64_t Link::backlog_bytes() const {
  const sim::TimePoint now = sim_.now();
  if (busy_until_ <= now) return 0;
  return static_cast<std::uint64_t>((busy_until_ - now).to_seconds() *
                                    p_.bandwidth_mibps * kMiB);
}

void Link::attach_obs(obs::Registry& registry, const std::string& prefix) {
  obs_bytes_ = &registry.counter(prefix + ".bytes");
  obs_msgs_ = &registry.counter(prefix + ".messages");
  registry.probe(prefix + ".utilization", [this] { return utilization(); });
  registry.probe(prefix + ".backlog_bytes", [this] {
    return static_cast<double>(backlog_bytes());
  });
}

}  // namespace vmig::net
