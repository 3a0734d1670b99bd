#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"
#include "simcore/stats.hpp"
#include "simcore/task.hpp"

namespace vmig::obs {
class Counter;
class Registry;
}  // namespace vmig::obs

namespace vmig::net {

/// One direction of a network path (full-duplex = two links).
///
/// Defaults model the paper's Gigabit LAN: ~119 MiB/s of payload bandwidth
/// and sub-millisecond latency.
struct LinkParams {
  double bandwidth_mibps = 119.0;          ///< payload bandwidth, MiB/s
  sim::Duration latency = sim::Duration::micros(200);  ///< propagation + stack
};

/// Token-bucket traffic shaper (virtual-clock pacing).
///
/// Used to rate-limit the migration stream (paper §VI-C-3): limiting network
/// send rate correspondingly throttles the disk reads feeding it, giving the
/// guest its disk bandwidth back at the cost of a longer pre-copy.
class TokenBucket {
 public:
  /// rate_mibps <= 0 means unlimited.
  TokenBucket(sim::Simulator& sim, double rate_mibps, double burst_mib = 1.0)
      : sim_{sim}, rate_mibps_{rate_mibps}, burst_mib_{burst_mib} {}

  bool unlimited() const noexcept { return rate_mibps_ <= 0; }
  double rate_mibps() const noexcept { return rate_mibps_; }
  void set_rate_mibps(double r) noexcept { rate_mibps_ = r; }

  /// Wait until `bytes` conform to the shaping rate.
  sim::Task<void> acquire(std::uint64_t bytes);

 private:
  sim::Simulator& sim_;
  double rate_mibps_;
  double burst_mib_;
  sim::TimePoint reserved_until_{};
};

/// FIFO serializing link: transmissions queue behind each other at the
/// bandwidth, then arrive after the propagation latency.
class Link {
 public:
  Link(sim::Simulator& sim, LinkParams params = {}) : sim_{sim}, p_{params} {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  const LinkParams& params() const noexcept { return p_; }

  /// Put `bytes` on the wire now and return the instant its last byte
  /// arrives at the far end: the serialize time at the current degradation,
  /// queued behind earlier transmissions and past any outage window, plus
  /// the latency. Counts the busy time, bytes and message. Schedules
  /// nothing; the caller arms its own delivery timer.
  sim::TimePoint reserve(std::uint64_t bytes);

  /// Transmit `bytes`; resumes the caller when the last byte has arrived at
  /// the far end. If `shaper` is non-null, bytes first conform to it.
  sim::Task<void> transmit(std::uint64_t bytes, TokenBucket* shaper = nullptr);

  // ---- Failure injection ----
  /// Declare the link down for `d` starting now. Transmissions submitted (or
  /// queued) during the outage are NOT lost — the transport retransmits, so
  /// they serialize after the outage ends — but `down()` lets cooperating
  /// protocols (the TPM pre-copy loop, the cluster orchestrator) notice the
  /// outage at a chunk boundary and abort cleanly instead of stalling.
  void fail_for(sim::Duration d) { fail_at(sim_.now(), d); }
  /// Declare an outage window [at, at+d). A later call replaces the window.
  void fail_at(sim::TimePoint at, sim::Duration d) {
    down_from_ = at;
    down_until_ = at + d;
    ++outages_injected_;
  }
  /// True while inside an injected outage window.
  bool down() const noexcept {
    return sim_.now() >= down_from_ && sim_.now() < down_until_;
  }
  /// True if an outage window overlaps [since, now] — a connection-oriented
  /// transport opened at `since` would have seen its connection break, even
  /// if the link is back up by the time anyone checks.
  bool disrupted_since(sim::TimePoint since) const noexcept {
    return down_from_ <= sim_.now() && down_until_ > since;
  }
  std::uint64_t outages_injected() const noexcept { return outages_injected_; }

  // ---- Degradation injection (src/fault drives these) ----
  /// Scale the effective bandwidth by `factor` (clamped to a small positive
  /// floor); 1.0 restores nominal. Applies to transmissions that *start*
  /// while the factor is set — the serialize time is computed at wire entry,
  /// as a path's ABR would be.
  void set_degradation(double factor) {
    degrade_factor_ = std::max(factor, 1e-6);
  }
  double degradation() const noexcept { return degrade_factor_; }
  /// Extra one-way latency added on top of the configured propagation delay
  /// (congestion / reroute modeling); zero restores nominal.
  void set_extra_latency(sim::Duration d) { extra_latency_ = d; }
  sim::Duration extra_latency() const noexcept { return extra_latency_; }

  // ---- Message-loss injection ----
  /// Probability in [0,1] that a drop-eligible message is lost after paying
  /// its wire cost. Only messages a MessageStream's drop policy marks
  /// eligible ever roll — the streams stay reliable-by-default, modeling a
  /// lossy datagram path only where a protocol opts in (post-copy data).
  void set_loss(double p) { loss_prob_ = std::clamp(p, 0.0, 1.0); }
  double loss_probability() const noexcept { return loss_prob_; }
  bool lossy() const noexcept { return loss_prob_ > 0.0; }
  /// Reseed the loss RNG; each armed link gets an independent stream.
  void seed_loss(std::uint64_t seed) { loss_rng_.reseed(seed); }
  /// Roll one loss decision (advances the seeded RNG). Callers must only
  /// roll for drop-eligible messages so ineligible traffic does not perturb
  /// the stream.
  bool roll_drop() {
    if (!lossy()) return false;
    ++loss_rolls_;
    if (!loss_rng_.bernoulli(loss_prob_)) return false;
    ++messages_dropped_;
    return true;
  }
  std::uint64_t messages_dropped() const noexcept { return messages_dropped_; }
  std::uint64_t loss_rolls() const noexcept { return loss_rolls_; }

  std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  std::uint64_t messages_sent() const noexcept { return messages_sent_; }
  sim::Duration busy_time() const noexcept { return busy_time_; }
  double utilization() const;
  /// Bytes queued or serializing right now (accepted but not yet on the
  /// wire's far end) — the in-flight backlog the obs gauge reports.
  std::uint64_t backlog_bytes() const;

  /// Register this link's instruments under `prefix` ("net.source_to_dest"):
  /// a bytes counter, a messages counter, and utilization/backlog probes.
  /// The link must outlive the registry's sampling.
  void attach_obs(obs::Registry& registry, const std::string& prefix);

 private:
  sim::Simulator& sim_;
  LinkParams p_;
  sim::TimePoint busy_until_{};
  sim::TimePoint down_from_ = sim::TimePoint::max();  ///< outage window start
  sim::TimePoint down_until_{};                       ///< outage window end
  std::uint64_t outages_injected_ = 0;
  double degrade_factor_ = 1.0;        ///< bandwidth multiplier (fault model)
  sim::Duration extra_latency_{};      ///< added propagation (fault model)
  double loss_prob_ = 0.0;             ///< drop-eligible message loss prob
  sim::Rng loss_rng_{};                ///< seeded per-link loss stream
  std::uint64_t loss_rolls_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_sent_ = 0;
  sim::Duration busy_time_{};
  obs::Counter* obs_bytes_ = nullptr;  ///< null = observability disabled
  obs::Counter* obs_msgs_ = nullptr;
};

}  // namespace vmig::net
