#pragma once

#include <cstddef>
#include <functional>
#include <unordered_map>
#include <utility>

#include "hypervisor/host.hpp"

namespace vmig::cluster {

/// Concurrency caps the admission controller enforces. A migration occupies
/// one slot at its source host, one at its destination host, and one on the
/// directed (source, destination) link for its whole duration. Any cap set
/// to zero or negative means unlimited.
///
/// The defaults are deliberately conservative: concurrent pre-copy streams
/// out of one host share its physical disk and NIC, so each stream's
/// transfer rate drops while the guests' dirty rates do not — push
/// per-source parallelism too high and every stream hits the dirty-rate
/// abort instead of converging (the self-destruction the paper's §IV-B
/// proactive stop detects).
struct AdmissionCaps {
  int per_source = 1;  ///< concurrent migrations out of one host
  int per_dest = 2;    ///< concurrent migrations into one host
  int per_link = 1;    ///< concurrent migrations on one directed link
  int total = 8;       ///< concurrent migrations cluster-wide
};

/// Slot accounting for in-flight migrations, keyed by host identity. The
/// counters are hash maps that are only ever looked up, never iterated, so
/// their order cannot reach an output. Purely synchronous bookkeeping — the
/// orchestrator decides when to re-test admissibility.
class AdmissionControl {
 public:
  explicit AdmissionControl(AdmissionCaps caps = {}) : caps_{caps} {}

  /// Would launching (from -> to) respect every cap right now?
  bool admissible(const hv::Host& from, const hv::Host& to) const;
  /// Do the total and per-source caps leave room for one more launch out
  /// of `from`? (admissible() additionally checks the destination and link.)
  bool source_open(const hv::Host& from) const;
  /// Occupy the slots for (from -> to). Caller must have checked
  /// admissible() — acquire does not re-verify.
  void acquire(const hv::Host& from, const hv::Host& to);
  /// Release the slots taken by acquire().
  void release(const hv::Host& from, const hv::Host& to);

  int inflight() const noexcept { return total_; }
  int inflight_from(const hv::Host& h) const { return lookup(by_source_, &h); }
  int inflight_to(const hv::Host& h) const { return lookup(by_dest_, &h); }
  const AdmissionCaps& caps() const noexcept { return caps_; }

 private:
  using Link = std::pair<const hv::Host*, const hv::Host*>;
  struct LinkHash {
    std::size_t operator()(const Link& l) const noexcept {
      const std::size_t a = std::hash<const hv::Host*>{}(l.first);
      return a ^ (std::hash<const hv::Host*>{}(l.second) + 0x9e3779b97f4a7c15ull +
                  (a << 6) + (a >> 2));
    }
  };
  template <typename Map, typename Key>
  static int lookup(const Map& m, const Key& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0 : it->second;
  }

  AdmissionCaps caps_;
  int total_ = 0;
  std::unordered_map<const hv::Host*, int> by_source_;
  std::unordered_map<const hv::Host*, int> by_dest_;
  std::unordered_map<Link, int, LinkHash> by_link_;
};

}  // namespace vmig::cluster
