#include "obs/rollup.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace vmig::obs {

Rollup::Rollup(sim::Simulator& sim, RollupConfig cfg)
    : sim_{sim}, cfg_{cfg} {
  if (cfg_.hosts_per_rack == 0) {
    throw std::invalid_argument{"rollup: hosts_per_rack must be positive"};
  }
  if (cfg_.sample_interval.ns() <= 0) {
    throw std::invalid_argument{"rollup: sample interval must be positive"};
  }
  cells_.resize(cfg_.hosts);
  racks_ = (cfg_.hosts + cfg_.hosts_per_rack - 1) / cfg_.hosts_per_rack;
  host_of_.reserve(cfg_.hosts);
}

void Rollup::register_host(const void* host, std::uint32_t index) {
  if (index >= cells_.size()) {
    throw std::out_of_range{"rollup: host index beyond configured fleet"};
  }
  host_of_[host] = index;
}

Rollup::HostCell* Rollup::cell(const void* host) {
  const auto it = host_of_.find(host);
  return it == host_of_.end() ? nullptr : &cells_[it->second];
}

void Rollup::job_submitted() { ++submitted_; }

void Rollup::attempt_started(const void* src, const void* dst) {
  ++running_;
  if (HostCell* c = cell(src)) ++c->in_flight;
  if (HostCell* c = cell(dst)) ++c->in_flight;
}

void Rollup::attempt_finished(const void* src, const void* dst) {
  --running_;
  if (HostCell* c = cell(src)) --c->in_flight;
  if (HostCell* c = cell(dst)) --c->in_flight;
}

void Rollup::job_retry(const void* src) {
  ++retries_;
  if (HostCell* c = cell(src)) ++c->retries;
}

void Rollup::deferral() { ++deferrals_; }

void Rollup::job_terminal(const void* src, const void* dst,
                          const RollupJobClose& close) {
  if (close.completed) {
    ++completed_;
  } else {
    ++failed_;
  }
  if (HostCell* c = cell(src)) {
    if (close.completed) {
      ++c->completed;
    } else {
      ++c->failed;
    }
    if (close.slo_miss) ++c->slo_miss;
    c->bytes_out += close.bytes;
    c->downtime_ns += close.downtime_ns;
    c->dirty_blocks += close.dirty_blocks;
  }
  if (HostCell* c = cell(dst)) c->bytes_in += close.bytes;
}

template <typename ValueFn>
std::vector<Rollup::HotRow> Rollup::top_k_by(ValueFn value) const {
  std::vector<HotRow> rows;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const std::uint64_t v = value(cells_[i]);
    if (v > 0) rows.push_back({static_cast<std::uint32_t>(i), v});
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const HotRow& a, const HotRow& b) {
                     if (a.value != b.value) return a.value > b.value;
                     return a.host < b.host;
                   });
  if (rows.size() > cfg_.top_k) rows.resize(cfg_.top_k);
  return rows;
}

void Rollup::sample_now() {
  Snapshot s;
  s.t_ns = sim_.now().ns();
  s.submitted = submitted_;
  s.running = running_;
  s.completed = completed_;
  s.failed = failed_;
  s.retries = retries_;
  s.deferrals = deferrals_;
  s.pending_events = sim_.pending_count();
  s.calendar_queued = sim_.calendar_queued();
  s.events_processed = sim_.events_processed();
  s.ff_settles = sim_.ff_settles();

  // host -> rack fold; the fleet totals for attributed metrics come from
  // the same pass, so fleet rows always equal the column sums of the rack
  // rows (a reconciliation `vmig_top` readers can check by eye).
  std::vector<RackRow> racks(racks_);
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const HostCell& c = cells_[i];
    RackRow& r = racks[i / cfg_.hosts_per_rack];
    r.bytes_out += c.bytes_out;
    r.bytes_in += c.bytes_in;
    r.dirty_blocks += c.dirty_blocks;
    r.jobs_completed += c.completed;
    r.jobs_failed += c.failed;
    r.slo_miss += c.slo_miss;
    r.in_flight += c.in_flight;
    s.slo_miss += c.slo_miss;
    s.bytes_total += c.bytes_out;
    s.downtime_ns_total += c.downtime_ns;
    s.dirty_blocks_total += c.dirty_blocks;
  }
  for (std::size_t r = 0; r < racks.size(); ++r) {
    RackRow& row = racks[r];
    const bool active = row.bytes_out != 0 || row.bytes_in != 0 ||
                        row.dirty_blocks != 0 || row.jobs_completed != 0 ||
                        row.jobs_failed != 0 || row.slo_miss != 0 ||
                        row.in_flight != 0;
    if (!active) continue;
    row.rack = static_cast<std::uint32_t>(r);
    s.racks.push_back(row);
  }

  s.hot_dirty = top_k_by([](const HostCell& c) { return c.dirty_blocks; });
  s.hot_bytes =
      top_k_by([](const HostCell& c) { return c.bytes_out + c.bytes_in; });
  s.hot_slo = top_k_by(
      [](const HostCell& c) { return static_cast<std::uint64_t>(c.slo_miss); });

  snaps_.push_back(std::move(s));
}

void Rollup::tick() {
  sim_.note_observer_tick_fired();
  sample_now();
  // Park when nothing but observer ticks is pending, exactly like the
  // Registry sampler: re-arming unconditionally would keep Simulator::run
  // spinning forever, and a plain has_pending() test would count a
  // co-attached Registry's tick as work (and vice versa), so the two
  // samplers would keep each other alive forever.
  if (sim_.pending_count() > sim_.observer_ticks()) {
    sim_.note_observer_tick_armed();
    sim_.schedule_after(cfg_.sample_interval, [this] { tick(); });
  } else {
    sampling_ = false;
  }
}

void Rollup::start_sampling() {
  if (sampling_) return;
  sampling_ = true;
  sample_now();
  sim_.note_observer_tick_armed();
  sim_.schedule_after(cfg_.sample_interval, [this] { tick(); });
}

namespace {

/// "<stamp><metric>,<value>\n" with the value printed as an exact integer.
void row_u(std::ostream& out, const char* stamp, const std::string& metric,
           std::uint64_t v) {
  out << stamp << metric << ',' << v << '\n';
}

void row_i(std::ostream& out, const char* stamp, const std::string& metric,
           std::int64_t v) {
  out << stamp << metric << ',' << v << '\n';
}

}  // namespace

void Rollup::write_csv(std::ostream& out) const {
  out << "t_seconds,metric,value\n";
  char stamp[32];
  for (const Snapshot& s : snaps_) {
    std::snprintf(stamp, sizeof stamp, "%.6f,",
                  static_cast<double>(s.t_ns) / 1e9);
    row_u(out, stamp, "fleet.jobs_submitted", s.submitted);
    row_u(out, stamp, "fleet.jobs_running", s.running);
    row_u(out, stamp, "fleet.jobs_completed", s.completed);
    row_u(out, stamp, "fleet.jobs_failed", s.failed);
    row_u(out, stamp, "fleet.jobs_pending",
          s.submitted - s.running - s.completed - s.failed);
    row_u(out, stamp, "fleet.retries", s.retries);
    row_u(out, stamp, "fleet.deferrals", s.deferrals);
    row_u(out, stamp, "fleet.slo_miss", s.slo_miss);
    row_u(out, stamp, "fleet.bytes_total", s.bytes_total);
    row_i(out, stamp, "fleet.downtime_ns_total", s.downtime_ns_total);
    row_u(out, stamp, "fleet.dirty_blocks_total", s.dirty_blocks_total);
    row_u(out, stamp, "sched.pending_events", s.pending_events);
    row_u(out, stamp, "sched.events_processed", s.events_processed);
    row_u(out, stamp, "sched.ff_settles", s.ff_settles);
    for (const RackRow& r : s.racks) {
      const std::string p = "rack" + std::to_string(r.rack);
      row_u(out, stamp, p + ".bytes_out", r.bytes_out);
      row_u(out, stamp, p + ".bytes_in", r.bytes_in);
      row_u(out, stamp, p + ".dirty_blocks", r.dirty_blocks);
      row_u(out, stamp, p + ".jobs_completed", r.jobs_completed);
      row_u(out, stamp, p + ".jobs_failed", r.jobs_failed);
      row_u(out, stamp, p + ".slo_miss", r.slo_miss);
      row_i(out, stamp, p + ".in_flight", r.in_flight);
    }
    const struct {
      const char* prefix;
      const char* metric;
      const std::vector<HotRow>* rows;
    } hot_tables[] = {
        {"hot_dirty", "blocks", &s.hot_dirty},
        {"hot_bytes", "bytes", &s.hot_bytes},
        {"hot_slo", "miss", &s.hot_slo},
    };
    for (const auto& t : hot_tables) {
      for (std::size_t k = 0; k < t.rows->size(); ++k) {
        const HotRow& h = (*t.rows)[k];
        const std::string p = std::string{t.prefix} + std::to_string(k + 1);
        row_u(out, stamp, p + ".host", h.host);
        row_u(out, stamp, p + "." + t.metric, h.value);
      }
    }
    // The calendar's rows keep the names they had when the simulator could
    // split its calendar into shards: live timers, agenda + ring entries,
    // and a head lag that one calendar always reported as 0.
    row_u(out, stamp, "shard0.live", s.pending_events);
    row_u(out, stamp, "shard0.queued", s.calendar_queued);
    row_i(out, stamp, "shard0.head_lag_ns", 0);
  }
}

std::string Rollup::to_csv() const {
  std::ostringstream os;
  write_csv(os);
  return os.str();
}

}  // namespace vmig::obs
