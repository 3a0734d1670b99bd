#include "scenario/cluster_testbed.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/rollup.hpp"

namespace vmig::scenario {

ClusterTestbed::ClusterTestbed(sim::Simulator& sim, ClusterTestbedConfig cfg)
    : sim_{sim}, cfg_{cfg}, manager_{sim} {
  if (cfg_.hosts < 2) {
    throw std::invalid_argument{"cluster testbed needs at least 2 hosts"};
  }
  host_slots_.resize(static_cast<std::size_t>(cfg_.hosts));
  vms_per_host_.assign(static_cast<std::size_t>(cfg_.hosts), 0);
  if (!cfg_.lazy) {
    for (std::size_t i = 0; i < host_slots_.size(); ++i) materialize_host(i);
    for (std::size_t a = 0; a < host_slots_.size(); ++a) {
      for (std::size_t b = a + 1; b < host_slots_.size(); ++b) {
        hv::Host::interconnect(*host_slots_[a], *host_slots_[b], cfg_.lan);
      }
    }
  }
}

hv::Host& ClusterTestbed::materialize_host(std::size_t i) {
  auto& slot = host_slots_.at(i);
  if (slot != nullptr) return *slot;
  slot = std::make_unique<hv::Host>(
      sim_, "host" + std::to_string(i),
      storage::Geometry::from_mib(cfg_.vbd_mib), cfg_.disk, cfg_.payloads);
  hv::Host* hp = slot.get();
  // Every materialized testbed host is connected to every other: admission
  // is membership in the reverse index, so the semantic mesh is full while
  // only the links actually traversed are materialized.
  hp->set_lazy_mesh(
      [this, hp](const hv::Host& peer) {
        return &peer != hp && host_index_.contains(&peer);
      },
      cfg_.lan);
  hp->set_link_created_hook([this, hp](net::Link& l, const hv::Host& peer) {
    if (registry_ != nullptr) {
      l.attach_obs(*registry_, "net." + hp->name() + "->" + peer.name());
    }
  });
  host_index_.emplace(hp, i);
  if (rollup_ != nullptr) {
    rollup_->register_host(hp, static_cast<std::uint32_t>(i));
  }
  ++materialized_hosts_;
  return *hp;
}

hv::Host& ClusterTestbed::host(std::size_t i) { return materialize_host(i); }

std::vector<hv::Host*> ClusterTestbed::hosts_except(std::size_t i) {
  std::vector<hv::Host*> out;
  out.reserve(host_slots_.size() - 1);
  for (std::size_t h = 0; h < host_slots_.size(); ++h) {
    if (h != i) out.push_back(&materialize_host(h));
  }
  return out;
}

std::vector<hv::Host*> ClusterTestbed::pick_destinations(std::size_t from,
                                                         std::size_t count) {
  std::vector<std::size_t> order(host_slots_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::erase(order, from);
  // Registered load, not materialized load: cold placeholders count, so
  // placement matches what an eager run with the same registrations picks.
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     if (vms_per_host_[a] != vms_per_host_[b]) {
                       return vms_per_host_[a] < vms_per_host_[b];
                     }
                     return a < b;
                   });
  if (order.size() > count) order.resize(count);
  std::vector<hv::Host*> out;
  out.reserve(order.size());
  for (std::size_t h : order) out.push_back(&materialize_host(h));
  return out;
}

std::size_t ClusterTestbed::register_vm(const std::string& name,
                                        std::size_t host_index) {
  ++vms_per_host_.at(host_index);
  const auto id = static_cast<vm::DomainId>(vm_records_.size() + 1);
  vm_records_.push_back(VmRecord{id, name, host_index});
  vm_slots_.emplace_back(nullptr);
  return vm_records_.size() - 1;
}

vm::Domain& ClusterTestbed::materialize_vm(std::size_t i) {
  auto& slot = vm_slots_.at(i);
  if (slot != nullptr) return *slot;
  const VmRecord& rec = vm_records_[i];
  hv::Host& h = materialize_host(rec.host_index);
  slot = std::make_unique<vm::Domain>(sim_, rec.id, rec.name,
                                      cfg_.guest_mem_mib);
  h.attach_domain(*slot);
  ++materialized_vms_;
  if (prefill_) prefill_domain(h, *slot);
  return *slot;
}

vm::Domain& ClusterTestbed::vm(std::size_t i) { return materialize_vm(i); }

vm::Domain& ClusterTestbed::add_vm(const std::string& name,
                                   std::size_t host_index) {
  return materialize_vm(register_vm(name, host_index));
}

void ClusterTestbed::prefill_domain(hv::Host& h, vm::Domain& d) {
  auto& disk = h.vbd_for(d.id());
  const std::uint64_t n = disk.geometry().block_count;
  // Per-domain token base keeps disks distinguishable for integrity checks
  // after several guests land on one host; tokens depend only on (id, block),
  // so lazy and eager materialization stamp identical content.
  const std::uint64_t base =
      0x5000000000000000ull + (static_cast<std::uint64_t>(d.id()) << 32);
  disk.poke_affine({0, static_cast<std::uint32_t>(n)}, base);
}

void ClusterTestbed::prefill_disks() {
  prefill_ = true;
  for (std::size_t i = 0; i < vm_slots_.size(); ++i) {
    if (vm_slots_[i] == nullptr) continue;
    prefill_domain(materialize_host(vm_records_[i].host_index), *vm_slots_[i]);
  }
}

core::MigrationConfig ClusterTestbed::paper_migration_config() const {
  return core::MigrationConfig::build()
      .blkd_cpu_per_mib(sim::Duration::micros(7900))
      .disk_iterations(4, 256)
      .bitmap(core::BitmapKind::kFlat)
      .overheads(sim::Duration::millis(20), sim::Duration::millis(30))
      .done();
}

void ClusterTestbed::attach_obs(obs::Registry* registry) {
  registry_ = registry;
  if (registry == nullptr) return;
  obs::Registry& reg = *registry;
  reg.probe("sim.pending_events",
            [this] { return static_cast<double>(sim_.pending_count()); });
  reg.probe("sim.events_processed",
            [this] { return static_cast<double>(sim_.events_processed()); });
  reg.probe("sim.live_roots",
            [this] { return static_cast<double>(sim_.live_root_count()); });
  // Links that already exist attach now; links materialized later attach
  // through the link_created hook at creation time.
  for (const auto& a : host_slots_) {
    if (a == nullptr) continue;
    for (const auto& b : host_slots_) {
      if (b == nullptr || a == b) continue;
      if (net::Link* l = a->find_link(*b)) {
        l->attach_obs(reg, "net." + a->name() + "->" + b->name());
      }
    }
  }
}

void ClusterTestbed::attach_rollup(obs::Rollup* rollup) {
  rollup_ = rollup;
  if (rollup == nullptr) return;
  // Slot order (== testbed index), not host_index_ iteration order: the
  // reverse index is unordered, and registration must not depend on it.
  for (std::size_t i = 0; i < host_slots_.size(); ++i) {
    if (host_slots_[i] != nullptr) {
      rollup->register_host(host_slots_[i].get(),
                            static_cast<std::uint32_t>(i));
    }
  }
}

}  // namespace vmig::scenario
