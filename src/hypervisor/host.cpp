#include "hypervisor/host.hpp"

#include <stdexcept>

namespace vmig::hv {

Host::Host(sim::Simulator& sim, std::string name, storage::Geometry vbd_geometry,
           storage::DiskModelParams disk_params, bool store_payloads)
    : sim_{sim},
      name_{std::move(name)},
      store_payloads_{store_payloads},
      physical_{sim, storage::DiskModel{disk_params}},
      disk_{sim, vbd_geometry, physical_, store_payloads} {}

storage::VirtualDisk& Host::vbd_for(vm::DomainId domain) {
  if (disk_owner_ == domain) return disk_;
  DomainSlot& slot = by_domain_[domain];
  if (slot.vbd != nullptr) return *slot.vbd;
  // First domain claims the primary VBD; later ones get their own slice of
  // the physical disk.
  if (disk_owner_ == vm::kDomain0) {
    disk_owner_ = domain;
    slot.vbd = &disk_;
    return disk_;
  }
  extra_vbds_.push_back(std::make_unique<storage::VirtualDisk>(
      sim_, disk_.geometry(), physical_, store_payloads_));
  slot.vbd = extra_vbds_.back().get();
  return *slot.vbd;
}

const storage::VirtualDisk* Host::find_vbd(vm::DomainId domain) const {
  if (disk_owner_ == domain) return &disk_;
  const auto it = by_domain_.find(domain);
  return it != by_domain_.end() ? it->second.vbd : nullptr;
}

std::uint64_t Host::pages_materialized() const {
  std::uint64_t n = disk_.pages_materialized();
  for (const auto& vbd : extra_vbds_) n += vbd->pages_materialized();
  return n;
}

std::uint64_t Host::payload_entries() const {
  std::uint64_t n = disk_.payload_entries();
  for (const auto& vbd : extra_vbds_) n += vbd->payload_entries();
  for (const vm::Domain* d : domains_) n += d->memory().payload_entries();
  return n;
}

void Host::index_backend(vm::BlkBackend& be) {
  DomainSlot& slot = by_domain_[be.served_domain()];
  if (slot.backend == nullptr) slot.backend = &be;
}

vm::BlkBackend* Host::ensure_default_backend() {
  if (backends_.empty()) {
    backends_.push_back(
        std::make_unique<vm::BlkBackend>(sim_, disk_, vm::kDomain0));
    index_backend(*backends_.front());
  }
  return backends_.front().get();
}

const vm::BlkBackend* Host::find_backend(vm::DomainId domain) const {
  const auto it = by_domain_.find(domain);
  return it != by_domain_.end() ? it->second.backend : nullptr;
}

vm::BlkBackend& Host::backend_for(vm::DomainId domain) {
  if (auto* be = find_backend(domain)) return *be;
  storage::VirtualDisk& vbd = vbd_for(domain);
  // Claim an unassigned default backend if it is bound to this VBD;
  // otherwise create a fresh per-VBD backend.
  if (!backends_.empty() && backends_.front()->served_domain() == vm::kDomain0 &&
      &backends_.front()->disk() == &vbd) {
    vm::BlkBackend& def = *backends_.front();
    def.set_served(domain);
    // The default was the only backend serving Domain0; it now serves
    // `domain`, which had none (find_backend above missed).
    by_domain_[vm::kDomain0].backend = nullptr;
    by_domain_[domain].backend = &def;
    return def;
  }
  backends_.push_back(std::make_unique<vm::BlkBackend>(sim_, vbd, domain));
  index_backend(*backends_.back());
  return *backends_.back();
}

void Host::attach_domain(vm::Domain& d) {
  domains_.push_back(&d);
  hosted_.insert(&d);
  d.frontend().connect(&backend_for(d.id()));
}

void Host::detach_domain(vm::Domain& d) {
  std::erase(domains_, &d);
  hosted_.erase(&d);
  auto* be = find_backend(d.id());
  if (be != nullptr && d.frontend().backend() == be) d.frontend().disconnect();
}

bool Host::hosts_domain(const vm::Domain& d) const {
  return hosted_.contains(&d);
}

net::Link& Host::materialize_link(const Host& peer, net::LinkParams params) {
  auto& slot = links_[&peer];
  slot = std::make_unique<net::Link>(sim_, params);
  if (link_created_) link_created_(*slot, peer);
  return *slot;
}

net::Link& Host::connect_to(Host& peer, net::LinkParams params) {
  return materialize_link(peer, params);
}

net::Link& Host::link_to(const Host& peer) {
  const auto it = links_.find(&peer);
  if (it != links_.end()) return *it->second;
  if (mesh_oracle_ && mesh_oracle_(peer)) {
    return materialize_link(peer, mesh_params_);
  }
  throw std::out_of_range("Host '" + name_ + "' has no link to '" +
                          peer.name() + "'");
}

bool Host::connected_to(const Host& peer) const {
  if (links_.contains(&peer)) return true;
  return mesh_oracle_ && &peer != this && mesh_oracle_(peer);
}

void Host::interconnect(Host& a, Host& b, net::LinkParams params) {
  a.connect_to(b, params);
  b.connect_to(a, params);
}

}  // namespace vmig::hv
