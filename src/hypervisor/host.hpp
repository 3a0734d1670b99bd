#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "simcore/simulator.hpp"
#include "storage/virtual_disk.hpp"
#include "vm/blk_backend.hpp"
#include "vm/domain.hpp"

namespace vmig::hv {

/// A physical machine: local disk, the Domain0 block backend serving the
/// guest's VBD, resident domains, and NICs (directed links to peers).
///
/// Matches the paper's testbed shape: each host runs Domain0 plus at most a
/// handful of DomainUs whose VBDs live on the host's local SATA disk.
class Host {
 public:
  Host(sim::Simulator& sim, std::string name, storage::Geometry vbd_geometry,
       storage::DiskModelParams disk_params = {}, bool store_payloads = false);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  const std::string& name() const noexcept { return name_; }
  sim::Simulator& sim() noexcept { return sim_; }

  /// The host's primary VBD (first domain's virtual disk). Additional
  /// DomUs get their own VBDs — see vbd_for() — all sharing this host's
  /// one physical disk, so they contend for its time but have independent
  /// block spaces (as Xen VBD files on one spindle do).
  storage::VirtualDisk& disk() noexcept { return disk_; }
  const storage::VirtualDisk& disk() const noexcept { return disk_; }

  /// The VBD backing `domain`'s storage on this host. Created lazily with
  /// the host's geometry; persists across detach/attach (the IM base image
  /// and tracking bitmap live exactly as long as the VBD does).
  storage::VirtualDisk& vbd_for(vm::DomainId domain);
  /// The VBD backing `domain` if this host has one; null otherwise. Never
  /// creates — the lookup for observers that must not change placement.
  const storage::VirtualDisk* find_vbd(vm::DomainId domain) const;
  /// Token pages materialized across all of this host's VBDs.
  std::uint64_t pages_materialized() const;
  /// Payload entries copied into migration messages out of this host's
  /// VBDs and out of the memory of the domains it now hosts (a domain's
  /// count moves with it, so a sum over hosts counts each domain once).
  std::uint64_t payload_entries() const;

  /// The host's primary block backend (first VBD). Hosts serving several
  /// DomUs have one backend per domain — see backend_for().
  vm::BlkBackend& backend() noexcept { return *ensure_default_backend(); }
  const vm::BlkBackend& backend() const noexcept {
    return *const_cast<Host*>(this)->ensure_default_backend();
  }

  /// The backend serving `domain` (per-VBD split driver instance). The
  /// backend persists across detach/attach cycles, which is what keeps the
  /// IM tracking bitmap alive while the VM is away. Creates one on demand.
  vm::BlkBackend& backend_for(vm::DomainId domain);
  /// Null if this host never served `domain`. Never creates.
  vm::BlkBackend* find_backend(vm::DomainId domain) {
    return const_cast<vm::BlkBackend*>(std::as_const(*this).find_backend(domain));
  }
  const vm::BlkBackend* find_backend(vm::DomainId domain) const;

  // ---- Domain placement ----

  /// Place a domain on this host and connect its disk frontend to the local
  /// backend. (At migration resume time, this is the frontend rebind.)
  void attach_domain(vm::Domain& d);
  void detach_domain(vm::Domain& d);
  bool hosts_domain(const vm::Domain& d) const;
  const std::vector<vm::Domain*>& domains() const noexcept { return domains_; }

  // ---- Networking ----

  /// Create the directed link this -> peer.
  net::Link& connect_to(Host& peer, net::LinkParams params = {});
  /// Directed link to peer. Materializes the link from the lazy mesh if an
  /// oracle admits the peer; throws std::out_of_range otherwise.
  net::Link& link_to(const Host& peer);
  bool connected_to(const Host& peer) const;
  /// The directed link to `peer` if it has been materialized; null otherwise.
  /// Never materializes — the lazy-safe query for sweeps like obs attach.
  net::Link* find_link(const Host& peer) const {
    const auto it = links_.find(&peer);
    return it != links_.end() ? it->second.get() : nullptr;
  }

  /// Create both directions between a and b with the same parameters.
  static void interconnect(Host& a, Host& b, net::LinkParams params = {});

  /// Declare a *lazy mesh*: this host is considered connected to every peer
  /// the oracle admits, but the directed Link object is only materialized on
  /// first `link_to` — a 10k-host full mesh never allocates its 10^8 links.
  /// Admission is observable through `connected_to`, which is what keeps
  /// placement logic (cluster::EvacuationPlanner) oblivious to laziness.
  void set_lazy_mesh(std::function<bool(const Host&)> oracle,
                     net::LinkParams params) {
    mesh_oracle_ = std::move(oracle);
    mesh_params_ = params;
  }
  /// Observer for every link this host materializes (eager or lazy); the
  /// testbed uses it to attach obs instruments to lazily-created links.
  void set_link_created_hook(std::function<void(net::Link&, const Host&)> fn) {
    link_created_ = std::move(fn);
  }

 private:
  net::Link& materialize_link(const Host& peer, net::LinkParams params);
  vm::BlkBackend* ensure_default_backend();
  /// Index a newly created backend under the domain it serves (the first
  /// backend created for a domain is the one lookups return).
  void index_backend(vm::BlkBackend& be);

  sim::Simulator& sim_;
  std::string name_;
  bool store_payloads_;
  /// The physical disk (shared service time for every VBD on this host).
  storage::DiskScheduler physical_;
  storage::VirtualDisk disk_;  ///< primary VBD, on the physical disk
  vm::DomainId disk_owner_ = vm::kDomain0;  ///< domain the primary VBD serves
  /// Additional per-domain VBDs, created lazily, never destroyed.
  std::vector<std::unique_ptr<storage::VirtualDisk>> extra_vbds_;
  /// One backend per served DomU, created lazily; index 0 is the default.
  std::vector<std::unique_ptr<vm::BlkBackend>> backends_;
  /// O(1) per-domain lookup into disk_/extra_vbds_ and backends_ (never
  /// iterated, so its hash order cannot reach any output).
  struct DomainSlot {
    storage::VirtualDisk* vbd = nullptr;
    vm::BlkBackend* backend = nullptr;
  };
  std::unordered_map<vm::DomainId, DomainSlot> by_domain_;
  std::vector<vm::Domain*> domains_;
  std::unordered_set<const vm::Domain*> hosted_;  ///< members of domains_
  std::unordered_map<const Host*, std::unique_ptr<net::Link>> links_;
  std::function<bool(const Host&)> mesh_oracle_;  ///< lazy-mesh admission
  net::LinkParams mesh_params_{};                 ///< params for lazy links
  std::function<void(net::Link&, const Host&)> link_created_;
};

}  // namespace vmig::hv
