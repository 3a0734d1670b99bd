#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/migration_config.hpp"
#include "core/migration_manager.hpp"
#include "hypervisor/host.hpp"
#include "scenario/testbed.hpp"
#include "simcore/simulator.hpp"
#include "vm/domain.hpp"

namespace vmig::obs {
class Registry;
class Rollup;
}  // namespace vmig::obs

namespace vmig::scenario {

/// N-host datacenter environment for cluster orchestration experiments:
/// the paper's testbed hardware (SATA2 disks, Gigabit LAN) scaled out to a
/// full mesh of hosts, each able to carry several smaller DomUs.
struct ClusterTestbedConfig {
  int hosts = 3;
  /// Per-VM VBD size — cluster runs move many disks, so the default is far
  /// smaller than the single-host testbed's 40 GB device.
  std::uint64_t vbd_mib = 512;
  std::uint64_t guest_mem_mib = 256;
  bool payloads = false;
  storage::DiskModelParams disk = TestbedConfig::paper_disk();
  net::LinkParams lan = TestbedConfig::paper_lan();
  /// Materialize hosts, domains, and links only when first touched. The
  /// full-mesh *semantics* are unchanged (connected_to admits every pair);
  /// only the object graph is lazy, which is what lets one run register 10k
  /// hosts / 100k VMs. `false` restores the eager pre-scale behavior
  /// (everything built in the constructor).
  bool lazy = true;
};

/// Hosts ("host0".."hostN-1") fully interconnected with the configured LAN
/// params, a shared MigrationManager, and helpers to place and prefill
/// guests. Deterministic: domain ids are assigned in registration order,
/// and every materialization is an explicit, deterministic touch — a lazy
/// run and an eager run of the same scenario produce byte-identical
/// results.
///
/// Cold hosts and VMs live in a compact prototype table (a name-pattern +
/// per-host registration counts + per-VM records); `host(i)` / `vm(i)`
/// materialize on first touch, as do migrations, fault windows, and
/// rebalance decisions that reach them.
class ClusterTestbed {
 public:
  explicit ClusterTestbed(sim::Simulator& sim, ClusterTestbedConfig cfg = {});

  sim::Simulator& sim() noexcept { return sim_; }
  /// The host at index `i`, materializing it on first touch.
  hv::Host& host(std::size_t i);
  std::size_t host_count() const noexcept { return host_slots_.size(); }
  bool host_materialized(std::size_t i) const {
    return host_slots_.at(i) != nullptr;
  }
  std::size_t materialized_host_count() const noexcept {
    return materialized_hosts_;
  }
  /// All hosts except `i` — the usual destination set for a small-mesh
  /// evacuation. Materializes every host; prefer pick_destinations() at
  /// scale.
  std::vector<hv::Host*> hosts_except(std::size_t i);
  /// The `count` least-loaded hosts (by registered VM count, ties by
  /// index) excluding `from` — deterministic, and the only hosts it
  /// materializes are the ones it returns.
  std::vector<hv::Host*> pick_destinations(std::size_t from,
                                           std::size_t count);
  core::MigrationManager& manager() noexcept { return manager_; }
  const ClusterTestbedConfig& config() const noexcept { return cfg_; }

  /// Create a guest on host `host_index`. Domain ids are assigned in
  /// registration order starting at 1. Materializes the domain (and its
  /// host) immediately; use register_vm for cold placeholders.
  vm::Domain& add_vm(const std::string& name, std::size_t host_index);
  /// Register a guest without materializing anything: it gets an id and
  /// counts toward its host's load (pick_destinations, planner balance via
  /// registration counts), but no Domain/VBD/backend exists until vm(i)
  /// first touches it. Returns the VM's index.
  std::size_t register_vm(const std::string& name, std::size_t host_index);
  /// The VM at index `i`, materializing it (and its host) on first touch.
  vm::Domain& vm(std::size_t i);
  bool vm_materialized(std::size_t i) const {
    return vm_slots_.at(i) != nullptr;
  }
  std::size_t vm_count() const noexcept { return vm_records_.size(); }
  std::size_t materialized_vm_count() const noexcept {
    return materialized_vms_;
  }
  /// Registered (cold + materialized) VMs placed on host `i`.
  std::size_t registered_vms_on(std::size_t i) const {
    return vms_per_host_.at(i);
  }

  /// Stamp distinct content onto every block of every guest's VBD
  /// (untimed), so migrations move fully-populated disks and integrity
  /// checks can tell the guests apart. Applies to materialized guests now
  /// and to each cold guest when it materializes (token values depend only
  /// on the domain id, so lazy and eager prefill produce identical disks).
  void prefill_disks();

  /// The single-host testbed's calibrated engine parameters (see
  /// Testbed::paper_migration_config) — valid here because every link and
  /// disk uses the same hardware model.
  core::MigrationConfig paper_migration_config() const;

  /// Register simulator probes ("sim.*") and every directed link's
  /// instruments under "net.<src>-><dst>.*" (names derived from host
  /// names). Links materialized later attach as they are created. Guest
  /// backends are not auto-registered: domains move between hosts, so
  /// per-backend series are scenario-specific. No-op on null.
  void attach_obs(obs::Registry* registry);

  /// Bind a fleet rollup: every already-materialized host registers now
  /// under its stable testbed index, and hosts materialized later register
  /// on first touch — so lazy and eager runs feed identical cells. The
  /// rollup must be sized for at least host_count() hosts. No-op on null.
  void attach_rollup(obs::Rollup* rollup);

 private:
  struct VmRecord {
    vm::DomainId id;
    std::string name;
    std::size_t host_index;
  };

  hv::Host& materialize_host(std::size_t i);
  vm::Domain& materialize_vm(std::size_t i);
  void prefill_domain(hv::Host& h, vm::Domain& d);

  sim::Simulator& sim_;
  ClusterTestbedConfig cfg_;
  /// Prototype table: slot i is null until host i is touched.
  std::vector<std::unique_ptr<hv::Host>> host_slots_;
  std::vector<VmRecord> vm_records_;
  std::vector<std::unique_ptr<vm::Domain>> vm_slots_;
  std::vector<std::uint32_t> vms_per_host_;
  /// Reverse index for the lazy-mesh oracle (every materialized testbed
  /// host admits every other).
  std::unordered_map<const hv::Host*, std::size_t> host_index_;
  std::size_t materialized_hosts_ = 0;
  std::size_t materialized_vms_ = 0;
  bool prefill_ = false;
  obs::Registry* registry_ = nullptr;
  obs::Rollup* rollup_ = nullptr;
  core::MigrationManager manager_;
};

}  // namespace vmig::scenario
