// Telecommuting — the paper's other IM scenario: a user's working
// environment follows them between the office and home machine every day.
// After the first full migration, every later hop moves only the day's
// dirtied blocks in either direction.
//
//   $ ./examples/telecommute

#include <cstdio>

#include "core/migration_manager.hpp"
#include "hypervisor/host.hpp"
#include "simcore/rng.hpp"
#include "workloads/kernel_build.hpp"

using namespace vmig;
using namespace vmig::sim::literals;

namespace {

sim::Task<void> week(sim::Simulator& sim, core::MigrationManager& mgr,
                     vm::Domain& guest, hv::Host& office, hv::Host& home,
                     workload::KernelBuildWorkload& work, bool& stop) {
  work.start();
  hv::Host* at = &office;
  hv::Host* other = &home;
  for (int day = 1; day <= 4; ++day) {
    co_await sim.delay(1200_s);  // a (compressed) working day
    const auto rep = (co_await mgr.migrate({.domain = &guest, .from = at, .to = other})).report;
    const double disk_mib =
        static_cast<double>(rep.bytes_disk_first_pass +
                            rep.bytes_disk_retransfer + rep.bytes_postcopy_push +
                            rep.bytes_postcopy_pull) /
        (1024.0 * 1024.0);
    std::printf("day %d: %-6s -> %-6s  %-11s disk=%8.1f MiB  "
                "downtime=%5.1f ms  total=%6.1f s  %s\n",
                day, at->name().c_str(), other->name().c_str(),
                rep.incremental ? "incremental" : "full",
                disk_mib, rep.downtime().to_millis(),
                rep.total_time().to_seconds(),
                rep.disk_consistent ? "ok" : "INCONSISTENT");
    std::swap(at, other);
  }
  stop = true;
  work.request_stop();
  co_await work.handle();
}

}  // namespace

int main() {
  sim::Simulator sim;

  const auto geometry = storage::Geometry::from_mib(4096);
  hv::Host office{sim, "office", geometry};
  hv::Host home{sim, "home", geometry};
  hv::Host::interconnect(office, home);

  vm::Domain guest{sim, 1, "workstation", 256};
  office.attach_domain(guest);
  // Give the image some content (OS + tools).
  office.disk().poke_affine(
      {0, static_cast<std::uint32_t>(geometry.block_count)}, 0x1000000);

  // The user hacks on a kernel all week.
  workload::KernelBuildWorkload work{sim, guest, 11};

  core::MigrationManager mgr{sim};
  bool stop = false;
  sim.spawn(week(sim, mgr, guest, office, home, work, stop), "week");
  sim.run();

  std::printf("\nhops: %zu; first was full, the rest incremental — the\n"
              "environment commutes with ~MBs of traffic instead of the\n"
              "whole %0.f MiB image.\n",
              mgr.history().size(), geometry.total_mib());
  return 0;
}
