// Ablation of the §VII future-work features this library implements beyond
// the paper's prototype:
//   1. guest-assisted unused-block skipping (sparse first pass), and
//   2. the multi-host IM version directory (incremental migration to any
//      recently-visited host, not just the previous one).

#include <cstdio>

#include "bench_util.hpp"
#include "core/migration_manager.hpp"
#include "scenario/testbed.hpp"
#include "workloads/kernel_build.hpp"

using namespace vmig;
using namespace vmig::sim::literals;

namespace {

double disk_mib(const core::MigrationReport& r) {
  return static_cast<double>(r.bytes_disk_first_pass + r.bytes_disk_retransfer +
                             r.bytes_postcopy_push + r.bytes_postcopy_pull) /
         (1024.0 * 1024.0);
}

void sparse_sweep() {
  bench::section("1. guest-assisted free-block map (sparse first pass)");
  std::printf("  %14s %12s %12s %12s %14s\n", "disk fullness", "plain(s)",
              "sparse(s)", "plain MiB", "sparse MiB");
  for (const double fullness : {0.10, 0.25, 0.50, 0.90}) {
    core::MigrationReport plain, sparse;
    for (const bool skip : {false, true}) {
      sim::Simulator sim;
      scenario::TestbedConfig bed;
      bed.vbd_mib = 8192;
      scenario::Testbed tb{sim, bed};
      const auto blocks = tb.source().disk().geometry().block_count;
      const auto used = static_cast<storage::BlockId>(
          static_cast<double>(blocks) * fullness);
      tb.source().disk().poke_affine({0, static_cast<std::uint32_t>(used)},
                                     0xf000);
      auto cfg = tb.paper_migration_config();
      cfg.skip_unused_blocks = skip;
      const auto rep = tb.run_tpm(nullptr, 5_s, 5_s, cfg);
      (skip ? sparse : plain) = rep;
    }
    std::printf("  %13.0f%% %12.1f %12.1f %12.1f %14.1f\n", fullness * 100,
                plain.total_time().to_seconds(),
                sparse.total_time().to_seconds(), disk_mib(plain),
                disk_mib(sparse));
  }
  std::printf("  (the paper: \"all the data in VBD must be transmitted\n"
              "   including unused blocks\" — this removes that cost)\n");
}

void multihost_demo() {
  bench::section("2. multi-host IM directory (version maintenance)");
  // A developer's VM commutes office -> home -> laptop -> office. With the
  // paper's pairwise IM, the hop to a two-hops-ago machine is a full copy;
  // with the directory it is incremental.
  for (const bool directory : {false, true}) {
    sim::Simulator sim;
    const auto geo = storage::Geometry::from_mib(4096);
    const auto disk = scenario::TestbedConfig::paper_disk();
    const auto lan = scenario::TestbedConfig::paper_lan();
    hv::Host office{sim, "office", geo, disk};
    hv::Host home{sim, "home", geo, disk};
    hv::Host laptop{sim, "laptop", geo, disk};
    hv::Host::interconnect(office, home, lan);
    hv::Host::interconnect(home, laptop, lan);
    hv::Host::interconnect(laptop, office, lan);
    vm::Domain guest{sim, 1, "devbox", 256};
    office.attach_domain(guest);
    office.disk().poke_affine(
        {0, static_cast<std::uint32_t>(geo.block_count)}, 0xbeef0000);
    workload::KernelBuildWorkload work{sim, guest, 11};
    core::MigrationManager mgr{sim};
    mgr.set_multi_host_im(directory);

    std::printf("  %s:\n", directory ? "with version directory (§VII)"
                                     : "pairwise IM (paper prototype)");
    struct Hop {
      hv::Host* from;
      hv::Host* to;
    } hops[] = {{&office, &home}, {&home, &laptop}, {&laptop, &office}};
    bool stopped = false;
    sim.spawn(
        [](sim::Simulator& sim, core::MigrationManager& mgr, vm::Domain& guest,
           workload::KernelBuildWorkload& work, Hop* hops,
           bool& stopped) -> sim::Task<void> {
          work.start();
          for (int i = 0; i < 3; ++i) {
            co_await sim.delay(300_s);
            const auto rep =
                (co_await mgr.migrate({.domain = &guest, .from = hops[i].from, .to = hops[i].to})).report;
            std::printf("    %-7s-> %-7s %-11s disk=%8.1f MiB total=%6.1f s %s\n",
                        hops[i].from->name().c_str(),
                        hops[i].to->name().c_str(),
                        rep.incremental ? "incremental" : "FULL COPY",
                        disk_mib(rep), rep.total_time().to_seconds(),
                        rep.disk_consistent ? "ok" : "INCONSISTENT");
          }
          work.request_stop();
          co_await work.handle();
          stopped = true;
        }(sim, mgr, guest, work, hops, stopped),
        "commute");
    sim.run();
  }
  std::printf("  (hop 3 returns to a machine last seen two hops ago: the\n"
              "   directory turns a multi-GiB copy into an MiB-scale delta)\n");
}

}  // namespace

int main() {
  bench::header("§VII extensions", "sparse migration + multi-host IM");
  sparse_sweep();
  multihost_demo();
  return 0;
}
