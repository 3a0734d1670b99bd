#pragma once

#include <cstdint>

#include "core/migration_config.hpp"
#include "core/protocol.hpp"
#include "net/message_stream.hpp"
#include "obs/tracer.hpp"
#include "simcore/simulator.hpp"
#include "simcore/task.hpp"
#include "vm/domain.hpp"

namespace vmig::obs {
class FlightRecorder;
}  // namespace vmig::obs

namespace vmig::hv {

/// The migration data plane between two hosts.
using MigStream = net::MessageStream<core::MigrationMessage>;

/// Source-side memory checkpointing — the `xc_linux_save` half of Xen live
/// migration: iterative dirty-page pre-copy, then the frozen residual.
///
/// The destination side (applying pages into memory) is a few lines in the
/// migration receiver; the source holds all the policy (iteration bounds,
/// dirty-rate abort), so it gets the class.
class MemoryMigrator {
 public:
  struct PrecopyResult {
    int iterations = 0;
    std::uint64_t pages_sent = 0;
    std::uint64_t bytes_sent = 0;
    bool aborted_dirty_rate = false;
  };
  struct ResidualResult {
    std::uint64_t pages = 0;
    std::uint64_t bytes = 0;        ///< pages_bytes + cpu_bytes
    std::uint64_t pages_bytes = 0;  ///< residual dirty pages on the wire
    std::uint64_t cpu_bytes = 0;    ///< vCPU context message
  };

  MemoryMigrator(sim::Simulator& sim, const core::MigrationConfig& cfg)
      : sim_{sim}, cfg_{cfg} {}

  /// Optional observability: per-round "mem_round" and freeze-phase
  /// "mem_residual" spans on `track`. Null tracer disables (default).
  void set_trace(obs::Tracer* tracer, obs::TrackId track) {
    tracer_ = tracer;
    track_ = track;
  }

  /// Optional flight recorder: one `precopy_send` event per memory round.
  void set_flight(obs::FlightRecorder* rec, std::uint32_t mig) {
    flight_ = rec;
    flight_mig_ = mig;
  }

  /// Iterative pre-copy while the guest runs. Enables the dirty log and
  /// leaves it enabled (the freeze phase consumes the final residue).
  sim::Task<PrecopyResult> precopy(vm::Domain& domain, MigStream& stream,
                                   net::TokenBucket* shaper);

  /// Freeze-phase transfer: remaining dirty pages + vCPU context.
  /// The domain must already be suspended. Disables the dirty log.
  sim::Task<ResidualResult> send_residual(vm::Domain& domain, MigStream& stream);

  /// Send every page of the domain once (pre-copy round 1, or a frozen
  /// guest's whole image); returns bytes.
  sim::Task<std::uint64_t> send_all_pages(vm::Domain& domain, MigStream& stream,
                                          net::TokenBucket* shaper,
                                          std::uint64_t* pages_sent);

 private:
  /// Send the pages set in `pages` in config-sized chunks of page runs
  /// (every chunk but the last holds exactly `mem_chunk_pages` pages);
  /// returns bytes.
  sim::Task<std::uint64_t> send_pages(vm::Domain& domain,
                                      const core::BlockBitmap& pages,
                                      MigStream& stream, net::TokenBucket* shaper,
                                      std::uint64_t* pages_sent);

  sim::Simulator& sim_;
  const core::MigrationConfig& cfg_;
  obs::Tracer* tracer_ = nullptr;
  obs::TrackId track_ = 0;
  obs::FlightRecorder* flight_ = nullptr;
  std::uint32_t flight_mig_ = 0;
};

}  // namespace vmig::hv
