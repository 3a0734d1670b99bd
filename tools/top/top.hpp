#pragma once

#include <iosfwd>
#include <string>

namespace vmig::top {

/// vmig_top: live fleet view over a rollup CSV (`vmig_sim --fleet-metrics`,
/// obs::Rollup::write_csv). Renders one fleet snapshot table per sample —
/// totals, active racks, top-K hot hosts, calendar occupancy (`shard*`) —
/// from a file or a stream ("-" = stdin), so it works both post-hoc over an
/// export and live over a pipe. The output is a pure function of the input
/// bytes: rendering the same CSV twice is byte-identical (pinned by
/// tests/fleet_test.cpp).
struct Options {
  /// Rollup CSV path, or "-" to read stdin.
  std::string input = "-";
  /// Render only the final snapshot (the terminal fleet state).
  bool last_only = false;
};

/// Render `opt.input` to `out` (diagnostics to `err`). Returns the process
/// exit status: 0 = rendered at least the header cleanly, 2 = unreadable or
/// malformed input.
int run(const Options& opt, std::ostream& out, std::ostream& err);

/// In-process variant over an already-open stream (the CLI wraps this).
int run_stream(std::istream& in, const Options& opt, std::ostream& out,
               std::ostream& err);

}  // namespace vmig::top
