// vmig_top — live fleet view over a rollup CSV.
//
//   vmig_sim --cluster ... --fleet-metrics fleet.csv
//   vmig_top fleet.csv            # every snapshot, in time order
//   vmig_top --last fleet.csv     # terminal fleet state only
//   ... --fleet-metrics /dev/stdout | vmig_top -   # live from a pipe
//
// Renders one bounded table per rollup snapshot: fleet job/byte totals,
// active racks, top-K hot hosts, and calendar occupancy (`shard*` rows). The
// output is a pure function of the input bytes (docs/OBSERVABILITY.md).
// Exit status: 0 = rendered, 2 = bad input.

#include <cstdio>
#include <iostream>
#include <string>

#include "top.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [FLEET.csv | -] [options]\n"
      "  --last           render only the final snapshot\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  vmig::top::Options opt;
  bool have_input = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--last") {
      opt.last_only = true;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 0;
    } else if (a != "-" && !a.empty() && a[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", a.c_str());
      usage(argv[0]);
      return 2;
    } else if (!have_input) {
      opt.input = a;
      have_input = true;
    } else {
      std::fprintf(stderr, "error: more than one input path\n");
      usage(argv[0]);
      return 2;
    }
  }
  return vmig::top::run(opt, std::cout, std::cerr);
}
