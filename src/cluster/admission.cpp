#include "cluster/admission.hpp"

namespace vmig::cluster {

namespace {
bool within(int current, int cap) { return cap <= 0 || current < cap; }
}  // namespace

bool AdmissionControl::admissible(const hv::Host& from,
                                  const hv::Host& to) const {
  return source_open(from) && within(lookup(by_dest_, &to), caps_.per_dest) &&
         within(lookup(by_link_, Link{&from, &to}), caps_.per_link);
}

bool AdmissionControl::source_open(const hv::Host& from) const {
  return within(total_, caps_.total) &&
         within(lookup(by_source_, &from), caps_.per_source);
}

void AdmissionControl::acquire(const hv::Host& from, const hv::Host& to) {
  ++total_;
  ++by_source_[&from];
  ++by_dest_[&to];
  ++by_link_[Link{&from, &to}];
}

void AdmissionControl::release(const hv::Host& from, const hv::Host& to) {
  --total_;
  --by_source_[&from];
  --by_dest_[&to];
  --by_link_[Link{&from, &to}];
}

}  // namespace vmig::cluster
