#include "core/migration_unit.hpp"

#include "util/check.hpp"

namespace renoc {

AddressTranslator::AddressTranslator(const GridDim& dim)
    : dim_(dim),
      logical_to_physical_(identity_permutation(dim.node_count())),
      physical_to_logical_(identity_permutation(dim.node_count())) {}

void AddressTranslator::apply(const Transform& t) {
  // A workload at physical tile p moves to perm[p]; the logical map is the
  // old map followed by the migration permutation.
  logical_to_physical_ =
      compose_permutations(logical_to_physical_, t.permutation(dim_));
  physical_to_logical_ = invert_permutation(logical_to_physical_);
  ++migrations_applied_;
}

int AddressTranslator::logical_to_physical(int logical) const {
  RENOC_CHECK(logical >= 0 && logical < dim_.node_count());
  return logical_to_physical_[static_cast<std::size_t>(logical)];
}

int AddressTranslator::physical_to_logical(int physical) const {
  RENOC_CHECK(physical >= 0 && physical < dim_.node_count());
  return physical_to_logical_[static_cast<std::size_t>(physical)];
}

void AddressTranslator::rewrite_ingress(Message& msg) const {
  msg.dst = logical_to_physical(msg.dst);
}

void AddressTranslator::rewrite_egress(Message& msg) const {
  msg.src = physical_to_logical(msg.src);
}

}  // namespace renoc
