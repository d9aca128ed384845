#pragma once

#include <cstdint>
#include <map>

#include "dist/lease.hpp"

namespace rtdb::check {

class ConformanceMonitor;

// Split-brain audit for the lease-fenced global ceiling scheme. Replays
// the lease discipline the failover machinery promises:
//
//  * lease.single_holder — at most one site ever holds the lease for a
//    given term. Two holders in one term is the classic split brain: two
//    managers each believing they may grant.
//  * lease.grant_without_lease — every grant is stamped by a site that
//    currently holds the lease for that exact term; a manager granting
//    after its lease expired (the fence failed — a fenceless twin) trips
//    this even before any new election raises the term.
//  * lease.stale_term_grant — no accepted grant carries an expired term:
//    once a site has adopted term T, acting on a grant stamped < T means
//    the client-side rejection fence failed (a stale-term-accepting
//    twin). Acceptance, not emission, is audited: during an asymmetric
//    partition a still-leased old manager legitimately *emits* grants the
//    majority has outranked — the system's safety argument is exactly
//    that nobody who knows better ever acts on them.
//
// Pure observer: attached via FailoverCoordinator::set_observer plus the
// GlobalCeilingManager/PartitionedCeilingClient lease-observer taps, only
// when conformance checking is on.
class LeaseAudit final : public dist::LeaseObserver {
 public:
  explicit LeaseAudit(ConformanceMonitor& monitor) : monitor_(monitor) {}

  void on_lease_acquired(net::SiteId site, std::uint64_t term) override;
  void on_lease_released(net::SiteId site, std::uint64_t term) override;
  void on_lease_grant(net::SiteId site, std::uint64_t term) override;
  void on_term_adopted(net::SiteId site, std::uint64_t term) override;
  void on_grant_accepted(net::SiteId site, std::uint64_t term) override;

 private:
  ConformanceMonitor& monitor_;
  // First site ever seen holding each term's lease.
  std::map<std::uint64_t, net::SiteId> holder_by_term_;
  // Leases held right now: site -> term.
  std::map<net::SiteId, std::uint64_t> active_;
  // Highest election term each site has adopted (the acceptance fence).
  std::map<net::SiteId, std::uint64_t> adopted_;
};

}  // namespace rtdb::check
