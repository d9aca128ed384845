#pragma once

#include <cstdint>
#include <vector>

#include "net/fault.hpp"
#include "sim/time.hpp"

namespace rtdb::dist {

// Interval between heartbeats in a System's failover coordinators, and
// the unit of its failure-detection and lease windows.
inline constexpr sim::Duration kHeartbeatInterval = sim::Duration::units(20);

// Missed heartbeat intervals before a manager is declared dead: the
// election window is heartbeat_interval * kHeartbeatMissThreshold, and a
// lease lives one beat less.
inline constexpr std::uint32_t kHeartbeatMissThreshold = 3;

// Substrate-free election + lease state machine: the pure decision core of
// FailoverCoordinator, with no kernel, network, or timer dependencies. The
// coordinator drives it from the sim kernel's beat loop; tests/rt/ drive
// the same object from real rt::ThreadBackend timers — the logic is
// identical, only the clock and the message transport differ.
//
// Lease discipline: the manager holds a term-stamped lease that is only
// considered live while it has heard from a strict majority of sites
// within the lease window, `heartbeat_interval * (kHeartbeatMissThreshold
// - 1)`. The lease window is one beat shorter than the election window
// (`heartbeat_interval * kHeartbeatMissThreshold`), and both are
// measured from the same heartbeat arrival stamps, so a manager cut off by
// a partition fences itself at least one beat before any successor can
// promote — the minority-side manager can never race a majority-side
// election into a double grant. Promotion itself also requires a majority,
// which keeps the minority side of a split from electing its own manager.
class ElectionState {
 public:
  struct Options {
    net::SiteId self = 0;
    std::uint32_t site_count = 0;
    net::SiteId initial_manager = 0;
    sim::Duration heartbeat_interval = kHeartbeatInterval;
  };

  enum class Event : std::uint8_t {
    kNone,      // nothing changed
    kAdopted,   // adopted a (term, manager) view that outranks ours
    kPromoted,  // this site promoted itself (lease acquired with the term)
    kFenced,    // we are the manager but lost quorum: lease expired
    kUnfenced,  // we are the manager and regained quorum: lease renewed
  };

  explicit ElectionState(Options options);

  // (Re)start: refresh every liveness stamp to `now` (fresh grace period)
  // and drop any held lease — a (re)joining manager must re-establish
  // quorum before granting again.
  void reset(sim::TimePoint now);

  // The initial manager's lease at system start; term 0 is born held.
  void acquire_initial_lease();

  // A heartbeat / election announcement arrived from `from` carrying its
  // view of the election. Stamps liveness; returns kAdopted when the view
  // outranks ours (higher term, or same term with a lower manager id) —
  // adopting drops any lease we held.
  Event observe(net::SiteId from, std::uint64_t term, net::SiteId manager,
                sim::TimePoint now);

  // One beat boundary. A non-manager may promote itself (manager silent
  // past the election window, we are the lowest-id live site, and a
  // majority is reachable); the manager renews or fences its lease.
  Event tick(sim::TimePoint now);

  // Site failure: the lease is volatile state and dies with the site.
  void drop_lease() { lease_held_ = false; }

  bool is_manager() const { return manager_ == options_.self; }
  net::SiteId manager() const { return manager_; }
  std::uint64_t term() const { return term_; }
  bool lease_held() const { return lease_held_; }
  // Times this site promoted itself to manager.
  std::uint64_t promotions() const { return promotions_; }
  // Times a held lease expired because quorum was lost.
  std::uint64_t lease_expiries() const { return lease_expiries_; }
  // Heard from a strict majority of sites (self included) within the
  // lease window ending at `now`.
  bool majority_reachable(sim::TimePoint now) const;

 private:
  bool recently_heard(net::SiteId site, sim::TimePoint now) const;

  Options options_;
  std::uint64_t term_ = 0;
  net::SiteId manager_ = 0;
  bool lease_held_ = false;
  std::vector<sim::TimePoint> last_heard_;
  std::uint64_t promotions_ = 0;
  std::uint64_t lease_expiries_ = 0;
};

}  // namespace rtdb::dist
