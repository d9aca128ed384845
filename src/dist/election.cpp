#include "dist/election.hpp"

#include <cassert>

namespace rtdb::dist {

using net::SiteId;

ElectionState::ElectionState(Options options)
    : options_(options),
      manager_(options.initial_manager),
      last_heard_(options.site_count, sim::TimePoint::origin()) {
  assert(options_.site_count > 0);
}

void ElectionState::reset(sim::TimePoint now) {
  for (sim::TimePoint& t : last_heard_) t = now;
  lease_held_ = false;
}

void ElectionState::acquire_initial_lease() {
  assert(is_manager() && !lease_held_);
  lease_held_ = true;
}

bool ElectionState::recently_heard(SiteId site, sim::TimePoint now) const {
  return now - last_heard_[site] <=
         options_.heartbeat_interval *
             static_cast<std::int64_t>(kHeartbeatMissThreshold);
}

bool ElectionState::majority_reachable(sim::TimePoint now) const {
  const sim::Duration lease_window =
      options_.heartbeat_interval *
      static_cast<std::int64_t>(kHeartbeatMissThreshold - 1);
  std::uint32_t heard = 0;
  for (SiteId site = 0; site < options_.site_count; ++site) {
    if (site == options_.self || now - last_heard_[site] <= lease_window) {
      ++heard;
    }
  }
  return heard * 2 > options_.site_count;
}

ElectionState::Event ElectionState::observe(SiteId from, std::uint64_t term,
                                            SiteId manager,
                                            sim::TimePoint now) {
  last_heard_[from] = now;
  if (term < term_ || (term == term_ && manager >= manager_)) {
    return Event::kNone;
  }
  term_ = term;
  manager_ = manager;
  lease_held_ = false;  // an outranking view invalidates any lease we held
  return Event::kAdopted;
}

ElectionState::Event ElectionState::tick(sim::TimePoint now) {
  if (is_manager()) {
    const bool quorum = majority_reachable(now);
    if (lease_held_ && !quorum) {
      lease_held_ = false;
      ++lease_expiries_;
      return Event::kFenced;
    }
    if (!lease_held_ && quorum) {
      lease_held_ = true;
      return Event::kUnfenced;
    }
    return Event::kNone;
  }
  if (recently_heard(manager_, now)) return Event::kNone;

  // Manager declared dead: the successor is the lowest-id site still heard
  // from (ourselves always counting as live). Every live site computes the
  // same successor from the same heartbeat history; only the successor
  // acts — and only with a majority in reach, so the minority side of a
  // partition waits instead of electing a twin.
  for (SiteId site = 0; site < options_.site_count; ++site) {
    if (site == manager_) continue;
    if (site != options_.self && !recently_heard(site, now)) continue;
    if (site != options_.self) return Event::kNone;  // lower id promotes
    if (!majority_reachable(now)) return Event::kNone;
    term_ += 1;
    manager_ = options_.self;
    lease_held_ = true;
    ++promotions_;
    return Event::kPromoted;
  }
  return Event::kNone;
}

}  // namespace rtdb::dist
