#include "dist/failover.hpp"

#include <cassert>
#include <string>

namespace rtdb::dist {

using net::SiteId;

FailoverCoordinator::FailoverCoordinator(net::MessageServer& server,
                                         Options options, Hooks hooks)
    : server_(server),
      options_(options),
      hooks_(std::move(hooks)),
      state_(ElectionState::Options{server.site(), options.site_count,
                                    options.initial_manager,
                                    options.heartbeat_interval,
                                    options.miss_threshold,
                                    options.lease_interval}) {
  assert(options_.site_count > 0);
}

void FailoverCoordinator::start() {
  assert(!started_);
  started_ = true;
  state_.reset(server_.kernel().now());
  if (state_.is_manager()) {
    // Term 0 is born held: the initial manager grants from the first tick.
    state_.acquire_initial_lease();
    if (observer_ != nullptr) {
      observer_->on_lease_acquired(server_.site(), state_.term());
    }
  }
  loop_ = server_.kernel().spawn(loop_name(), beat_loop());
}

void FailoverCoordinator::on_crash() {
  if (started_ && server_.kernel().alive(loop_)) server_.kernel().kill(loop_);
  if (state_.lease_held()) {
    state_.drop_lease();
    if (observer_ != nullptr) {
      observer_->on_lease_released(server_.site(), state_.term());
    }
  }
}

void FailoverCoordinator::on_restore() {
  if (!started_) return;
  // Fresh grace period: nobody is declared dead on stale pre-crash stamps.
  // The lease stays dropped until quorum is re-established by a tick.
  state_.reset(server_.kernel().now());
  loop_ = server_.kernel().spawn(loop_name(), beat_loop());
}

std::string FailoverCoordinator::loop_name() const {
  // Per-shard coordinators share a site; disambiguate traces.
  return "failover-" + std::to_string(server_.site()) + "-s" +
         std::to_string(options_.shard);
}

sim::Task<void> FailoverCoordinator::beat_loop() {
  while (true) {
    co_await server_.kernel().delay(options_.heartbeat_interval);
    if (hooks_.keep_running && !hooks_.keep_running()) co_return;
    for (SiteId site = 0; site < options_.site_count; ++site) {
      if (site == server_.site()) continue;
      const HeartbeatMsg beat{state_.term(), state_.manager(),
                              options_.shard};
      if (batch_ != nullptr) {
        batch_->send_raw(site, beat);
      } else {
        server_.send(site, beat);
      }
    }
    apply_tick_event(state_.tick(server_.kernel().now()));
  }
}

void FailoverCoordinator::apply_tick_event(ElectionState::Event event) {
  switch (event) {
    case ElectionState::Event::kPromoted:
      if (observer_ != nullptr) {
        observer_->on_term_adopted(server_.site(), state_.term());
        observer_->on_lease_acquired(server_.site(), state_.term());
      }
      if (hooks_.promote) hooks_.promote(state_.term());
      if (hooks_.manager_changed) {
        hooks_.manager_changed(state_.manager(), state_.term());
      }
      broadcast_elected();
      break;
    case ElectionState::Event::kFenced:
      if (hooks_.set_fenced) hooks_.set_fenced(true);
      if (observer_ != nullptr) {
        observer_->on_lease_released(server_.site(), state_.term());
      }
      break;
    case ElectionState::Event::kUnfenced:
      if (observer_ != nullptr) {
        observer_->on_lease_acquired(server_.site(), state_.term());
      }
      if (hooks_.set_fenced) hooks_.set_fenced(false);
      break;
    case ElectionState::Event::kNone:
    case ElectionState::Event::kAdopted:
      break;
  }
}

void FailoverCoordinator::broadcast_elected() {
  for (SiteId site = 0; site < options_.site_count; ++site) {
    if (site == server_.site()) continue;
    const ManagerElectedMsg msg{state_.term(), state_.manager(),
                                options_.shard};
    if (batch_ != nullptr) {
      batch_->send_raw(site, msg);
    } else {
      server_.send(site, msg);
    }
  }
}

void FailoverCoordinator::handle_view(SiteId from, std::uint64_t term,
                                      SiteId manager) {
  const bool was_manager = state_.is_manager();
  const bool had_lease = state_.lease_held();
  const std::uint64_t prev_term = state_.term();
  const SiteId prev_manager = state_.manager();
  const ElectionState::Event event =
      state_.observe(from, term, manager, server_.kernel().now());
  if (event != ElectionState::Event::kAdopted) return;
  if (had_lease && observer_ != nullptr) {
    observer_->on_lease_released(server_.site(), prev_term);
  }
  if (observer_ != nullptr && state_.term() != prev_term) {
    observer_->on_term_adopted(server_.site(), state_.term());
  }
  if (was_manager && !state_.is_manager() && hooks_.demote) hooks_.demote();
  if (hooks_.manager_changed && (state_.manager() != prev_manager ||
                                 state_.term() != prev_term)) {
    hooks_.manager_changed(state_.manager(), state_.term());
  }
}

}  // namespace rtdb::dist
