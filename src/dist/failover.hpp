#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "dist/election.hpp"
#include "dist/lease.hpp"
#include "net/batch.hpp"
#include "net/message_server.hpp"
#include "sim/kernel.hpp"
#include "sim/task.hpp"

namespace rtdb::dist {

// Periodic liveness beacon; every site broadcasts one per interval and
// shard. It carries the sender's view of the election so a site that
// missed the (unreliable, once-off) ManagerElectedMsg converges on the
// next beat.
struct HeartbeatMsg {
  std::uint64_t term = 0;
  net::SiteId manager = 0;
  // Which shard's election this beat speaks for; the site's ShardRouter
  // demultiplexes on it (the global scheme's one shard is 0). Last so
  // positional initializers keep their meaning.
  std::uint32_t shard = 0;
};
// Announced once by a site that promoted itself; heartbeats repair losses.
struct ManagerElectedMsg {
  std::uint64_t term = 0;
  net::SiteId manager = 0;
  std::uint32_t shard = 0;
};

// Deterministic ceiling-manager failover: every site runs one of these per
// shard, exchanging heartbeats. The election + lease decisions live in the
// substrate-free ElectionState (see dist/election.hpp for the
// fence-before-election safety argument); this class supplies the sim
// transport and timers and translates decision events into hooks.
//
// The active manager holds a term-stamped lease renewed every beat while a
// majority of sites is in heartbeat reach. Losing quorum fences the
// co-located manager (it stops granting) strictly before any successor's
// election window can elapse; promotion also requires quorum. Clients
// independently reject grants stamped with a stale term, closing the
// one-way-partition window the quorum fence cannot see.
//
// Everything is driven by the virtual clock and the deterministic message
// order, so a run's failover history is a pure function of (config, seed).
class FailoverCoordinator {
 public:
  struct Options {
    sim::Duration heartbeat_interval = sim::Duration::units(20);
    // Missed intervals before the manager is declared dead.
    std::uint32_t miss_threshold = 3;
    net::SiteId initial_manager = 0;
    std::uint32_t site_count = 0;
    // Lease validity window; zero derives heartbeat_interval *
    // (miss_threshold - 1). See ElectionState::Options.
    sim::Duration lease_interval{};
    // The shard whose manager this coordinator elects. Stamped into
    // outgoing heartbeats/announcements so the per-site ShardRouter can
    // demultiplex; the coordinator registers no handlers of its own.
    std::uint32_t shard = 0;
  };
  struct Hooks {
    // This site became / stopped being the manager; promote carries the
    // lease term the new manager stamps into its grants.
    std::function<void(std::uint64_t term)> promote;
    std::function<void()> demote;
    // The co-located manager's lease expired (true) or was renewed
    // (false); a fenced manager stops granting but keeps serving
    // registers/releases so the lock book stays current for adoption.
    std::function<void(bool fenced)> set_fenced;
    // The (possibly remote) manager or its term changed; re-target the
    // client and refresh the term it accepts grants against.
    std::function<void(net::SiteId, std::uint64_t term)> manager_changed;
    // Heartbeating continues only while this returns true; when the system
    // has drained the loops exit so the kernel's event queue can empty.
    std::function<bool()> keep_running;
  };

  FailoverCoordinator(net::MessageServer& server, Options options,
                      Hooks hooks);

  FailoverCoordinator(const FailoverCoordinator&) = delete;
  FailoverCoordinator& operator=(const FailoverCoordinator&) = delete;

  // Spawns the heartbeat loop; call once after the servers are started.
  void start();
  // Site failure: the loop dies with the site (timers and lease are
  // volatile).
  void on_crash();
  // Site restart: rejoin with a fresh grace period. The site keeps its
  // (possibly stale) term and re-learns the current election from the
  // first heartbeat that outranks it.
  void on_restore();

  // Conformance audit tap (optional; may be null).
  void set_observer(LeaseObserver* observer) { observer_ = observer; }
  // Coalesce heartbeats/announcements through the site's BatchChannel
  // (fire-and-forget pathway, so they stay loss-tolerant). May be null:
  // the global scheme's beats go out raw.
  void set_batch(net::BatchChannel* batch) { batch_ = batch; }

  // The ShardRouter feeds election views (heartbeats and elected
  // announcements) for this coordinator's shard through here.
  void handle_view(net::SiteId from, std::uint64_t term, net::SiteId manager);

  net::SiteId manager() const { return state_.manager(); }
  std::uint64_t term() const { return state_.term(); }
  bool lease_held() const { return state_.lease_held(); }
  // Times *this site* promoted itself to manager.
  std::uint64_t promotions() const { return state_.promotions(); }
  // Times this site's held lease expired because quorum was lost.
  std::uint64_t lease_expiries() const { return state_.lease_expiries(); }

 private:
  sim::Task<void> beat_loop();
  std::string loop_name() const;
  void apply_tick_event(ElectionState::Event event);
  void broadcast_elected();

  net::MessageServer& server_;
  Options options_;
  Hooks hooks_;
  ElectionState state_;
  LeaseObserver* observer_ = nullptr;
  net::BatchChannel* batch_ = nullptr;
  sim::ProcessId loop_{};
  bool started_ = false;
};

}  // namespace rtdb::dist
