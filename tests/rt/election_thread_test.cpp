// The election/lease state machine on real OS threads: each site is a
// long-running body on the rt::ThreadBackend, beating on the real clock
// and exchanging views over a mutex-protected bus. Crashing or cutting off
// the manager site must produce a failover on the majority side with a
// clean lease audit — same decision core as the simulation, real timers.
//
// Real-time runs are statistically reproducible only, so assertions stick
// to outcomes (fenced, promoted, adopted, audit-clean), not to orderings
// that depend on scheduler jitter.

#include "dist/election.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "check/monitor.hpp"
#include "rt/thread_backend.hpp"
#include "sim/kernel.hpp"

namespace rtdb::rt {
namespace {

using dist::ElectionState;
using sim::Duration;

constexpr std::uint32_t kSites = 3;
constexpr std::int64_t kIntervalUnits = 20;

struct View {
  net::SiteId from = 0;
  std::uint64_t term = 0;
  net::SiteId manager = 0;
};

// Shared state of one real-threaded election cluster. The single mutex
// covers the mailboxes, the per-site ElectionState machines, and the
// conformance monitor (none of which are thread-safe on their own); the
// timers — the part under test — run outside it, on the backend clock.
struct Cluster {
  sim::Kernel audit_clock;  // timestamps for the trace ring only
  check::ConformanceMonitor monitor{audit_clock};
  dist::LeaseObserver* audit = monitor.lease_observer(0);

  std::mutex mutex;
  std::vector<ElectionState> states;
  std::vector<std::vector<View>> mailboxes{kSites};
  // Partition script for the partitioned test, advanced by the beats
  // themselves: links touching site 0 are cut during kCut (delivery-time
  // drop, both directions — the symmetric partition). Outcome-driven
  // rather than wall-clock-driven so a starved site thread only delays
  // the phase transitions, never sleeps through one: the cut stays up
  // until the majority has actually promoted AND the isolated lease has
  // actually expired, however long the scheduler takes to run the beats.
  enum class Phase { kPreCut, kCut, kHealed, kDone };
  bool use_phases = false;
  Phase phase = Phase::kPreCut;
  std::array<int, kSites> beat_counts{};

  Cluster() {
    for (net::SiteId site = 0; site < kSites; ++site) {
      states.emplace_back(ElectionState::Options{
          site, kSites, 0, Duration::units(kIntervalUnits)});
    }
  }

  // Mirrors FailoverCoordinator::apply_tick_event / handle_view: translate
  // state-machine events into lease-audit events. Caller holds the mutex.
  void apply(net::SiteId site, ElectionState::Event event,
             std::uint64_t prev_term, bool had_lease) {
    switch (event) {
      case ElectionState::Event::kPromoted:
        audit->on_term_adopted(site, states[site].term());
        audit->on_lease_acquired(site, states[site].term());
        break;
      case ElectionState::Event::kFenced:
        audit->on_lease_released(site, states[site].term());
        break;
      case ElectionState::Event::kUnfenced:
        audit->on_lease_acquired(site, states[site].term());
        break;
      case ElectionState::Event::kAdopted:
        if (had_lease) audit->on_lease_released(site, prev_term);
        if (states[site].term() != prev_term) {
          audit->on_term_adopted(site, states[site].term());
        }
        break;
      case ElectionState::Event::kNone:
        break;
    }
  }

  // One beat of site `self`: broadcast our view, drain the mailbox, tick,
  // then advance the partition script. Returns the phase after the beat.
  Phase beat(ThreadBackend& backend, net::SiteId self) {
    const sim::TimePoint now = backend.now();
    const std::scoped_lock lock{mutex};
    const bool partitioned = phase == Phase::kCut;
    ElectionState& me = states[self];
    for (net::SiteId peer = 0; peer < kSites; ++peer) {
      if (peer == self) continue;
      if (partitioned && (self == 0 || peer == 0)) continue;
      mailboxes[peer].push_back(View{self, me.term(), me.manager()});
    }
    std::vector<View> inbox;
    inbox.swap(mailboxes[self]);
    for (const View& view : inbox) {
      if (partitioned && (self == 0 || view.from == 0)) continue;
      const std::uint64_t prev_term = me.term();
      const bool had_lease = me.lease_held();
      apply(self, me.observe(view.from, view.term, view.manager, now),
            prev_term, had_lease);
    }
    const std::uint64_t prev_term = me.term();
    const bool had_lease = me.lease_held();
    apply(self, me.tick(now), prev_term, had_lease);
    if (!use_phases) return Phase::kDone;
    ++beat_counts[self];
    switch (phase) {
      case Phase::kPreCut:
        // Everyone has seen the initial manager alive: drop the link.
        if (std::ranges::all_of(beat_counts, [](int n) { return n >= 2; })) {
          phase = Phase::kCut;
        }
        break;
      case Phase::kCut:
        // Heal only once both cut-side outcomes have really happened.
        if (states[1].is_manager() && states[0].lease_expiries() >= 1) {
          phase = Phase::kHealed;
        }
        break;
      case Phase::kHealed:
        if (states[0].manager() == 1 &&
            states[0].term() == states[1].term() &&
            !states[0].lease_held()) {
          phase = Phase::kDone;
        }
        break;
      case Phase::kDone:
        break;
    }
    return phase;
  }
};

// Runs the cluster: site 0 is the initial manager; `site0_beats` bounds
// how many beats site 0 lives (simulated crash), the others run `beats`.
void run_cluster(Cluster& cluster, ThreadBackend& backend, int beats,
                 int site0_beats) {
  {
    const std::scoped_lock lock{cluster.mutex};
    for (net::SiteId site = 0; site < kSites; ++site) {
      cluster.states[site].reset(backend.now());
    }
    cluster.states[0].acquire_initial_lease();
    cluster.audit->on_lease_acquired(0, 0);
  }
  for (net::SiteId site = 0; site < kSites; ++site) {
    const int budget = site == 0 ? site0_beats : beats;
    backend.spawn("site-" + std::to_string(site),
                  [&cluster, &backend, site, budget] {
                    for (int i = 0; i < budget; ++i) {
                      backend.advance(Duration::units(kIntervalUnits));
                      cluster.beat(backend, site);
                    }
                  });
  }
  backend.run();
}

TEST(ElectionThreadTest, CrashedManagerFailsOverAuditClean) {
  Cluster cluster;
  ThreadBackend backend{{kSites, 50'000}};
  // Site 0 stops beating after 3 beats — a fail-stop crash. Its lease dies
  // with it.
  constexpr int kCrashBeats = 3;
  run_cluster(cluster, backend, /*beats=*/15, /*site0_beats=*/kCrashBeats);
  {
    const std::scoped_lock lock{cluster.mutex};
    // The surviving majority elected site 1 within the election window.
    EXPECT_TRUE(cluster.states[1].is_manager());
    EXPECT_GE(cluster.states[1].promotions(), 1u);
    EXPECT_GE(cluster.states[1].term(), 1u);
    EXPECT_EQ(cluster.states[2].manager(), 1u);
    EXPECT_EQ(cluster.states[2].term(), cluster.states[1].term());
    // Real heartbeat timers drove it all; no lease rule was violated.
    EXPECT_EQ(cluster.monitor.violations(), 0u)
        << cluster.monitor.format_reports();
  }
  EXPECT_EQ(backend.body_exceptions(), 0u);
}

TEST(ElectionThreadTest, PartitionedManagerFencesAndMinorityAdoptsOnHeal) {
  Cluster cluster;
  cluster.use_phases = true;
  ThreadBackend backend{{kSites, 50'000}};
  {
    const std::scoped_lock lock{cluster.mutex};
    for (net::SiteId site = 0; site < kSites; ++site) {
      cluster.states[site].reset(backend.now());
    }
    cluster.states[0].acquire_initial_lease();
    cluster.audit->on_lease_acquired(0, 0);
  }
  // Each site beats until the partition script completes (cut → majority
  // promoted and isolated lease expired on the real clock → heal →
  // minority adopted), bounded only as a hang backstop. The real timers
  // still decide *when* each transition fires; the script decides the
  // order, so scheduler starvation stretches the test instead of letting
  // a site sleep through the cut.
  constexpr int kMaxBeats = 400;
  for (net::SiteId site = 0; site < kSites; ++site) {
    backend.spawn("site-" + std::to_string(site), [&cluster, &backend, site] {
      for (int i = 0; i < kMaxBeats; ++i) {
        backend.advance(Duration::units(kIntervalUnits));
        if (cluster.beat(backend, site) == Cluster::Phase::kDone) break;
      }
    });
  }
  backend.run();
  {
    const std::scoped_lock lock{cluster.mutex};
    // The script ran to completion within the beat budget.
    EXPECT_EQ(cluster.phase, Cluster::Phase::kDone);
    // The isolated manager's lease timer expired on the real clock...
    EXPECT_GE(cluster.states[0].lease_expiries(), 1u);
    // ...the majority elected a successor...
    EXPECT_TRUE(cluster.states[1].is_manager());
    EXPECT_GE(cluster.states[1].promotions(), 1u);
    // ...and after the heal the minority adopted the higher term.
    EXPECT_EQ(cluster.states[0].manager(), 1u);
    EXPECT_EQ(cluster.states[0].term(), cluster.states[1].term());
    EXPECT_FALSE(cluster.states[0].lease_held());
    EXPECT_EQ(cluster.monitor.violations(), 0u)
        << cluster.monitor.format_reports();
  }
  EXPECT_EQ(backend.body_exceptions(), 0u);
}

}  // namespace
}  // namespace rtdb::rt
