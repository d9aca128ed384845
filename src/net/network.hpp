#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/fault.hpp"
#include "net/payload.hpp"
#include "sim/kernel.hpp"
#include "sim/mailbox.hpp"
#include "sim/time.hpp"

namespace rtdb::net {

// One message in flight between sites. `body` carries the application
// payload; `on_retrieved` (optional) is invoked by the destination site's
// MessageServer when it picks the message up — the hook behind rendezvous
// sends ("the sender can block itself ... until the message is retrieved by
// the MS at the receiving site").
struct Envelope {
  SiteId from = 0;
  SiteId to = 0;
  Payload body;
  std::function<void()> on_retrieved;
};

// The simulated communication network: a set of sites with a per-ordered-
// pair communication delay, one inbox per site, and per-site up/down state
// (messages to a down site are dropped at delivery time, which is what
// makes the sender-side timeout observable).
//
// The paper's distributed experiments use a fully interconnected 3-site
// network with a single "communication delay" knob; set_all_delays covers
// that, set_delay allows asymmetric topologies.
class Network {
 public:
  Network(sim::Kernel& kernel, std::uint32_t site_count,
          sim::Duration default_delay = sim::Duration::zero());
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  std::uint32_t site_count() const { return static_cast<std::uint32_t>(inboxes_.size()); }

  void set_delay(SiteId from, SiteId to, sim::Duration delay);
  void set_all_delays(sim::Duration delay);
  sim::Duration delay(SiteId from, SiteId to) const;

  void set_operational(SiteId site, bool up);
  bool operational(SiteId site) const;

  // Link partitions: while a directed link is cut, messages sent over it
  // are dropped at send time (in-flight deliveries already scheduled keep
  // going, like packets past the failed router). Cuts nest — overlapping
  // partitions each add a cut and the link heals when the last one lifts.
  void cut_link(SiteId from, SiteId to);
  void heal_link(SiteId from, SiteId to);
  bool link_cut(SiteId from, SiteId to) const;
  // Applies / lifts one FaultSpec::Partition (every group<->non-group
  // link, both directions when symmetric, outbound only when not).
  void apply_partition(const FaultSpec::Partition& partition);
  void lift_partition(const FaultSpec::Partition& partition);

  // Installs message-fault injection (drop/duplicate/jitter). The decision
  // stream is seeded independently of the workload; with a zero spec the
  // injector is never consulted and the network behaves exactly as before.
  void install_faults(const FaultSpec& spec, sim::RandomStream stream);
  const FaultInjector* faults() const { return injector_.get(); }

  // Sends asynchronously; the envelope arrives in `to`'s inbox after
  // delay(from, to). Intra-site messages bypass the network (delivered
  // immediately), matching the paper: "inter-process communication within a
  // site does not go through the Message Server".
  void send(Envelope&& envelope);

  // Sends a copy of `body` from `from` to every other site.
  void broadcast(SiteId from, const Payload& body);

  // The slots of the messages delivered to `site`, in arrival order.
  sim::Mailbox<std::uint32_t>& inbox(SiteId site);
  // Moves the envelope out of a slot taken from an inbox and frees the
  // slot, once: a handler's send may grow the slot table.
  Envelope retrieve(std::uint32_t slot);
  // Site crash: frees the slots still queued in `site`'s inbox, including
  // one handed to a dispatcher that was killed before it resumed.
  void clear_inbox(SiteId site);
  // Slots holding a message in transit or in an inbox.
  std::size_t occupied_slots() const {
    return in_flight_.size() - free_slots_.size();
  }

  std::uint64_t messages_sent() const { return sent_; }
  std::uint64_t messages_delivered() const { return delivered_; }
  // Messages lost to a down endpoint (either direction).
  std::uint64_t messages_dropped() const { return dropped_; }
  // Messages lost to a cut link.
  std::uint64_t partition_drops() const { return partition_drops_; }
  // Messages lost / duplicated by the fault injector.
  std::uint64_t fault_drops() const {
    return injector_ ? injector_->drops() : 0;
  }
  std::uint64_t fault_duplicates() const {
    return injector_ ? injector_->duplicates() : 0;
  }

 private:
  std::uint32_t occupy(Envelope&& envelope);
  void schedule_delivery(Envelope&& envelope, sim::Duration delay);
  void deliver(std::uint32_t slot);

  sim::Kernel& kernel_;
  // Envelopes between send and retrieval. A delivery event and an inbox
  // entry carry only the slot's index, so the envelope moves in once and
  // out once; slots are reused.
  std::vector<Envelope> in_flight_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::unique_ptr<sim::Mailbox<std::uint32_t>>> inboxes_;
  std::vector<sim::Duration> delays_;  // site_count x site_count
  std::vector<bool> up_;
  // Per-directed-link cut depth (site_count x site_count); lazily sized on
  // the first cut so partition-free runs never touch it.
  std::vector<std::uint16_t> cuts_;
  std::unique_ptr<FaultInjector> injector_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t partition_drops_ = 0;
};

}  // namespace rtdb::net
