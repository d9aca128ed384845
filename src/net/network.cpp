#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

namespace rtdb::net {

Network::Network(sim::Kernel& kernel, std::uint32_t site_count,
                 sim::Duration default_delay)
    : kernel_(kernel),
      delays_(static_cast<std::size_t>(site_count) * site_count, default_delay),
      up_(site_count, true) {
  assert(site_count >= 1);
  inboxes_.reserve(site_count);
  for (std::uint32_t i = 0; i < site_count; ++i) {
    inboxes_.push_back(std::make_unique<sim::Mailbox<std::uint32_t>>(kernel));
  }
  // No delay from a site to itself.
  for (std::uint32_t i = 0; i < site_count; ++i) {
    delays_[static_cast<std::size_t>(i) * site_count + i] = sim::Duration::zero();
  }
}

Network::~Network() = default;

void Network::set_delay(SiteId from, SiteId to, sim::Duration delay) {
  assert(from < site_count() && to < site_count());
  assert(!delay.is_negative());
  delays_[static_cast<std::size_t>(from) * site_count() + to] = delay;
}

void Network::set_all_delays(sim::Duration delay) {
  for (SiteId a = 0; a < site_count(); ++a) {
    for (SiteId b = 0; b < site_count(); ++b) {
      if (a != b) set_delay(a, b, delay);
    }
  }
}

sim::Duration Network::delay(SiteId from, SiteId to) const {
  assert(from < site_count() && to < site_count());
  return delays_[static_cast<std::size_t>(from) * site_count() + to];
}

void Network::set_operational(SiteId site, bool up) {
  assert(site < site_count());
  up_[site] = up;
}

bool Network::operational(SiteId site) const {
  assert(site < site_count());
  return up_[site];
}

void Network::install_faults(const FaultSpec& spec, sim::RandomStream stream) {
  injector_ = std::make_unique<FaultInjector>(spec, stream);
}

void Network::cut_link(SiteId from, SiteId to) {
  assert(from < site_count() && to < site_count());
  if (cuts_.empty()) {
    cuts_.assign(static_cast<std::size_t>(site_count()) * site_count(), 0);
  }
  ++cuts_[static_cast<std::size_t>(from) * site_count() + to];
}

void Network::heal_link(SiteId from, SiteId to) {
  assert(from < site_count() && to < site_count());
  const std::size_t index =
      static_cast<std::size_t>(from) * site_count() + to;
  assert(!cuts_.empty() && cuts_[index] > 0 && "healing an uncut link");
  --cuts_[index];
}

bool Network::link_cut(SiteId from, SiteId to) const {
  if (cuts_.empty()) return false;
  return cuts_[static_cast<std::size_t>(from) * site_count() + to] > 0;
}

void Network::apply_partition(const FaultSpec::Partition& partition) {
  for (const SiteId inside : partition.group) {
    for (SiteId outside = 0; outside < site_count(); ++outside) {
      if (std::find(partition.group.begin(), partition.group.end(),
                    outside) != partition.group.end()) {
        continue;
      }
      cut_link(inside, outside);
      if (partition.symmetric) cut_link(outside, inside);
    }
  }
}

void Network::lift_partition(const FaultSpec::Partition& partition) {
  for (const SiteId inside : partition.group) {
    for (SiteId outside = 0; outside < site_count(); ++outside) {
      if (std::find(partition.group.begin(), partition.group.end(),
                    outside) != partition.group.end()) {
        continue;
      }
      heal_link(inside, outside);
      if (partition.symmetric) heal_link(outside, inside);
    }
  }
}

void Network::send(Envelope&& envelope) {
  assert(envelope.from < site_count() && envelope.to < site_count());
  ++sent_;
  const sim::Duration d = delay(envelope.from, envelope.to);
  if (envelope.from == envelope.to && d.is_zero()) {
    // Intra-site communication bypasses the Message Server and the fault
    // model alike.
    deliver(occupy(std::move(envelope)));
    return;
  }
  if (!up_[envelope.from]) {
    // A crashed site sends nothing; whatever its (dying) processes were
    // emitting is lost with the site.
    ++dropped_;
    return;
  }
  if (link_cut(envelope.from, envelope.to)) {
    // The link is partitioned: the message dies at send time, before the
    // fault injector even sees it (a cut link carries nothing to drop,
    // duplicate, or delay). Deliveries scheduled before the cut still
    // arrive — they were already past the failed router.
    ++partition_drops_;
    return;
  }
  if (injector_ != nullptr && injector_->spec().message_faults()) {
    const FaultInjector::Decision decision = injector_->next();
    if (decision.drop) return;
    if (decision.duplicate) {
      schedule_delivery(Envelope{envelope}, d + decision.duplicate_delay);
    }
    schedule_delivery(std::move(envelope), d + decision.extra_delay);
    return;
  }
  schedule_delivery(std::move(envelope), d);
}

std::uint32_t Network::occupy(Envelope&& envelope) {
  if (free_slots_.empty()) {
    in_flight_.push_back(std::move(envelope));
    return static_cast<std::uint32_t>(in_flight_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  in_flight_[slot] = std::move(envelope);
  return slot;
}

void Network::schedule_delivery(Envelope&& envelope, sim::Duration delay) {
  const std::uint32_t slot = occupy(std::move(envelope));
  kernel_.schedule_in(delay, [this, slot] { deliver(slot); });
}

void Network::broadcast(SiteId from, const Payload& body) {
  for (SiteId to = 0; to < site_count(); ++to) {
    if (to == from) continue;
    send(Envelope{from, to, body, nullptr});
  }
}

void Network::deliver(std::uint32_t slot) {
  const SiteId to = in_flight_[slot].to;
  if (!up_[to]) {
    ++dropped_;
    retrieve(slot);  // the lost envelope dies here
    return;
  }
  ++delivered_;
  inboxes_[to]->send(slot);
}

Envelope Network::retrieve(std::uint32_t slot) {
  assert(slot < in_flight_.size());
  Envelope envelope = std::move(in_flight_[slot]);
  free_slots_.push_back(slot);
  return envelope;
}

void Network::clear_inbox(SiteId site) {
  while (const std::optional<std::uint32_t> slot = inbox(site).try_take()) {
    retrieve(*slot);
  }
}

sim::Mailbox<std::uint32_t>& Network::inbox(SiteId site) {
  assert(site < site_count());
  return *inboxes_[site];
}

}  // namespace rtdb::net
