#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "cc/controller.hpp"
#include "dist/failover.hpp"
#include "dist/global_ceiling.hpp"
#include "net/batch.hpp"
#include "net/rpc.hpp"

namespace rtdb::dist {

// The partitioned ceiling scheme (DPCP-style resource agents): the object
// space is split across `shards` ceiling managers, each a full
// GlobalCeilingManager running the ceiling protocol over its shard's
// declared sets. Shard s's manager initially lives at site s; under
// failover every site hosts a standby per shard and each shard runs its
// own lease-fenced election. What the scheme buys is the removal of the
// global scheme's single serialization point — transactions touching
// disjoint shards never queue behind one another's control traffic. The
// global scheme itself is this machinery at one shard.
//
// A site has exactly ONE handler slot per message type, but hosts many
// shard endpoints; the ShardRouter owns those slots and demultiplexes on
// the `shard` field every control message carries.
class ShardRouter {
 public:
  ShardRouter(net::MessageServer& server, net::RpcServer& rpc,
              std::uint32_t shards);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Wire up this site's endpoint for `shard` (null = no endpoint here;
  // acquires are denied and the client re-targets after the election).
  void set_manager(std::uint32_t shard, GlobalCeilingManager* manager);
  void set_failover(std::uint32_t shard, FailoverCoordinator* failover);

  GlobalCeilingManager* manager(std::uint32_t shard) const {
    return managers_[shard];
  }

  // Messages carrying a shard this site has never heard of (config
  // mismatch — a bug, not a fault).
  std::uint64_t misrouted() const { return misrouted_; }

 private:
  void route_register(net::SiteId from, RegisterTxnMsg message);
  void route_release(const ReleaseAllMsg& message);
  void route_end(const EndTxnMsg& message);
  void route_acquire(AcquireReq request, net::RpcServer::Responder respond);
  void route_view(net::SiteId from, std::uint64_t term, net::SiteId manager,
                  std::uint32_t shard);

  net::MessageServer& server_;
  std::uint32_t shards_;
  std::vector<GlobalCeilingManager*> managers_;
  std::vector<FailoverCoordinator*> failovers_;
  std::uint64_t misrouted_ = 0;
};

// The client-side controller each site runs under the global and
// partitioned schemes: every protocol step is a message to a ceiling
// manager, split per shard. Begin registers the transaction's declared
// subset with each shard it touches, acquire targets the owning shard's
// manager and blocks for the round trip and any remote ceiling blocking
// (a denial — the manager aborted the transaction — returns
// kDeadlockVictim, restarting the attempt), and release/end fan out to
// every registered shard. Each shard has its own manager site, election
// term, and (optional) lease-audit observer.
class PartitionedCeilingClient : public cc::ConcurrencyController {
 public:
  struct Options {
    std::uint32_t shards = 1;
    // Object -> shard map (core::shard_of bound to the run's config).
    std::function<std::uint32_t(db::ObjectId)> shard_of;
    // Per-try deadline on the acquire RPC; zero waits forever (fault-free).
    sim::Duration acquire_timeout{};
  };

  // Control messages ride `batch`, which passes them on to the site's
  // reliable channel (an exact passthrough when batching is off).
  PartitionedCeilingClient(sim::Kernel& kernel, net::MessageServer& server,
                           net::RpcClient& rpc, Options options,
                           net::BatchChannel& batch);

  sim::Task<std::optional<cc::AbortReason>> acquire(
      cc::CcTxn& txn, db::ObjectId object, cc::LockMode mode) override;
  std::string_view name() const override { return "PCP-part"; }

  net::SiteId manager_site(std::uint32_t shard) const {
    return shards_[shard].manager_site;
  }
  std::uint64_t term(std::uint32_t shard) const {
    return shards_[shard].term;
  }
  // Failover of one shard: re-target its manager and re-register every
  // live local transaction's slice of that shard (held locks included, so
  // the successor adopts them). Other shards are untouched, and in-flight
  // acquires re-issue themselves on their next timeout. A term-only change
  // (same manager, newer election learned late) just refreshes the fence
  // grants are accepted against.
  void set_manager(std::uint32_t shard, net::SiteId manager,
                   std::uint64_t term);
  void set_lease_observer(std::uint32_t shard, LeaseObserver* observer) {
    shards_[shard].observer = observer;
  }

  // Grants rejected because their term predated the client's election
  // view of the shard (a fenced-off old manager answered a retried
  // request).
  std::uint64_t stale_grants_rejected() const {
    return stale_grants_rejected_;
  }

 protected:
  void do_begin(cc::CcTxn& txn) override;
  void do_release_all(cc::CcTxn& txn) override;
  void do_end(cc::CcTxn& txn) override;

 private:
  struct Shard {
    net::SiteId manager_site = 0;
    std::uint64_t term = 0;
    LeaseObserver* observer = nullptr;
  };

  template <typename T>
  void send_control(std::uint32_t shard, T message) {
    batch_.send(shards_[shard].manager_site, std::move(message));
  }

  net::MessageServer& server_;
  net::RpcClient& rpc_;
  Options options_;
  net::BatchChannel& batch_;
  std::vector<Shard> shards_;
  // txn -> (shard -> registration message, held kept current). Ordered at
  // both levels so failover re-registration replays deterministically.
  std::map<std::uint64_t, std::map<std::uint32_t, RegisterTxnMsg>>
      registered_;
  std::uint64_t stale_grants_rejected_ = 0;
};

}  // namespace rtdb::dist
