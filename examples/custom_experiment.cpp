// Custom experiment — the command-line counterpart of the prototyping
// environment's menu-driven User Interface: "a user can specify the system
// configuration, database configuration, load characteristics, and
// concurrency control" without recompiling.
//
//   $ ./custom_experiment --protocol=PCP --size=16 --inter=50 --runs=10
//   $ ./custom_experiment --scheme=local --sites=3 --delay=2 --ro=0.5
//   $ ./custom_experiment --help
//
// Prints the run-averaged metrics for the configured cell.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/experiment.hpp"

namespace {

using namespace rtdb;

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --protocol=P   2PL | 2PL-P | PCP | PCP-X | 2PL-PIP | 2PL-HP | TSO |\n"
      "                 2PL-WD | 2PL-WW\n"
      "  --scheme=S     single | global | local        (default single)\n"
      "  --sites=N      site count for distributed schemes (default 3)\n"
      "  --db=N         database size in objects        (default 200)\n"
      "  --size=N       objects per transaction         (default 8)\n"
      "  --count=N      transactions per run            (default 400)\n"
      "  --inter=T      mean interarrival, time units   (default 50)\n"
      "  --ro=F         read-only fraction 0..1         (default 0)\n"
      "  --cpu=T        CPU time units per object       (default 2)\n"
      "  --io=T         I/O time units per object       (default 1)\n"
      "  --delay=T      communication delay, time units (default 0)\n"
      "  --slack=A,B    deadline slack factor range     (default 15,30)\n"
      "  --runs=N       seeded runs to average          (default 10)\n"
      "  --seed=N       base seed                       (default 1)\n",
      argv0);
  std::exit(2);
}

bool parse_protocol(const std::string& name, core::Protocol* out) {
  const std::pair<const char*, core::Protocol> table[] = {
      {"2PL", core::Protocol::kTwoPhase},
      {"2PL-P", core::Protocol::kTwoPhasePriority},
      {"PCP", core::Protocol::kPriorityCeiling},
      {"PCP-X", core::Protocol::kPriorityCeilingExclusive},
      {"2PL-PIP", core::Protocol::kPriorityInheritance},
      {"2PL-HP", core::Protocol::kHighPriority},
      {"TSO", core::Protocol::kTimestampOrdering},
      {"2PL-WD", core::Protocol::kWaitDie},
      {"2PL-WW", core::Protocol::kWoundWait},
  };
  for (const auto& [key, value] : table) {
    if (name == key) {
      *out = value;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  core::SystemConfig cfg;
  cfg.db_objects = 200;
  cfg.cpu_per_object = sim::Duration::units(2);
  cfg.io_per_object = sim::Duration::units(1);
  cfg.workload.size_min = cfg.workload.size_max = 8;
  cfg.workload.transaction_count = 400;
  cfg.workload.mean_interarrival = sim::Duration::units(50);
  cfg.workload.slack_min = 15;
  cfg.workload.slack_max = 30;
  cfg.workload.est_time_per_object = sim::Duration::units(4);
  cfg.sites = 1;
  int runs = 10;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    const char* v = nullptr;
    if ((v = value("--protocol="))) {
      if (!parse_protocol(v, &cfg.protocol)) usage(argv[0]);
    } else if ((v = value("--scheme="))) {
      const std::string s = v;
      if (s == "single") {
        cfg.scheme = core::DistScheme::kSingleSite;
      } else if (s == "global") {
        cfg.scheme = core::DistScheme::kGlobalCeiling;
      } else if (s == "local") {
        cfg.scheme = core::DistScheme::kLocalCeiling;
      } else {
        usage(argv[0]);
      }
      if (cfg.scheme != core::DistScheme::kSingleSite && cfg.sites < 2) {
        cfg.sites = 3;
      }
    } else if ((v = value("--sites="))) {
      cfg.sites = static_cast<std::uint32_t>(std::atoi(v));
    } else if ((v = value("--db="))) {
      cfg.db_objects = static_cast<std::uint32_t>(std::atoi(v));
    } else if ((v = value("--size="))) {
      cfg.workload.size_min = cfg.workload.size_max =
          static_cast<std::uint32_t>(std::atoi(v));
    } else if ((v = value("--count="))) {
      cfg.workload.transaction_count =
          static_cast<std::uint64_t>(std::atoll(v));
    } else if ((v = value("--inter="))) {
      cfg.workload.mean_interarrival = sim::Duration::from_units(std::atof(v));
    } else if ((v = value("--ro="))) {
      cfg.workload.read_only_fraction = std::atof(v);
    } else if ((v = value("--cpu="))) {
      cfg.cpu_per_object = sim::Duration::from_units(std::atof(v));
    } else if ((v = value("--io="))) {
      cfg.io_per_object = sim::Duration::from_units(std::atof(v));
    } else if ((v = value("--delay="))) {
      cfg.comm_delay = sim::Duration::from_units(std::atof(v));
    } else if ((v = value("--slack="))) {
      if (std::sscanf(v, "%lf,%lf", &cfg.workload.slack_min,
                      &cfg.workload.slack_max) != 2) {
        usage(argv[0]);
      }
    } else if ((v = value("--runs="))) {
      runs = std::atoi(v);
    } else if ((v = value("--seed="))) {
      cfg.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else {
      usage(argv[0]);
    }
  }
  // The distributed memory-resident experiments skip I/O by convention.
  if (cfg.scheme != core::DistScheme::kSingleSite) {
    cfg.io_per_object = sim::Duration::zero();
  }

  const auto results = core::ExperimentRunner::run_many(cfg, runs);
  std::printf("cell: protocol=%s scheme=%s sites=%u db=%u size=%u-%u "
              "inter=%.1ftu ro=%.0f%% delay=%.1ftu runs=%d\n",
              core::to_string(cfg.protocol), core::to_string(cfg.scheme),
              cfg.sites, cfg.db_objects, cfg.workload.size_min,
              cfg.workload.size_max,
              cfg.workload.mean_interarrival.as_units(),
              cfg.workload.read_only_fraction * 100,
              cfg.comm_delay.as_units(), runs);
  const auto thr = core::ExperimentRunner::aggregate(
      results, [](const core::RunResult& r) {
        return r.metrics.throughput_objects_per_sec;
      });
  const auto miss = core::ExperimentRunner::aggregate(
      results, [](const core::RunResult& r) { return r.metrics.pct_missed; });
  const auto restarts = core::ExperimentRunner::aggregate(
      results,
      [](const core::RunResult& r) { return static_cast<double>(r.restarts); });
  std::printf("throughput : %.2f obj/s (stddev %.2f, min %.2f, max %.2f)\n",
              thr.mean, thr.stddev, thr.min, thr.max);
  std::printf("missed     : %.2f %% (stddev %.2f)\n", miss.mean, miss.stddev);
  std::printf("restarts   : %.1f per run\n", restarts.mean);
  return 0;
}
