#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

using rtdb::exp::Json;

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  // Nearest rank: the smallest sample with at least q of the mass at or
  // below it.
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double grouped_percentile(std::vector<double> samples, double q,
                          double width) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  const double value = samples[rank - 1];
  const auto lo = std::lower_bound(samples.begin(), samples.end(), value);
  const auto hi = std::upper_bound(samples.begin(), samples.end(), value);
  const auto below = static_cast<double>(lo - samples.begin());
  const auto tied = static_cast<double>(hi - lo);
  return value - width / 2.0 + width * (q * n - below) / tied;
}

bool percentile_reportable(std::size_t samples, double q) {
  // Samples strictly beyond the nearest-rank percentile: n - ceil(q n).
  const auto n = static_cast<double>(samples);
  return samples > 0 && n - std::ceil(q * n) >= 10.0;
}

std::vector<Mismatch> compare(const Signature& expected,
                              const Signature& actual) {
  std::vector<Mismatch> out;
  auto find = [](const Signature& sig, const std::string& key) {
    return std::find_if(sig.begin(), sig.end(),
                        [&key](const auto& kv) { return kv.first == key; });
  };
  for (const auto& [key, value] : expected) {
    const auto it = find(actual, key);
    if (it == actual.end()) {
      out.push_back({key, value, 0.0, true});
    } else if (it->second != value) {
      out.push_back({key, value, it->second, false});
    }
  }
  for (const auto& [key, value] : actual) {
    if (find(expected, key) == expected.end()) {
      out.push_back({key, 0.0, value, true});
    }
  }
  return out;
}

std::string describe(const Mismatch& mismatch) {
  std::ostringstream os;
  os.precision(17);
  os << mismatch.key << ": ";
  if (mismatch.missing) {
    os << "present on one side only";
  } else {
    os << "expected " << mismatch.expected << ", got " << mismatch.actual;
  }
  return os.str();
}

Json to_json(const Signature& signature) {
  Json out = Json::object();
  for (const auto& [key, value] : signature) out.set(key, Json(value));
  return out;
}

Signature signature_from_json(const Json& json, bool* ok) {
  Signature out;
  *ok = json.is_object();
  if (!*ok) return out;
  for (const auto& [key, value] : json.members()) {
    if (!value.is_number()) {
      *ok = false;
      return {};
    }
    out.emplace_back(key, value.as_number());
  }
  return out;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, int cell)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = tracer_.add(std::move(name), tracer_.now_ns(), -1, tracer_.open_,
                       cell);
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = tracer_.now_ns();
  tracer_.open_ = span.parent;
}

int Tracer::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                int parent, int cell) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, cell});
  return static_cast<int>(spans_.size()) - 1;
}

std::int64_t Tracer::self_time_ns(int index) const {
  const Span& span = spans_.at(static_cast<std::size_t>(index));
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const Span& child : spans_) {
    if (child.parent != index) continue;
    const std::int64_t lo = std::max(child.start_ns, span.start_ns);
    const std::int64_t hi = std::min(child.end_ns, span.end_ns);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t busy = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [lo, hi] : covered) {
    const std::int64_t from = std::max(lo, reach);
    if (hi > from) busy += hi - from;
    reach = std::max(reach, hi);
  }
  return span.duration_ns() - busy;
}

Json Tracer::chrome_trace() const {
  Json events = Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Json event = Json::object();
    event.set("name", span.name);
    event.set("cat", "perfbench");
    event.set("ph", "X");
    event.set("ts", static_cast<double>(span.start_ns) / 1e3);
    event.set("dur", static_cast<double>(span.duration_ns()) / 1e3);
    event.set("pid", 1);
    event.set("tid", 1);
    Json args = Json::object();
    args.set("id", static_cast<std::int64_t>(i));
    args.set("parent", span.parent);
    args.set("cell", span.cell);
    args.set("self_us",
             static_cast<double>(self_time_ns(static_cast<int>(i))) / 1e3);
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      double kib = 0.0;
      std::sscanf(line.c_str() + 6, "%lf", &kib);
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
