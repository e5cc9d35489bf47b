#include "detect/accumulator.h"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <tuple>
#include <type_traits>
#include <utility>

#include "detect/payload_codec.h"
#include "util/error.h"

namespace tradeplot::detect {

namespace {

constexpr std::size_t kMinBuckets = 64;

// splitmix64 finalizer: campus addresses differ only in their low bits, and
// linear probing needs the avalanche.
std::uint64_t mix(std::uint64_t k) {
  k ^= k >> 30;
  k *= 0xbf58476d1ce4e5b9ULL;
  k ^= k >> 27;
  k *= 0x94d049bb133111ebULL;
  k ^= k >> 31;
  return k;
}

}  // namespace

std::uint32_t WindowAccumulator::touch(simnet::Ipv4 host, double t) {
  if (table_.empty()) rehash(kMinBuckets);
  const std::uint32_t addr = host.value();
  const std::size_t mask = table_.size() - 1;
  std::size_t i = mix(addr) & mask;
  for (std::uint64_t bucket = table_[i]; bucket != 0; bucket = table_[i]) {
    if (static_cast<std::uint32_t>(bucket) == addr) {
      const auto slot = static_cast<std::uint32_t>(bucket >> 32) - 1;
      if (t < first_activity_[slot]) first_activity_[slot] = t;
      return slot;
    }
    i = (i + 1) & mask;
  }
  const auto slot = static_cast<std::uint32_t>(host_.size());
  table_[i] = (static_cast<std::uint64_t>(slot) + 1) << 32 | addr;
  host_.push_back(addr);
  flows_initiated_.push_back(0);
  flows_failed_.push_back(0);
  flows_received_.push_back(0);
  bytes_initiated_.push_back(0);
  bytes_received_.push_back(0);
  first_activity_.push_back(t);
  samples_.push_back(0);
  shed_.push_back(0);
  if (host_.size() * 2 > table_.size()) rehash(table_.size() * 2);
  return slot;
}

void WindowAccumulator::rehash(std::size_t buckets) {
  table_.assign(buckets, 0);
  const std::size_t mask = buckets - 1;
  for (std::size_t slot = 0; slot < host_.size(); ++slot) {
    const std::uint32_t addr = host_[slot];
    std::size_t i = mix(addr) & mask;
    for (; table_[i] != 0; i = (i + 1) & mask) {
      // Only a decoded host column can repeat an address.
      if (static_cast<std::uint32_t>(table_[i]) == addr)
        throw util::ParseError("checkpoint: duplicate host in accumulator section");
    }
    table_[i] = (static_cast<std::uint64_t>(slot) + 1) << 32 | addr;
  }
}

void WindowAccumulator::apply_initiator(simnet::Ipv4 src, simnet::Ipv4 dst, double t,
                                        std::uint64_t bytes_src, bool failed,
                                        std::size_t timing_budget) {
  const std::uint32_t slot = touch(src, t);
  flows_initiated_[slot] += 1;
  flows_failed_[slot] += failed ? 1 : 0;
  bytes_initiated_[slot] += bytes_src;
  // Log the raw start time; churn and interstitials are derived from the
  // sorted per-destination times at window close, so late arrivals land in
  // their true position.
  //
  // A host whose timing state was shed this window stops buffering (its
  // scalar counters above stay exact); everyone else counts toward the
  // window's timing budget.
  if (shed_[slot] != 0) return;
  log_.push_back({slot, dst.value(), t});
  ++samples_[slot];
  if (timing_budget != 0 && log_.size() > timing_budget) shed_timing_state(timing_budget);
}

void WindowAccumulator::apply_responder(simnet::Ipv4 dst, double t,
                                        std::uint64_t bytes_dst) {
  const std::uint32_t slot = touch(dst, t);
  flows_received_[slot] += 1;
  bytes_received_[slot] += bytes_dst;
}

void WindowAccumulator::shed_timing_state(std::size_t timing_budget) {
  // Lowest evidence first: hosts with the fewest buffered timing samples
  // have the least interstitial/churn signal to lose. Ties break by
  // address so the shed set is deterministic for a given flow sequence.
  std::vector<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>> candidates;
  for (std::uint32_t slot = 0; slot < host_.size(); ++slot) {
    if (samples_[slot] > 0) candidates.emplace_back(samples_[slot], host_[slot], slot);
  }
  std::sort(candidates.begin(), candidates.end());

  // Hysteresis: shed down to ~3/4 of the budget so one more sample does not
  // immediately re-trigger a full scan-and-sort.
  const std::size_t target = timing_budget - timing_budget / 4;
  std::size_t buffered = log_.size();
  for (const auto& [samples, host, slot] : candidates) {
    if (buffered <= target) break;
    buffered -= samples;
    timing_samples_shed_ += samples;
    samples_[slot] = 0;
    shed_[slot] = 1;
    ++hosts_shed_;
  }
  // Compact the shed hosts' events out, so the buffered log stays bounded
  // by the budget.
  std::erase_if(log_, [this](const Event& e) { return shed_[e.slot] != 0; });
}

void WindowAccumulator::sort_by_slot(Event* sorted) {
  // run_begin_[s + 1] starts at slot s's first position and the scatter
  // advances it to the slot's end, which is where slot s + 1 begins.
  run_begin_.assign(host_.size() + 1, 0);
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < host_.size(); ++s) {
    run_begin_[s + 1] = sum;
    sum += samples_[s];
  }
  for (const Event& e : log_) sorted[run_begin_[e.slot + 1]++] = e;
}

void WindowAccumulator::sort_by_dst(Event* events, std::size_t n, Event* tmp) {
  constexpr std::size_t kInsertionMax = 32;
  if (n <= kInsertionMax) {
    for (std::size_t i = 1; i < n; ++i) {
      const Event e = events[i];
      std::size_t j = i;
      for (; j > 0 && events[j - 1].dst > e.dst; --j) events[j] = events[j - 1];
      events[j] = e;
    }
    return;
  }
  // Least significant byte first, each a stable counting scatter, skipped
  // when every event shares the digit.
  std::array<std::array<std::uint32_t, 256>, 4> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t d = events[i].dst;
    ++counts[0][d & 0xff];
    ++counts[1][(d >> 8) & 0xff];
    ++counts[2][(d >> 16) & 0xff];
    ++counts[3][d >> 24];
  }
  Event* from = events;
  Event* to = tmp;
  for (unsigned pass = 0; pass < 4; ++pass) {
    const unsigned shift = 8 * pass;
    std::array<std::uint32_t, 256>& offset = counts[pass];
    if (offset[(from[0].dst >> shift) & 0xff] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& c : offset) sum += std::exchange(c, sum);
    for (std::size_t i = 0; i < n; ++i) to[offset[(from[i].dst >> shift) & 0xff]++] = from[i];
    std::swap(from, to);
  }
  if (from != events) std::copy(from, from + n, events);
}

FeatureMap WindowAccumulator::finalize(double grace) {
  // The sorted copy lives only for the finalize: kept across windows it
  // would hold a second log's worth of memory through the next window.
  const auto sorted = std::make_unique_for_overwrite<Event[]>(log_.size());
  sort_by_slot(sorted.get());
  FeatureMap features;
  features.reserve(host_.size());
  for (std::uint32_t slot = 0; slot < host_.size(); ++slot) {
    HostFeatures f;
    f.host = simnet::Ipv4(host_[slot]);
    f.flows_initiated = static_cast<std::size_t>(flows_initiated_[slot]);
    f.flows_failed = static_cast<std::size_t>(flows_failed_[slot]);
    f.flows_received = static_cast<std::size_t>(flows_received_[slot]);
    f.bytes_sent_initiated = bytes_initiated_[slot];
    f.bytes_sent_received = bytes_received_[slot];
    f.first_activity = first_activity_[slot];
    if (samples_[slot] > 0) {
      // The slot's events, sorted while they are in cache, with the log's
      // same range as scratch: grouped by dst ascending, arrival order kept
      // within a destination. A destination whose times arrived out of
      // order is sorted on its own.
      Event* const begin = sorted.get() + run_begin_[slot];
      Event* const end = sorted.get() + run_begin_[slot + 1];
      sort_by_dst(begin, static_cast<std::size_t>(end - begin), log_.data() + run_begin_[slot]);
      const auto by_time = [](const Event& a, const Event& b) { return a.t < b.t; };
      std::size_t dsts = 0;
      for (Event* run = begin; run != end;) {
        Event* run_end = run + 1;
        while (run_end != end && run_end->dst == run->dst) ++run_end;
        if (!std::is_sorted(run, run_end, by_time)) std::sort(run, run_end, by_time);
        ++dsts;
        run = run_end;
      }
      const double horizon = f.first_activity + grace;
      f.distinct_dsts = dsts;
      f.interstitials.reserve(static_cast<std::size_t>(samples_[slot]) - dsts);
      for (const Event* e = begin; e != end; ++e) {
        if (e == begin || e->dst != e[-1].dst) {
          if (e->t > horizon) f.dsts_after_first_hour += 1;
        } else {
          f.interstitials.push_back(e->t - e[-1].t);
        }
      }
    }
    features.emplace(f.host, std::move(f));
  }
  return features;
}

void WindowAccumulator::reset() {
  std::fill(table_.begin(), table_.end(), 0);
  host_.clear();
  flows_initiated_.clear();
  flows_failed_.clear();
  flows_received_.clear();
  bytes_initiated_.clear();
  bytes_received_.clear();
  first_activity_.clear();
  samples_.clear();
  shed_.clear();
  log_.clear();
  hosts_shed_ = 0;
  timing_samples_shed_ = 0;
}

void WindowAccumulator::encode(PayloadWriter& w) const {
  static_assert(sizeof(Event) == 16 && std::is_trivially_copyable_v<Event>);
  w.put(static_cast<std::uint64_t>(hosts_shed_));
  w.put(static_cast<std::uint64_t>(timing_samples_shed_));
  w.put(static_cast<std::uint64_t>(host_.size()));
  w.put_array(host_);
  w.put_array(flows_initiated_);
  w.put_array(flows_failed_);
  w.put_array(flows_received_);
  w.put_array(bytes_initiated_);
  w.put_array(bytes_received_);
  w.put_array(first_activity_);
  w.put_array(shed_);
  w.put(static_cast<std::uint64_t>(log_.size()));
  w.put_array(log_);
}

void WindowAccumulator::decode(PayloadReader& r) {
  WindowAccumulator fresh;
  fresh.hosts_shed_ = static_cast<std::size_t>(r.take<std::uint64_t>());
  fresh.timing_samples_shed_ = static_cast<std::size_t>(r.take<std::uint64_t>());
  const auto hosts = r.take<std::uint64_t>();
  if (hosts >= std::numeric_limits<std::uint32_t>::max())
    throw util::ParseError("checkpoint: implausible host count");
  r.take_array(fresh.host_, hosts);
  r.take_array(fresh.flows_initiated_, hosts);
  r.take_array(fresh.flows_failed_, hosts);
  r.take_array(fresh.flows_received_, hosts);
  r.take_array(fresh.bytes_initiated_, hosts);
  r.take_array(fresh.bytes_received_, hosts);
  r.take_array(fresh.first_activity_, hosts);
  r.take_array(fresh.shed_, hosts);
  r.take_array(fresh.log_, r.take<std::uint64_t>());

  std::size_t buckets = kMinBuckets;
  while (fresh.host_.size() * 2 > buckets) buckets *= 2;
  fresh.rehash(buckets);
  fresh.samples_.assign(fresh.host_.size(), 0);
  for (const Event& e : fresh.log_) {
    if (e.slot >= fresh.host_.size())
      throw util::ParseError("checkpoint: event slot past the host count");
    if (fresh.shed_[e.slot] != 0)
      throw util::ParseError("checkpoint: event buffered for a shed host");
    ++fresh.samples_[e.slot];
  }
  *this = std::move(fresh);
}

}  // namespace tradeplot::detect
