// Per-window, per-host feature accumulation: the one accumulation and
// finalize path behind both the batch extractor (extract_features feeds one
// accumulator with no timing budget) and StreamingDetector (one accumulator
// per worker shard, exactly one by default; each flow goes to the shard
// owning its internal host).
//
// The accumulator knows nothing about windows rolling or verdicts — it only
// absorbs the initiator/responder sides of flows, enforces the timing-sample
// budget, finalizes into a FeatureMap, and round-trips its state through the
// checkpoint payload codec: encode() produces one per-shard section of the
// TPCK checkpoint.
//
// State is flat. A host table maps each internal address to a dense slot
// (open addressing, splitmix64-mixed linear probing); the per-host scalar
// counters live in one column per field, indexed by slot; and every buffered
// initiated-flow start time is one (slot, dst, t) record appended to a single
// event log. finalize() sorts the log stably on (slot, dst) — one counting
// scatter by slot, then each slot's events, while in cache, by an LSD radix
// sort over the destination's bytes — and folds each slot in one linear
// pass; reset() is a handful of clear()s that keep their capacity, so
// rolling a window frees nothing.
//
// Interstitial order is part of the contract: each host's pooled samples
// come out destination-ascending (by address value), then in time order
// within a destination. Features — interstitial vectors included — are
// therefore identical for any arrival order of the flows within the window,
// any shard count, and a restore from a checkpoint.
#pragma once

#include <cstdint>
#include <vector>

#include "detect/features.h"

namespace tradeplot::detect {

class PayloadReader;
class PayloadWriter;

class WindowAccumulator {
 public:
  /// Records `src` initiating a flow to `dst` at time `t`. Buffers the start
  /// time for churn/interstitial evidence unless the host was already shed;
  /// when `timing_budget` is non-zero and the buffered total crosses it, the
  /// lowest-evidence hosts are shed (fewest samples first, ties by address)
  /// down to ~3/4 of the budget and their events are compacted out of the
  /// log. The caller has already decided `src` is internal.
  void apply_initiator(simnet::Ipv4 src, simnet::Ipv4 dst, double t,
                       std::uint64_t bytes_src, bool failed, std::size_t timing_budget);

  /// Records internal host `dst` answering a successful flow at time `t`.
  void apply_responder(simnet::Ipv4 dst, double t, std::uint64_t bytes_dst);

  /// Sorts the event log on (slot, dst) and folds it into every host's
  /// features: distinct_dsts, dsts_after_first_hour (destinations first
  /// contacted after first_activity + grace) and the pooled interstitials
  /// (consecutive gaps of each destination's sorted times, in the canonical
  /// order above). Destructive: the event log doubles as sort scratch;
  /// call reset() before reusing the accumulator for the next window.
  [[nodiscard]] FeatureMap finalize(double grace);

  /// Drops all per-host state and the shed bookkeeping (window roll),
  /// keeping every buffer's capacity for the next window.
  void reset();

  [[nodiscard]] std::size_t host_count() const { return host_.size(); }
  [[nodiscard]] std::size_t timing_samples() const { return log_.size(); }
  [[nodiscard]] std::size_t hosts_shed() const { return hosts_shed_; }
  [[nodiscard]] std::size_t timing_samples_shed() const { return timing_samples_shed_; }

  /// Serializes the shed bookkeeping, the per-slot columns and the event
  /// log as array dumps (the TPCK v4 per-shard section); decode() is the
  /// exact inverse. decode() throws util::ParseError on truncation, a
  /// duplicate host, or an event naming a slot past the host count or a
  /// shed host, and allocates no array before its bytes are in the payload.
  void encode(PayloadWriter& w) const;
  void decode(PayloadReader& r);

 private:
  /// One buffered initiated-flow start time (16 bytes, dumped raw).
  struct Event {
    std::uint32_t slot;
    std::uint32_t dst;
    double t;
  };

  /// The slot of `host`, inserting it (first activity `t`) when new;
  /// otherwise lowers its first activity to `t` if earlier.
  std::uint32_t touch(simnet::Ipv4 host, double t);
  /// Rebuilds the host table at `buckets` (a power of two) from host_;
  /// throws util::ParseError if host_ names an address twice.
  void rehash(std::size_t buckets);
  void shed_timing_state(std::size_t timing_budget);
  /// Stable counting sort of log_ by slot into `sorted` (log_.size()
  /// events); fills run_begin_ so that slot s's events are
  /// [run_begin_[s], run_begin_[s + 1]) of it.
  void sort_by_slot(Event* sorted);
  /// Stable sort of `n` events by dst: insertion sort when short, else an
  /// LSD radix sort over dst's four bytes ping-ponging with `tmp`.
  static void sort_by_dst(Event* events, std::size_t n, Event* tmp);

  // Host table: bucket = (slot + 1) << 32 | address, 0 = empty. Load <= 1/2.
  std::vector<std::uint64_t> table_;

  // Per-slot columns.
  std::vector<std::uint32_t> host_;
  std::vector<std::uint64_t> flows_initiated_;
  std::vector<std::uint64_t> flows_failed_;
  std::vector<std::uint64_t> flows_received_;
  std::vector<std::uint64_t> bytes_initiated_;
  std::vector<std::uint64_t> bytes_received_;
  std::vector<double> first_activity_;
  std::vector<std::uint64_t> samples_;  // events of this slot in log_
  std::vector<std::uint8_t> shed_;      // budget shed dropped its timing state

  std::vector<Event> log_;
  std::vector<std::uint64_t> run_begin_;

  std::size_t hosts_shed_ = 0;
  std::size_t timing_samples_shed_ = 0;
};

}  // namespace tradeplot::detect
