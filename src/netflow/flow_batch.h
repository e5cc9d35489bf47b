// Columnar (structure-of-arrays) flow batches.
//
// FlowBatch holds the same fields as FlowRecord, but as parallel column
// vectors: one dense array per field, all indexed by row. The detection
// pipeline's scans (data reduction, the θ_vol/θ_churn scalar tests, the
// streaming detector's per-flow accumulation) each touch only a handful of
// fields per flow, so scanning a column batch streams ~30 bytes per flow
// through the cache instead of the full 144-byte AoS record, and the counter
// columns vectorize (stats::simd integer reductions are exactly associative,
// hence bit-identical to the scalar loops).
//
// The record-oriented API survives as views: FlowRecordView is a zero-cost
// (pointer + index) accessor that mirrors FlowRecord's interface over one
// row, and record(i) materializes a full FlowRecord when a copy is needed.
// Every TraceReader decoder fills FlowBatches in place; the binary v3 trace
// format (see io.h) stores these columns as contiguous fixed-stride blocks
// of at most kDefaultCapacity rows, so a block read is a handful of
// memcpy-sized reads.
//
// Capacity is a soft bound: push_back past capacity() grows the columns.
// Decoders fill at most capacity() rows per call, except that a binary v3
// block is never split.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "netflow/flow_record.h"

namespace tradeplot::netflow {

class FlowBatch;

/// Zero-cost row accessor over a FlowBatch: a (batch, row) pair exposing
/// FlowRecord's read interface. Valid only while the batch outlives the view
/// and the row is not truncated/cleared away.
class FlowRecordView {
 public:
  FlowRecordView(const FlowBatch& batch, std::size_t row) : batch_(&batch), row_(row) {}

  [[nodiscard]] simnet::Ipv4 src() const;
  [[nodiscard]] simnet::Ipv4 dst() const;
  [[nodiscard]] std::uint16_t sport() const;
  [[nodiscard]] std::uint16_t dport() const;
  [[nodiscard]] Protocol proto() const;
  [[nodiscard]] double start_time() const;
  [[nodiscard]] double end_time() const;
  [[nodiscard]] std::uint64_t pkts_src() const;
  [[nodiscard]] std::uint64_t pkts_dst() const;
  [[nodiscard]] std::uint64_t bytes_src() const;
  [[nodiscard]] std::uint64_t bytes_dst() const;
  [[nodiscard]] FlowState state() const;
  [[nodiscard]] std::uint8_t payload_len() const;

  [[nodiscard]] double duration() const { return end_time() - start_time(); }
  [[nodiscard]] std::uint64_t total_bytes() const { return bytes_src() + bytes_dst(); }
  [[nodiscard]] std::uint64_t total_pkts() const { return pkts_src() + pkts_dst(); }
  [[nodiscard]] bool failed() const { return state() != FlowState::kEstablished; }

  /// Payload prefix as a string_view into the batch (may contain NULs).
  [[nodiscard]] std::string_view payload_view() const;

  /// Copies the row out into a standalone FlowRecord.
  [[nodiscard]] FlowRecord materialize() const;

  [[nodiscard]] std::size_t row() const { return row_; }

 private:
  const FlowBatch* batch_;
  std::size_t row_;
};

class FlowBatch {
 public:
  /// Default row capacity: large enough that per-batch overheads amortize
  /// away, small enough that a batch's touched columns stay L2-resident.
  static constexpr std::size_t kDefaultCapacity = 4096;

  FlowBatch() : FlowBatch(kDefaultCapacity) {}
  explicit FlowBatch(std::size_t capacity);

  [[nodiscard]] std::size_t size() const { return src_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return src_.empty(); }
  /// True once size() reached the soft capacity; decoders stop filling here.
  [[nodiscard]] bool full() const { return size() >= capacity_; }

  /// Drops all rows; column storage is retained for reuse.
  void clear();

  /// Appends a copy of `r` (grows past capacity() if needed).
  void push_back(const FlowRecord& r);

  /// Appends one zero-initialized row (payload slot zeroed) and returns its
  /// index. Decoders fill the row in place through the mutable column
  /// accessors; a failed decode undoes the append with truncate(size()-1).
  std::size_t append_default();

  /// Appends `n` zero-initialized rows (bulk binary block reads decode
  /// straight into the columns afterwards).
  void append_default(std::size_t n);

  /// Drops rows [new_size, size()).
  void truncate(std::size_t new_size);

  /// Removes the given rows (strictly increasing indices), compacting the
  /// survivors downward in order. Cold path: binary v3 row quarantine.
  void erase_rows(const std::vector<std::uint32_t>& sorted_rows);

  [[nodiscard]] FlowRecordView row(std::size_t i) const { return {*this, i}; }
  [[nodiscard]] FlowRecord record(std::size_t i) const;

  // Column accessors (const + mutable). Pointers are invalidated by any
  // size-changing call, exactly like std::vector::data().
  [[nodiscard]] const simnet::Ipv4* src() const { return src_.data(); }
  [[nodiscard]] const simnet::Ipv4* dst() const { return dst_.data(); }
  [[nodiscard]] const std::uint16_t* sport() const { return sport_.data(); }
  [[nodiscard]] const std::uint16_t* dport() const { return dport_.data(); }
  [[nodiscard]] const Protocol* proto() const { return proto_.data(); }
  [[nodiscard]] const double* start_time() const { return start_.data(); }
  [[nodiscard]] const double* end_time() const { return end_.data(); }
  [[nodiscard]] const std::uint64_t* pkts_src() const { return pkts_src_.data(); }
  [[nodiscard]] const std::uint64_t* pkts_dst() const { return pkts_dst_.data(); }
  [[nodiscard]] const std::uint64_t* bytes_src() const { return bytes_src_.data(); }
  [[nodiscard]] const std::uint64_t* bytes_dst() const { return bytes_dst_.data(); }
  [[nodiscard]] const FlowState* state() const { return state_.data(); }
  [[nodiscard]] const std::uint8_t* payload_len() const { return payload_len_.data(); }

  [[nodiscard]] simnet::Ipv4* src() { return src_.data(); }
  [[nodiscard]] simnet::Ipv4* dst() { return dst_.data(); }
  [[nodiscard]] std::uint16_t* sport() { return sport_.data(); }
  [[nodiscard]] std::uint16_t* dport() { return dport_.data(); }
  [[nodiscard]] Protocol* proto() { return proto_.data(); }
  [[nodiscard]] double* start_time() { return start_.data(); }
  [[nodiscard]] double* end_time() { return end_.data(); }
  [[nodiscard]] std::uint64_t* pkts_src() { return pkts_src_.data(); }
  [[nodiscard]] std::uint64_t* pkts_dst() { return pkts_dst_.data(); }
  [[nodiscard]] std::uint64_t* bytes_src() { return bytes_src_.data(); }
  [[nodiscard]] std::uint64_t* bytes_dst() { return bytes_dst_.data(); }
  [[nodiscard]] FlowState* state() { return state_.data(); }
  [[nodiscard]] std::uint8_t* payload_len() { return payload_len_.data(); }

  /// Row `i`'s payload slot: kPayloadPrefixLen bytes at a fixed stride,
  /// zero-padded past payload_len()[i].
  [[nodiscard]] const unsigned char* payload(std::size_t i) const {
    return payload_.data() + i * kPayloadPrefixLen;
  }
  [[nodiscard]] unsigned char* payload(std::size_t i) {
    return payload_.data() + i * kPayloadPrefixLen;
  }
  [[nodiscard]] std::string_view payload_view(std::size_t i) const {
    return {reinterpret_cast<const char*>(payload(i)), payload_len_[i]};
  }

  // Whole-batch reductions over the counter columns (stats::simd-backed;
  // integer arithmetic, so bit-identical to a scalar loop in any order).
  [[nodiscard]] std::uint64_t total_bytes() const;  // Σ bytes_src + Σ bytes_dst
  [[nodiscard]] std::uint64_t total_pkts() const;   // Σ pkts_src + Σ pkts_dst
  /// Rows whose state is not kEstablished (== FlowRecord::failed()).
  [[nodiscard]] std::size_t failed_count() const;

 private:
  std::size_t capacity_;

  std::vector<simnet::Ipv4> src_;
  std::vector<simnet::Ipv4> dst_;
  std::vector<std::uint16_t> sport_;
  std::vector<std::uint16_t> dport_;
  std::vector<Protocol> proto_;
  std::vector<double> start_;
  std::vector<double> end_;
  std::vector<std::uint64_t> pkts_src_;
  std::vector<std::uint64_t> pkts_dst_;
  std::vector<std::uint64_t> bytes_src_;
  std::vector<std::uint64_t> bytes_dst_;
  std::vector<FlowState> state_;
  std::vector<std::uint8_t> payload_len_;
  /// Fixed-stride payload slots: row i occupies bytes
  /// [i*kPayloadPrefixLen, (i+1)*kPayloadPrefixLen), zero-padded.
  std::vector<unsigned char> payload_;
};

inline simnet::Ipv4 FlowRecordView::src() const { return batch_->src()[row_]; }
inline simnet::Ipv4 FlowRecordView::dst() const { return batch_->dst()[row_]; }
inline std::uint16_t FlowRecordView::sport() const { return batch_->sport()[row_]; }
inline std::uint16_t FlowRecordView::dport() const { return batch_->dport()[row_]; }
inline Protocol FlowRecordView::proto() const { return batch_->proto()[row_]; }
inline double FlowRecordView::start_time() const { return batch_->start_time()[row_]; }
inline double FlowRecordView::end_time() const { return batch_->end_time()[row_]; }
inline std::uint64_t FlowRecordView::pkts_src() const { return batch_->pkts_src()[row_]; }
inline std::uint64_t FlowRecordView::pkts_dst() const { return batch_->pkts_dst()[row_]; }
inline std::uint64_t FlowRecordView::bytes_src() const { return batch_->bytes_src()[row_]; }
inline std::uint64_t FlowRecordView::bytes_dst() const { return batch_->bytes_dst()[row_]; }
inline FlowState FlowRecordView::state() const { return batch_->state()[row_]; }
inline std::uint8_t FlowRecordView::payload_len() const { return batch_->payload_len()[row_]; }
inline std::string_view FlowRecordView::payload_view() const {
  return batch_->payload_view(row_);
}
inline FlowRecord FlowRecordView::materialize() const { return batch_->record(row_); }

}  // namespace tradeplot::netflow
