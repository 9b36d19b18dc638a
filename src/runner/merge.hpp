#pragma once
// At-most-once RunRow merge for the distributed sweep backend.
//
// The coordinator partitions the expanded spec list into contiguous work
// units and hands them to whichever worker pulls next. Workers can die,
// units can be reassigned after a timeout, and a slow original worker can
// still deliver its batch after the reassigned copy already did — so every
// result batch is merged at most once, keyed by the spec-index range it
// covers. Because run execution is deterministic, any accepted copy of a
// batch carries identical rows; first-wins is therefore also only-wins.
//
// The merger itself is single-threaded; the coordinator serializes access
// under its state mutex.

#include <cstdint>
#include <vector>

#include "runner/report.hpp"

namespace sb::runner {

class ResultMerger {
 public:
  enum class Accept {
    kMerged,     ///< batch stored; rows now live at their spec indices
    kDuplicate,  ///< every index already filled (late redelivery) — dropped
    kInvalid,    ///< out-of-range, empty, or half-overlapping — dropped
  };

  /// `total` is the expanded spec count; complete() once every index is
  /// filled exactly once.
  explicit ResultMerger(size_t total);

  /// Offers rows covering spec indices [begin, begin + rows.size()).
  /// A batch is all-or-nothing: it must lie in range and cover only
  /// unfilled indices (a batch that half-overlaps a merged one is malformed
  /// — fixed unit boundaries make that impossible in a healthy fleet — and
  /// is rejected as kInvalid without partial effects).
  Accept accept(size_t begin, std::vector<RunRow> rows);

  [[nodiscard]] bool complete() const { return merged_ == filled_.size(); }
  [[nodiscard]] size_t merged() const { return merged_; }
  [[nodiscard]] size_t total() const { return filled_.size(); }
  [[nodiscard]] bool has(size_t index) const {
    return index < filled_.size() && filled_[index];
  }

  /// The merged rows in spec order. Call only when complete().
  [[nodiscard]] std::vector<RunRow> take_rows();

 private:
  std::vector<RunRow> rows_;
  std::vector<bool> filled_;
  size_t merged_ = 0;
};

}  // namespace sb::runner
