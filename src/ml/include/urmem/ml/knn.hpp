// K-nearest-neighbors classification — the paper's classification
// benchmark (Table 1, activity-recognition dataset, score metric).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "urmem/ml/matrix.hpp"

namespace urmem {

/// One training row as seen from a query: its squared distance and
/// its row index. Neighbors order by (d2, index), so equal distances go
/// to the earlier training row.
struct knn_neighbor {
  double d2;
  std::size_t index;
};

/// Exact Euclidean KNN with majority vote. Neighbors are the k smallest
/// (squared distance, training index) pairs, so equal distances go to
/// the earlier training row; vote ties break toward the smaller label
/// (scikit-learn's deterministic behaviour).
///
/// fit() keeps the training set in a row-blocked layout: `block_rows`
/// consecutive training rows are interleaved feature by feature, so one
/// query's distances to a whole block accumulate side by side. Each
/// squared distance still sums its feature terms in order 0..p-1, which
/// keeps every distance — and so every prediction — bit-identical to a
/// row-by-row brute-force pass.
class knn_classifier {
 public:
  /// Training rows interleaved per block.
  static constexpr std::size_t block_rows = 8;

  /// `k` neighbors considered per query.
  explicit knn_classifier(std::size_t k = 5);

  /// Stores the training set (n x p features, n labels), n >= k.
  void fit(const matrix& x, const std::vector<int>& labels);

  /// Predicted label of one query row.
  [[nodiscard]] int predict_one(std::span<const double> query) const;

  /// Predicted labels for every row of `x`.
  [[nodiscard]] std::vector<int> predict(const matrix& x) const;

  /// Mean accuracy on a labeled holdout set.
  [[nodiscard]] double score(const matrix& x,
                             const std::vector<int>& labels) const;

 private:
  friend class knn_delta_classifier;
  struct scratch;

  [[nodiscard]] scratch make_scratch() const;
  [[nodiscard]] int classify(std::span<const double> query,
                             scratch& work) const;
  /// Majority label of the k neighbors `best`.
  [[nodiscard]] int vote(std::span<const knn_neighbor> best,
                         scratch& work) const;

  std::size_t k_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> blocked_;           // [block][feature][row in block]
  std::vector<std::size_t> label_index_;  // training row -> classes_ index
  std::vector<int> classes_;              // distinct labels, ascending
};

/// KNN predictions for one fixed query set against training sets that
/// differ from a clean one in a few rows: the per-trial fast path of
/// the Fig. 7 sweep, where faults change only the rows they land in.
///
/// Construction keeps, per query, the first `prefix_width` clean
/// neighbors in (d2, index) order (16 bytes each), never the full
/// query x row distance table. predict() then, per query:
///   1. seeds the k nearest with the first k prefix entries whose rows
///      did not change: dropping changed rows keeps the clean order of
///      the rest, so these are the k nearest unchanged rows;
///   2. computes d2 for the changed rows only, with knn_classifier's
///      own blocked distance routine, and offers them to that list
///      under the (d2, index) rule;
///   3. votes as knn_classifier does.
/// A query whose prefix holds fewer than k unchanged rows falls back to
/// an exact full scan of the stored rows. Every prediction is
/// bit-identical to knn_classifier fitted on the stored rows.
class knn_delta_classifier {
 public:
  /// Clean neighbors kept per query.
  static constexpr std::size_t prefix_width = 32;

  /// Clean context: `k` neighbors, the clean training set and its
  /// labels, and the queries every predict() call classifies.
  knn_delta_classifier(std::size_t k, const matrix& clean_train,
                       std::vector<int> train_labels, matrix queries);

  /// knn_classifier(k) fitted on (`stored`, train labels), predicting
  /// every query. `changed_rows` lists, strictly ascending, every row in
  /// which `stored` differs from the clean training set; listing an
  /// unchanged row as well is allowed and only costs time.
  [[nodiscard]] std::vector<int> predict(
      const matrix& stored, std::span<const std::size_t> changed_rows) const;

  /// Query `query`'s clean prefix, ascending (d2, index).
  [[nodiscard]] std::span<const knn_neighbor> clean_prefix(
      std::size_t query) const;

 private:
  knn_classifier clean_;
  std::vector<int> train_labels_;
  matrix queries_;
  std::size_t width_;                 // min(prefix_width, training rows)
  std::vector<knn_neighbor> prefix_;  // [query][width_]
};

}  // namespace urmem
