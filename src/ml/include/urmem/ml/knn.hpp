// K-nearest-neighbors classification — the paper's classification
// benchmark (Table 1, activity-recognition dataset, score metric).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "urmem/ml/matrix.hpp"

namespace urmem {

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
  struct neighbor {
    double d2;
    std::size_t index;
  };
  struct scratch;

  [[nodiscard]] int classify(std::span<const double> query,
                             scratch& work) const;

  std::size_t k_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> blocked_;           // [block][feature][row in block]
  std::vector<std::size_t> label_index_;  // training row -> classes_ index
  std::vector<int> classes_;              // distinct labels, ascending
};

}  // namespace urmem
