#include "urmem/ml/knn.hpp"

#include <algorithm>
#include <cstring>

#include "urmem/common/contracts.hpp"
#include "urmem/ml/metrics.hpp"

namespace urmem {

/// Per-call working memory: the k nearest so far and the vote tally.
/// Each predict call owns one, so a fitted model is safe to share
/// across threads.
struct knn_classifier::scratch {
  std::vector<neighbor> best;      // k slots, ascending (d2, index)
  std::vector<std::size_t> votes;  // per class, all zero between queries
};

knn_classifier::knn_classifier(std::size_t k) : k_(k) {
  expects(k >= 1, "k must be at least 1");
}

void knn_classifier::fit(const matrix& x, const std::vector<int>& labels) {
  expects(x.rows() == labels.size(), "feature/label count mismatch");
  expects(x.rows() >= k_, "training set smaller than k");
  rows_ = x.rows();
  cols_ = x.cols();
  const std::size_t blocks = (rows_ + block_rows - 1) / block_rows;
  blocked_.assign(blocks * cols_ * block_rows, 0.0);  // padding rows stay 0
  for (std::size_t i = 0; i < rows_; ++i) {
    double* block = blocked_.data() + (i / block_rows) * cols_ * block_rows;
    for (std::size_t j = 0; j < cols_; ++j) {
      block[j * block_rows + i % block_rows] = x(i, j);
    }
  }

  classes_ = labels;
  std::sort(classes_.begin(), classes_.end());
  classes_.erase(std::unique(classes_.begin(), classes_.end()),
                 classes_.end());
  label_index_.resize(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    label_index_[i] = static_cast<std::size_t>(
        std::lower_bound(classes_.begin(), classes_.end(), labels[i]) -
        classes_.begin());
  }
}

namespace {

// Two doubles in one vector register (GCC/Clang vector extension; SSE2
// or NEON). Each lane does exactly the scalar `d2 += d * d`. Spelled
// out because GCC's loop vectorizer otherwise vectorizes the feature
// loop across features and spends most of its time on lane shuffles.
using lane_pair = double __attribute__((vector_size(2 * sizeof(double))));
constexpr std::size_t pairs_per_block = knn_classifier::block_rows / 2;
static_assert(knn_classifier::block_rows % 2 == 0,
              "blocks hold whole lane pairs");

}  // namespace

int knn_classifier::classify(std::span<const double> query,
                             scratch& work) const {
  std::vector<neighbor>& best = work.best;
  std::size_t filled = 0;
  const std::size_t blocks = (rows_ + block_rows - 1) / block_rows;
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* block = blocked_.data() + b * cols_ * block_rows;
    lane_pair acc[pairs_per_block] = {};
    for (std::size_t j = 0; j < cols_; ++j) {
      const lane_pair q = {query[j], query[j]};
      lane_pair x[pairs_per_block];
      std::memcpy(x, block + j * block_rows, sizeof x);
      for (std::size_t r = 0; r < pairs_per_block; ++r) {
        const lane_pair d = x[r] - q;
        acc[r] += d * d;
      }
    }
    double d2[block_rows];
    std::memcpy(d2, acc, sizeof d2);
    const std::size_t first = b * block_rows;
    const std::size_t count = std::min(block_rows, rows_ - first);
    for (std::size_t r = 0; r < count; ++r) {
      // Candidates arrive in ascending index, so (d2, index) beats the
      // current k-th neighbor exactly when d2 is strictly smaller.
      if (filled == k_ && !(d2[r] < best[k_ - 1].d2)) continue;
      std::size_t pos = filled < k_ ? filled++ : k_ - 1;
      for (; pos > 0 && d2[r] < best[pos - 1].d2; --pos) {
        best[pos] = best[pos - 1];
      }
      best[pos] = {d2[r], first + r};
    }
  }

  std::vector<std::size_t>& votes = work.votes;
  for (std::size_t i = 0; i < k_; ++i) ++votes[label_index_[best[i].index]];
  std::size_t winner = label_index_[best[0].index];
  for (std::size_t i = 0; i < k_; ++i) {
    const std::size_t c = label_index_[best[i].index];
    if (votes[c] > votes[winner] || (votes[c] == votes[winner] && c < winner)) {
      winner = c;
    }
  }
  for (std::size_t i = 0; i < k_; ++i) votes[label_index_[best[i].index]] = 0;
  return classes_[winner];
}

int knn_classifier::predict_one(std::span<const double> query) const {
  expects(rows_ != 0, "fit must be called before predict");
  expects(query.size() == cols_, "query dimension mismatch");
  scratch work{std::vector<neighbor>(k_),
               std::vector<std::size_t>(classes_.size())};
  return classify(query, work);
}

std::vector<int> knn_classifier::predict(const matrix& x) const {
  expects(rows_ != 0, "fit must be called before predict");
  expects(x.cols() == cols_, "query dimension mismatch");
  scratch work{std::vector<neighbor>(k_),
               std::vector<std::size_t>(classes_.size())};
  std::vector<int> out;
  out.reserve(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    out.push_back(classify(x.row(i), work));
  }
  return out;
}

double knn_classifier::score(const matrix& x,
                             const std::vector<int>& labels) const {
  const std::vector<int> predicted = predict(x);
  return accuracy_score(labels, predicted);
}

}  // namespace urmem
