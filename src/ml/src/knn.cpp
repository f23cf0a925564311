#include "urmem/ml/knn.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "urmem/common/contracts.hpp"
#include "urmem/ml/metrics.hpp"

namespace urmem {

/// Per-call working memory: the k nearest so far and the vote tally.
/// Each predict call owns one, so a fitted model is safe to share
/// across threads.
struct knn_classifier::scratch {
  std::vector<knn_neighbor> best;  // k slots, ascending (d2, index)
  std::vector<std::size_t> votes;  // per class, all zero between queries
};

namespace {

constexpr std::size_t block_rows = knn_classifier::block_rows;

// Two doubles in one vector register (GCC/Clang vector extension; SSE2
// or NEON). Each lane does exactly the scalar `d2 += d * d`. Spelled
// out because GCC's loop vectorizer otherwise vectorizes the feature
// loop across features and spends most of its time on lane shuffles.
using lane_pair = double __attribute__((vector_size(2 * sizeof(double))));
constexpr std::size_t pairs_per_block = block_rows / 2;
static_assert(block_rows % 2 == 0, "blocks hold whole lane pairs");

/// Lays rows row_of(0), ..., row_of(count - 1) of `x` out row-blocked:
/// [block][feature][row in block], padding rows 0.
template <typename RowOf>
std::vector<double> to_blocked(const matrix& x, std::size_t count,
                               RowOf row_of) {
  const std::size_t cols = x.cols();
  const std::size_t blocks = (count + block_rows - 1) / block_rows;
  std::vector<double> blocked(blocks * cols * block_rows, 0.0);
  for (std::size_t r = 0; r < count; ++r) {
    double* block = blocked.data() + (r / block_rows) * cols * block_rows;
    const std::span<const double> row = x.row(row_of(r));
    for (std::size_t j = 0; j < cols; ++j) {
      block[j * block_rows + r % block_rows] = row[j];
    }
  }
  return blocked;
}

/// The one squared-distance routine: calls visit(r, d2) for rows
/// r = 0..count-1 of a row-blocked layout, in order. Every d2 sums its
/// feature terms in order 0..p-1, whatever block lane the row sits in.
template <typename Visit>
void for_each_distance(const std::vector<double>& blocked, std::size_t count,
                       std::span<const double> query, Visit&& visit) {
  const std::size_t cols = query.size();
  const std::size_t blocks = (count + block_rows - 1) / block_rows;
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* block = blocked.data() + b * cols * block_rows;
    lane_pair acc[pairs_per_block] = {};
    for (std::size_t j = 0; j < cols; ++j) {
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
    const std::size_t rows = std::min(block_rows, count - first);
    for (std::size_t r = 0; r < rows; ++r) visit(first + r, d2[r]);
  }
}

bool nearer(const knn_neighbor& a, const knn_neighbor& b) {
  return a.d2 < b.d2 || (a.d2 == b.d2 && a.index < b.index);
}

/// Offers rows of a row-blocked layout to the running k nearest
/// `best[0, filled)`, kept ascending under nearer(); index_of(r) is
/// layout row r's training index. Returns the new fill count.
template <typename IndexOf>
std::size_t offer_rows(const std::vector<double>& blocked, std::size_t count,
                       std::span<const double> query, IndexOf index_of,
                       std::span<knn_neighbor> best, std::size_t filled) {
  const std::size_t k = best.size();
  for_each_distance(blocked, count, query, [&](std::size_t r, double d2) {
    // Most rows are strictly farther than the k-th: reject those before
    // looking up the index.
    if (filled == k && d2 > best[k - 1].d2) return;
    const knn_neighbor candidate{d2, index_of(r)};
    if (filled == k && !nearer(candidate, best[k - 1])) return;
    std::size_t pos = filled < k ? filled++ : k - 1;
    for (; pos > 0 && nearer(candidate, best[pos - 1]); --pos) {
      best[pos] = best[pos - 1];
    }
    best[pos] = candidate;
  });
  return filled;
}

}  // namespace

knn_classifier::knn_classifier(std::size_t k) : k_(k) {
  expects(k >= 1, "k must be at least 1");
}

void knn_classifier::fit(const matrix& x, const std::vector<int>& labels) {
  expects(x.rows() == labels.size(), "feature/label count mismatch");
  expects(x.rows() >= k_, "training set smaller than k");
  rows_ = x.rows();
  cols_ = x.cols();
  blocked_ = to_blocked(x, rows_, [](std::size_t r) { return r; });

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

knn_classifier::scratch knn_classifier::make_scratch() const {
  return {std::vector<knn_neighbor>(k_),
          std::vector<std::size_t>(classes_.size())};
}

int knn_classifier::classify(std::span<const double> query,
                             scratch& work) const {
  offer_rows(blocked_, rows_, query, [](std::size_t r) { return r; },
             work.best, 0);
  return vote(work.best, work);
}

int knn_classifier::vote(std::span<const knn_neighbor> best,
                         scratch& work) const {
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
  scratch work = make_scratch();
  return classify(query, work);
}

std::vector<int> knn_classifier::predict(const matrix& x) const {
  expects(rows_ != 0, "fit must be called before predict");
  expects(x.cols() == cols_, "query dimension mismatch");
  scratch work = make_scratch();
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

// --------------------------------------------------- knn_delta_classifier

knn_delta_classifier::knn_delta_classifier(std::size_t k,
                                           const matrix& clean_train,
                                           std::vector<int> train_labels,
                                           matrix queries)
    : clean_(k),
      train_labels_(std::move(train_labels)),
      queries_(std::move(queries)),
      width_(std::min(prefix_width, clean_train.rows())) {
  clean_.fit(clean_train, train_labels_);
  expects(queries_.cols() == clean_train.cols(), "query dimension mismatch");
  prefix_.reserve(queries_.rows() * width_);
  std::vector<knn_neighbor> all(clean_.rows_);
  for (std::size_t q = 0; q < queries_.rows(); ++q) {
    for_each_distance(clean_.blocked_, clean_.rows_, queries_.row(q),
                      [&](std::size_t r, double d2) { all[r] = {d2, r}; });
    const auto end = all.begin() + static_cast<std::ptrdiff_t>(width_);
    std::partial_sort(all.begin(), end, all.end(), nearer);
    prefix_.insert(prefix_.end(), all.begin(), end);
  }
}

std::span<const knn_neighbor> knn_delta_classifier::clean_prefix(
    std::size_t query) const {
  expects(query < queries_.rows(), "query index out of range");
  return std::span<const knn_neighbor>(prefix_).subspan(query * width_,
                                                        width_);
}

std::vector<int> knn_delta_classifier::predict(
    const matrix& stored, std::span<const std::size_t> changed_rows) const {
  const std::size_t rows = clean_.rows_;
  const std::size_t k = clean_.k_;
  expects(stored.rows() == rows && stored.cols() == clean_.cols_,
          "stored training set has the wrong shape");
  std::vector<char> changed(rows, 0);
  for (std::size_t i = 0; i < changed_rows.size(); ++i) {
    expects(changed_rows[i] < rows &&
                (i == 0 || changed_rows[i - 1] < changed_rows[i]),
            "changed rows must be strictly ascending training rows");
    changed[changed_rows[i]] = 1;
  }
  const std::vector<double> changed_blocked =
      to_blocked(stored, changed_rows.size(),
                 [&](std::size_t r) { return changed_rows[r]; });

  knn_classifier::scratch work = clean_.make_scratch();
  std::optional<knn_classifier> full;  // fitted on `stored` at first need
  std::vector<int> predicted;
  predicted.reserve(queries_.rows());
  for (std::size_t q = 0; q < queries_.rows(); ++q) {
    const std::span<const double> query = queries_.row(q);
    // Seed with the first k unchanged prefix entries: dropping changed
    // rows keeps the clean order of the rest, so these are the k
    // nearest unchanged rows. Then offer only the changed rows.
    std::size_t kept = 0;
    for (const knn_neighbor& n : clean_prefix(q)) {
      if (kept == k) break;
      if (changed[n.index] == 0) work.best[kept++] = n;
    }
    if (kept < k) {
      if (!full) {
        full.emplace(k);
        full->fit(stored, train_labels_);
      }
      predicted.push_back(full->classify(query, work));  // same labels
      continue;
    }
    offer_rows(changed_blocked, changed_rows.size(), query,
               [&](std::size_t r) { return changed_rows[r]; }, work.best, k);
    predicted.push_back(clean_.vote(work.best, work));
  }
  return predicted;
}

}  // namespace urmem
