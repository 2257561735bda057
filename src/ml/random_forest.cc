#include "src/ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "src/common/check.h"

namespace mudi {

struct RandomForestRegressor::Node {
  // Leaf when feature < 0.
  int feature = -1;
  double threshold = 0.0;
  double value = 0.0;
  int left = -1;
  int right = -1;
};

struct RandomForestRegressor::Tree {
  std::vector<Node> nodes;

  double Predict(const std::vector<double>& x) const {
    int idx = 0;
    while (nodes[static_cast<size_t>(idx)].feature >= 0) {
      const Node& n = nodes[static_cast<size_t>(idx)];
      idx = x[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right;
    }
    return nodes[static_cast<size_t>(idx)].value;
  }
};

namespace {

struct SplitResult {
  int feature = -1;
  double threshold = 0.0;
  double score = std::numeric_limits<double>::infinity();  // weighted child SSE
};

// Split-search buffers shared by every split of every tree in one Fit: the
// (feature value, target) column, its prefix sums, the per-split feature
// shuffle, and the right child's indices during a partition. Sized once from
// the sample and feature counts, so growing a tree never allocates.
struct SplitScratch {
  std::vector<std::pair<double, double>> col;
  std::vector<double> prefix_sum;
  std::vector<double> prefix_sq;
  std::vector<int> features;
  std::vector<size_t> right;

  SplitScratch(size_t n, size_t d)
      : col(n), prefix_sum(n + 1, 0.0), prefix_sq(n + 1, 0.0), features(d), right(n) {}
};

double SubsetMean(const std::vector<double>& y, const size_t* idx, size_t count) {
  double sum = 0.0;
  for (size_t k = 0; k < count; ++k) {
    sum += y[idx[k]];
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double SubsetSse(const std::vector<double>& y, const size_t* idx, size_t count) {
  double mean = SubsetMean(y, idx, count);
  double sse = 0.0;
  for (size_t k = 0; k < count; ++k) {
    sse += (y[idx[k]] - mean) * (y[idx[k]] - mean);
  }
  return sse;
}

// MUDI_HOT_PATH  once per candidate split; every buffer is in `scratch`.
SplitResult FindBestSplit(const std::vector<std::vector<double>>& x, const std::vector<double>& y,
                          const size_t* idx, size_t n, size_t num_features,
                          size_t min_samples_leaf, SplitScratch* scratch) {
  SplitResult best;
  auto& col = scratch->col;  // (feature value, target)
  auto& prefix_sum = scratch->prefix_sum;
  auto& prefix_sq = scratch->prefix_sq;
  for (size_t fi = 0; fi < num_features; ++fi) {
    int f = scratch->features[fi];
    for (size_t k = 0; k < n; ++k) {
      col[k] = {x[idx[k]][static_cast<size_t>(f)], y[idx[k]]};
    }
    std::sort(col.begin(), col.begin() + static_cast<std::ptrdiff_t>(n));
    // Prefix sums enable O(n) evaluation of every split position; entry 0
    // stays 0.0 from construction.
    for (size_t i = 0; i < n; ++i) {
      prefix_sum[i + 1] = prefix_sum[i] + col[i].second;
      prefix_sq[i + 1] = prefix_sq[i] + col[i].second * col[i].second;
    }
    for (size_t split = min_samples_leaf; split + min_samples_leaf <= n; ++split) {
      if (col[split - 1].first == col[split].first) {
        continue;  // cannot separate equal feature values
      }
      double ls = prefix_sum[split];
      double lq = prefix_sq[split];
      double rs = prefix_sum[n] - ls;
      double rq = prefix_sq[n] - lq;
      double nl = static_cast<double>(split);
      double nr = static_cast<double>(n - split);
      double sse = (lq - ls * ls / nl) + (rq - rs * rs / nr);
      if (sse < best.score) {
        best.score = sse;
        best.feature = f;
        best.threshold = 0.5 * (col[split - 1].first + col[split].first);
      }
    }
  }
  return best;
}
// MUDI_HOT_PATH_END

}  // namespace

RandomForestRegressor::RandomForestRegressor(RandomForestOptions options)
    : options_(options) {
  MUDI_CHECK_GT(options_.num_trees, 0u);
  MUDI_CHECK_GT(options_.min_samples_leaf, 0u);
  MUDI_CHECK_GT(options_.feature_fraction, 0.0);
  MUDI_CHECK_LE(options_.feature_fraction, 1.0);
}

RandomForestRegressor::~RandomForestRegressor() = default;

void RandomForestRegressor::Fit(const std::vector<std::vector<double>>& x,
                                const std::vector<double>& y) {
  MUDI_CHECK(!x.empty());
  MUDI_CHECK_EQ(x.size(), y.size());
  size_t n = x.size();
  size_t d = x[0].size();
  MUDI_CHECK_GT(d, 0u);
  Rng rng(options_.seed);
  trees_.clear();
  trees_.reserve(options_.num_trees);

  size_t features_per_split =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(options_.feature_fraction *
                                                        static_cast<double>(d))));

  // Each node owns a contiguous range of `idx`; a split stably partitions its
  // range into the left child's range followed by the right child's, so both
  // children see their samples in the order a fresh index list would hold.
  struct WorkItem {
    size_t begin;
    size_t end;
    size_t depth;
    int node_slot;
  };
  SplitScratch scratch(n, d);
  std::vector<size_t> idx(n);
  // Every split adds one leaf and leaves are non-empty, so a tree has at most
  // 2n - 1 nodes. Depth-first, the stack holds at most one pending sibling
  // per level plus the pair just pushed, and a node at depth k holds at most
  // n - k samples.
  std::vector<Node> nodes(2 * n - 1);
  std::vector<WorkItem> stack(std::min(options_.max_depth, n) + 2);

  for (size_t t = 0; t < options_.num_trees; ++t) {
    // Bootstrap sample.
    for (size_t i = 0; i < n; ++i) {
      idx[i] = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    }

    // Iterative depth-first construction.
    // MUDI_HOT_PATH  once per node; nodes, stack and scratch are sized above.
    size_t used = 1;
    nodes[0] = Node{};
    size_t top = 0;
    stack[top++] = {0, n, 0, 0};
    while (top > 0) {
      WorkItem item = stack[--top];
      const size_t* range = idx.data() + item.begin;
      size_t count = item.end - item.begin;
      Node& node = nodes[static_cast<size_t>(item.node_slot)];
      node.value = SubsetMean(y, range, count);
      bool should_split = item.depth < options_.max_depth &&
                          count >= 2 * options_.min_samples_leaf &&
                          SubsetSse(y, range, count) > 1e-12;
      if (!should_split) {
        continue;
      }
      // Random feature subset for this split: the first features_per_split
      // entries of a fresh shuffle of 0..d-1.
      for (size_t j = 0; j < d; ++j) {
        scratch.features[j] = static_cast<int>(j);
      }
      rng.Shuffle(scratch.features);

      SplitResult split = FindBestSplit(x, y, range, count, features_per_split,
                                        options_.min_samples_leaf, &scratch);
      if (split.feature < 0) {
        continue;
      }
      size_t left = 0;
      size_t right = 0;
      for (size_t k = item.begin; k < item.end; ++k) {
        size_t i = idx[k];
        if (x[i][static_cast<size_t>(split.feature)] <= split.threshold) {
          idx[item.begin + left++] = i;
        } else {
          scratch.right[right++] = i;
        }
      }
      std::copy(scratch.right.begin(), scratch.right.begin() + static_cast<std::ptrdiff_t>(right),
                idx.begin() + static_cast<std::ptrdiff_t>(item.begin + left));
      if (left < options_.min_samples_leaf || right < options_.min_samples_leaf) {
        continue;
      }
      MUDI_CHECK_LE(used + 2, nodes.size());
      int left_slot = static_cast<int>(used);
      int right_slot = static_cast<int>(used + 1);
      nodes[used++] = Node{};
      nodes[used++] = Node{};
      node.feature = split.feature;
      node.threshold = split.threshold;
      node.left = left_slot;
      node.right = right_slot;
      MUDI_CHECK_LE(top + 2, stack.size());
      stack[top++] = {item.begin, item.begin + left, item.depth + 1, left_slot};
      stack[top++] = {item.begin + left, item.end, item.depth + 1, right_slot};
    }
    // MUDI_HOT_PATH_END
    auto tree = std::make_unique<Tree>();
    tree->nodes.assign(nodes.begin(), nodes.begin() + static_cast<std::ptrdiff_t>(used));
    trees_.push_back(std::move(tree));
  }
}

double RandomForestRegressor::Predict(const std::vector<double>& x) const {
  MUDI_CHECK(!trees_.empty());
  double sum = 0.0;
  for (const auto& tree : trees_) {
    sum += tree->Predict(x);
  }
  return sum / static_cast<double>(trees_.size());
}

}  // namespace mudi
