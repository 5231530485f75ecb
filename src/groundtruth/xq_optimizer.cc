#include "groundtruth/xq_optimizer.h"

#include <algorithm>
#include <unordered_map>

#include "common/macros.h"
#include "common/string_util.h"

namespace wqe::groundtruth {

namespace {

/// Order-insensitive fingerprint of an article set (for memoizing O).
uint64_t SetFingerprint(const std::vector<NodeId>& base,
                        const std::vector<NodeId>& extra) {
  // Commutative hash: sum + xor of mixed ids is stable under ordering and
  // collision-safe enough for a per-query memo table.
  uint64_t sum = 0, xr = 0;
  auto mix = [](NodeId n) {
    uint64_t x = n + 0x9e3779b97f4a7c15ULL;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  for (NodeId n : base) {
    uint64_t m = mix(n);
    sum += m;
    xr ^= m * 31;
  }
  for (NodeId n : extra) {
    uint64_t m = mix(n);
    sum += m;
    xr ^= m * 31;
  }
  return sum ^ (xr << 1);
}

}  // namespace

Result<double> XqOptimizer::EvaluateArticles(
    const std::vector<NodeId>& articles,
    const ir::RelevantSet& relevant) const {
  std::vector<std::string> titles;
  titles.reserve(articles.size());
  for (NodeId a : articles) {
    titles.emplace_back(kb_->display_title(a));
  }
  auto results = engine_->SearchTitles(titles, options_.top_k);
  if (!results.ok()) {
    if (results.status().IsInvalidArgument()) return 0.0;  // empty query
    return results.status();
  }
  return ir::AverageTopRPrecision(*results, relevant);
}

Result<XqResult> XqOptimizer::Optimize(
    const std::vector<NodeId>& query_articles,
    const std::vector<NodeId>& candidates,
    const ir::RelevantSet& relevant) const {
  XqResult best_run;
  best_run.quality = -1.0;

  // Memo table shared across restarts.
  std::unordered_map<uint64_t, double> memo;
  uint64_t evaluations = 0;

  auto evaluate = [&](const std::vector<NodeId>& selected) -> Result<double> {
    ++evaluations;
    uint64_t key = SetFingerprint(query_articles, selected);
    auto it = memo.find(key);
    if (it != memo.end()) return it->second;
    std::vector<NodeId> all = query_articles;
    all.insert(all.end(), selected.begin(), selected.end());
    WQE_ASSIGN_OR_RETURN(double q, EvaluateArticles(all, relevant));
    memo.emplace(key, q);
    return q;
  };

  WQE_ASSIGN_OR_RETURN(double baseline,
                       EvaluateArticles(query_articles, relevant));

  if (candidates.empty()) {
    best_run.quality = baseline;
    best_run.baseline_quality = baseline;
    return best_run;
  }

  Rng rng(options_.seed);
  uint32_t restarts = std::max<uint32_t>(1, options_.restarts);
  uint32_t total_iterations = 0;

  for (uint32_t restart = 0; restart < restarts; ++restart) {
    std::vector<NodeId> selected;
    selected.push_back(
        candidates[rng.Uniform(static_cast<uint32_t>(candidates.size()))]);
    WQE_ASSIGN_OR_RETURN(double current, evaluate(selected));

    for (uint32_t iter = 0; iter < options_.max_iterations; ++iter) {
      // Best single operation this round.  REMOVE accepts ties (minimal
      // set); ADD and SWAP require strict improvement.
      enum class Op { kNone, kAdd, kRemove, kSwap };
      Op best_op = Op::kNone;
      double best_quality = current;
      size_t best_i = 0;   // index into selected (REMOVE/SWAP)
      NodeId best_c = graph::kInvalidNode;  // candidate (ADD/SWAP)
      bool best_is_tie_remove = false;

      // ADD
      for (NodeId c : candidates) {
        if (std::find(selected.begin(), selected.end(), c) !=
            selected.end()) {
          continue;
        }
        selected.push_back(c);
        WQE_ASSIGN_OR_RETURN(double q, evaluate(selected));
        selected.pop_back();
        if (q > best_quality + 1e-12) {
          best_quality = q;
          best_op = Op::kAdd;
          best_c = c;
        }
      }
      // REMOVE (tie-accepting)
      if (selected.size() > 1) {
        for (size_t i = 0; i < selected.size(); ++i) {
          std::vector<NodeId> trial = selected;
          trial.erase(trial.begin() + static_cast<ptrdiff_t>(i));
          WQE_ASSIGN_OR_RETURN(double q, evaluate(trial));
          bool strictly_better = q > best_quality + 1e-12;
          bool tie_with_current =
              best_op == Op::kNone && q >= current - 1e-12;
          if (strictly_better || (tie_with_current && !best_is_tie_remove)) {
            best_quality = q;
            best_op = Op::kRemove;
            best_i = i;
            best_is_tie_remove = !strictly_better;
          }
        }
      }
      // SWAP
      if (options_.enable_swap) {
        for (size_t i = 0; i < selected.size(); ++i) {
          for (NodeId c : candidates) {
            if (std::find(selected.begin(), selected.end(), c) !=
                selected.end()) {
              continue;
            }
            NodeId saved = selected[i];
            selected[i] = c;
            WQE_ASSIGN_OR_RETURN(double q, evaluate(selected));
            selected[i] = saved;
            if (q > best_quality + 1e-12) {
              best_quality = q;
              best_op = Op::kSwap;
              best_i = i;
              best_c = c;
            }
          }
        }
      }

      if (best_op == Op::kNone) break;
      ++total_iterations;
      switch (best_op) {
        case Op::kAdd:
          selected.push_back(best_c);
          break;
        case Op::kRemove:
          selected.erase(selected.begin() + static_cast<ptrdiff_t>(best_i));
          break;
        case Op::kSwap:
          selected[best_i] = best_c;
          break;
        case Op::kNone:
          break;
      }
      current = best_quality;
    }

    if (current > best_run.quality + 1e-12 ||
        (std::abs(current - best_run.quality) <= 1e-12 &&
         selected.size() < best_run.selected.size())) {
      best_run.selected = selected;
      best_run.quality = current;
    }
  }

  best_run.baseline_quality = baseline;
  best_run.iterations = total_iterations;
  best_run.evaluations = evaluations;
  std::sort(best_run.selected.begin(), best_run.selected.end());
  return best_run;
}

}  // namespace wqe::groundtruth
