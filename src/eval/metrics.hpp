// Evaluation metrics (paper Sec. VI-A2): recall, precision, accuracy,
// F-measure, and the confusion matrix of Fig. 11.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace echoimage::eval {

/// Label used for spoofers / rejected samples.
inline constexpr int kSpooferLabel = -1;

/// Binary counts and the derived metrics.
struct BinaryCounts {
  std::size_t tp = 0, tn = 0, fp = 0, fn = 0;

  [[nodiscard]] double recall() const;     ///< tp / (tp + fn)
  [[nodiscard]] double precision() const;  ///< tp / (tp + fp)
  [[nodiscard]] double accuracy() const;   ///< (tp + tn) / total
  [[nodiscard]] double f_measure() const;  ///< harmonic mean (Eq. 16)
};

/// Multi-class confusion matrix over integer labels (kSpooferLabel allowed).
class ConfusionMatrix {
 public:
  void add(int actual, int predicted);

  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] std::size_t count(int actual, int predicted) const;
  [[nodiscard]] std::vector<int> labels() const;  ///< sorted distinct labels

  /// Overall fraction of correctly classified samples.
  [[nodiscard]] double accuracy() const;

  /// One-vs-rest binary counts for a label.
  [[nodiscard]] BinaryCounts binary_for(int label) const;

  /// Macro averages over the given labels (all labels when empty).
  [[nodiscard]] double macro_recall(const std::vector<int>& over = {}) const;
  [[nodiscard]] double macro_precision(const std::vector<int>& over = {}) const;
  [[nodiscard]] double macro_f_measure(const std::vector<int>& over = {}) const;

  /// Fraction of rows with `actual == label` that were predicted correctly
  /// (per-class recall; the diagonal of a row-normalized matrix).
  [[nodiscard]] double per_class_accuracy(int label) const;

  /// Render as an ASCII table with row-normalized percentages.
  [[nodiscard]] std::string to_string() const;

 private:
  std::map<std::pair<int, int>, std::size_t> cells_;
  std::map<int, std::size_t> row_totals_;
  std::size_t total_ = 0;
};

/// One operating point of a detector ROC.
struct RocPoint {
  double threshold = 0.0;
  double tpr = 0.0;  ///< genuine-accept rate at this threshold
  double fpr = 0.0;  ///< impostor-accept rate at this threshold
};

/// ROC curve over decision scores (higher score = more genuine). Built by
/// sweeping the threshold across every distinct score.
class RocCurve {
 public:
  /// Throws std::invalid_argument when either score set is empty.
  RocCurve(std::vector<double> genuine_scores,
           std::vector<double> impostor_scores);

  [[nodiscard]] const std::vector<RocPoint>& points() const {
    return points_;
  }

  /// Area under the curve via trapezoidal integration (0.5 = chance).
  [[nodiscard]] double auc() const;

  /// Equal error rate: the rate where FPR = 1 - TPR (linear interpolation
  /// between bracketing operating points).
  [[nodiscard]] double eer() const;

 private:
  std::vector<RocPoint> points_;  ///< sorted by descending threshold
};

}  // namespace echoimage::eval
