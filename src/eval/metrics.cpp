#include "eval/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace echoimage::eval {

namespace {
double safe_div(double num, double den) { return den > 0.0 ? num / den : 0.0; }
}  // namespace

double BinaryCounts::recall() const {
  return safe_div(static_cast<double>(tp), static_cast<double>(tp + fn));
}

double BinaryCounts::precision() const {
  return safe_div(static_cast<double>(tp), static_cast<double>(tp + fp));
}

double BinaryCounts::accuracy() const {
  return safe_div(static_cast<double>(tp + tn),
                  static_cast<double>(tp + tn + fp + fn));
}

double BinaryCounts::f_measure() const {
  const double p = precision(), r = recall();
  return (p + r) > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

void ConfusionMatrix::add(int actual, int predicted) {
  ++cells_[{actual, predicted}];
  ++row_totals_[actual];
  ++total_;
}

std::size_t ConfusionMatrix::count(int actual, int predicted) const {
  const auto it = cells_.find({actual, predicted});
  return it == cells_.end() ? 0 : it->second;
}

std::vector<int> ConfusionMatrix::labels() const {
  std::vector<int> out;
  for (const auto& [key, _] : cells_) {
    for (const int l : {key.first, key.second})
      if (std::find(out.begin(), out.end(), l) == out.end()) out.push_back(l);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double ConfusionMatrix::accuracy() const {
  std::size_t correct = 0;
  for (const auto& [key, n] : cells_)
    if (key.first == key.second) correct += n;
  return safe_div(static_cast<double>(correct), static_cast<double>(total_));
}

BinaryCounts ConfusionMatrix::binary_for(int label) const {
  BinaryCounts b;
  for (const auto& [key, n] : cells_) {
    const bool actual_pos = key.first == label;
    const bool pred_pos = key.second == label;
    if (actual_pos && pred_pos)
      b.tp += n;
    else if (actual_pos && !pred_pos)
      b.fn += n;
    else if (!actual_pos && pred_pos)
      b.fp += n;
    else
      b.tn += n;
  }
  return b;
}

namespace {

double macro_over(const ConfusionMatrix& cm, const std::vector<int>& over,
                  double (BinaryCounts::*metric)() const) {
  const std::vector<int> ls = over.empty() ? cm.labels() : over;
  if (ls.empty()) return 0.0;
  double s = 0.0;
  for (const int l : ls) s += (cm.binary_for(l).*metric)();
  return s / static_cast<double>(ls.size());
}

}  // namespace

double ConfusionMatrix::macro_recall(const std::vector<int>& over) const {
  return macro_over(*this, over, &BinaryCounts::recall);
}

double ConfusionMatrix::macro_precision(const std::vector<int>& over) const {
  return macro_over(*this, over, &BinaryCounts::precision);
}

double ConfusionMatrix::macro_f_measure(const std::vector<int>& over) const {
  return macro_over(*this, over, &BinaryCounts::f_measure);
}

double ConfusionMatrix::per_class_accuracy(int label) const {
  const auto it = row_totals_.find(label);
  if (it == row_totals_.end() || it->second == 0) return 0.0;
  return static_cast<double>(count(label, label)) /
         static_cast<double>(it->second);
}

std::string ConfusionMatrix::to_string() const {
  const std::vector<int> ls = labels();
  std::ostringstream os;
  const auto name = [](int l) {
    return l == kSpooferLabel ? std::string("spoof") : "u" + std::to_string(l);
  };
  os << std::setw(8) << "actual\\";
  for (const int l : ls) os << std::setw(7) << name(l);
  os << '\n';
  for (const int a : ls) {
    os << std::setw(8) << name(a);
    const auto rt = row_totals_.find(a);
    const double denom =
        rt == row_totals_.end() ? 0.0 : static_cast<double>(rt->second);
    for (const int p : ls) {
      const double frac =
          denom > 0.0 ? static_cast<double>(count(a, p)) / denom : 0.0;
      os << std::setw(6) << std::fixed << std::setprecision(2) << frac << ' ';
    }
    os << '\n';
  }
  return os.str();
}

RocCurve::RocCurve(std::vector<double> genuine_scores,
                   std::vector<double> impostor_scores) {
  if (genuine_scores.empty() || impostor_scores.empty())
    throw std::invalid_argument("RocCurve: need both genuine and impostor "
                                "scores");
  std::vector<double> thresholds = genuine_scores;
  thresholds.insert(thresholds.end(), impostor_scores.begin(),
                    impostor_scores.end());
  std::sort(thresholds.begin(), thresholds.end(), std::greater<>());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());

  std::sort(genuine_scores.begin(), genuine_scores.end(), std::greater<>());
  std::sort(impostor_scores.begin(), impostor_scores.end(), std::greater<>());
  const double ng = static_cast<double>(genuine_scores.size());
  const double ni = static_cast<double>(impostor_scores.size());

  points_.push_back(RocPoint{std::numeric_limits<double>::infinity(), 0.0,
                             0.0});
  std::size_t gi = 0, ii = 0;
  for (const double th : thresholds) {
    while (gi < genuine_scores.size() && genuine_scores[gi] >= th) ++gi;
    while (ii < impostor_scores.size() && impostor_scores[ii] >= th) ++ii;
    points_.push_back(RocPoint{th, static_cast<double>(gi) / ng,
                               static_cast<double>(ii) / ni});
  }
}

double RocCurve::auc() const {
  double area = 0.0;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const double dx = points_[i].fpr - points_[i - 1].fpr;
    area += dx * 0.5 * (points_[i].tpr + points_[i - 1].tpr);
  }
  // Close the curve to (1, 1).
  const RocPoint& last = points_.back();
  area += (1.0 - last.fpr) * 0.5 * (last.tpr + 1.0);
  return area;
}

double RocCurve::eer() const {
  // Find where FNR (= 1 - TPR) crosses FPR.
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const double fnr = 1.0 - points_[i].tpr;
    if (points_[i].fpr >= fnr) {
      if (i == 0) return points_[0].fpr;
      const double f0 = points_[i - 1].fpr, n0 = 1.0 - points_[i - 1].tpr;
      const double f1 = points_[i].fpr, n1 = 1.0 - points_[i].tpr;
      const double denom = (n0 - f0) - (n1 - f1);
      const double t = std::abs(denom) < 1e-15 ? 0.5 : (n0 - f0) / denom;
      return f0 + t * (f1 - f0);
    }
  }
  return 1.0 - points_.back().tpr;  // curves that never cross
}

}  // namespace echoimage::eval
