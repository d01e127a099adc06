#include <gtest/gtest.h>

#include "eval/metrics.hpp"

namespace echoimage::eval {
namespace {

TEST(Roc, RejectsEmptyScoreSets) {
  EXPECT_THROW(RocCurve({}, {1.0}), std::invalid_argument);
  EXPECT_THROW(RocCurve({1.0}, {}), std::invalid_argument);
}

TEST(Roc, PerfectSeparationGivesAucOneEerZero) {
  const RocCurve roc({2.0, 3.0, 4.0}, {-1.0, 0.0, 1.0});
  EXPECT_NEAR(roc.auc(), 1.0, 1e-9);
  EXPECT_NEAR(roc.eer(), 0.0, 1e-9);
}

TEST(Roc, ReversedScoresGiveAucZero) {
  const RocCurve roc({-1.0, -2.0}, {1.0, 2.0});
  EXPECT_NEAR(roc.auc(), 0.0, 1e-9);
  EXPECT_NEAR(roc.eer(), 1.0, 1e-9);
}

TEST(Roc, IdenticalDistributionsAreChance) {
  std::vector<double> s{1.0, 2.0, 3.0, 4.0};
  const RocCurve roc(s, s);
  EXPECT_NEAR(roc.auc(), 0.5, 0.15);
  EXPECT_NEAR(roc.eer(), 0.5, 0.2);
}

TEST(Roc, PartialOverlapBetweenZeroAndOne) {
  // Genuine mostly above impostor with a small overlap region.
  const RocCurve roc({1.0, 2.0, 3.0, 4.0, 5.0},
                     {-2.0, -1.0, 0.0, 1.5, 2.5});
  EXPECT_GT(roc.auc(), 0.7);
  EXPECT_LT(roc.auc(), 1.0);
  EXPECT_GT(roc.eer(), 0.0);
  EXPECT_LT(roc.eer(), 0.5);
}

TEST(Roc, PointsAreMonotone) {
  const RocCurve roc({0.5, 1.5, 2.5, 3.0}, {0.0, 1.0, 2.0});
  double prev_tpr = -1.0, prev_fpr = -1.0;
  for (const RocPoint& p : roc.points()) {
    EXPECT_GE(p.tpr, prev_tpr);
    EXPECT_GE(p.fpr, prev_fpr);
    prev_tpr = p.tpr;
    prev_fpr = p.fpr;
  }
}

TEST(Roc, AucInvariantToMonotoneTransform) {
  const std::vector<double> g{0.1, 0.4, 0.9};
  const std::vector<double> i{0.0, 0.2, 0.5};
  const RocCurve a(g, i);
  // Apply x -> 10x + 3 to all scores (order preserved).
  std::vector<double> g2, i2;
  for (double v : g) g2.push_back(10.0 * v + 3.0);
  for (double v : i) i2.push_back(10.0 * v + 3.0);
  const RocCurve b(g2, i2);
  EXPECT_NEAR(a.auc(), b.auc(), 1e-12);
  EXPECT_NEAR(a.eer(), b.eer(), 1e-12);
}

}  // namespace
}  // namespace echoimage::eval
