#ifndef SQLFACIL_WORKLOAD_SQLSHARE_H_
#define SQLFACIL_WORKLOAD_SQLSHARE_H_

#include <cstdint>

#include "sqlfacil/engine/catalog.h"
#include "sqlfacil/workload/labeler.h"
#include "sqlfacil/workload/types.h"

namespace sqlfacil::workload {

/// Configuration of the SQLShare simulation: N users, each uploading 1-6
/// private tables (user-specific names and columns) and running short-term
/// ad-hoc analytics over them (Section 4.2).
struct SqlShareWorkloadConfig {
  // Many smallish users: the by-user split then has enough users per side
  // that train/test label distributions match (with few users, which
  // users land in test dominates the measured loss).
  size_t num_users = 150;
  size_t mean_queries_per_user = 36;
  double scale = 1.0;
  uint64_t seed = 2016;  // SQLShare paper year
  /// SQLShare ran on a shared multi-tenant service, far slower per unit of
  /// work than the SDSS CAS cluster; the paper's SQLShare CPU times have
  /// median 16 s (Figure 6e) vs SDSS's median 0. A larger seconds-per-unit
  /// constant reproduces that scale (and keeps qerror, which is computed
  /// in seconds, meaningful).
  LabelerConfig labeler{.seconds_per_cost_unit = 1e-3, .exec_options = {}};
  double cpu_noise_sigma = 0.25;
};

struct SqlShareBuildResult {
  /// Workload with CPU time as the only label (as in the paper), plus
  /// user_id for the Heterogeneous Schema split.
  QueryWorkload workload;
};

/// Builds the multi-user instance and the ad-hoc workload. Every user's
/// tables live in one shared engine catalog (names are unique per user),
/// and each user's generator has its own style profile, so splitting by
/// user yields genuinely different train/test vocabularies — the paper's
/// Heterogeneous Schema challenge.
SqlShareBuildResult BuildSqlShareWorkload(const SqlShareWorkloadConfig& config);

}  // namespace sqlfacil::workload

#endif  // SQLFACIL_WORKLOAD_SQLSHARE_H_
