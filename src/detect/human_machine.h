// θ_hm — the human-driven vs. machine-driven test (§IV-C).
//
// Pipeline: per host, approximate the per-destination flow interstitial-time
// distribution with a Freedman–Diaconis histogram; compare hosts by Earth
// Mover's Distance; cluster agglomeratively (average linkage); form final
// clusters by cutting the top 5% heaviest dendrogram links; keep clusters
// whose diameter is at most τ_hm, set as a percentile of the observed
// cluster diameters. Machine-driven hosts running the same bot binary share
// timer constants, land in tight clusters, and survive; human-driven hosts'
// irregular timing inflates their cluster diameters.
//
// One engine at every host count: the distances of all eligible pairs go
// into a dense n×n matrix, then UPGMA runs over it. The matrix plus UPGMA's
// working copy is 16·n² bytes, ~1 GB at 8k eligible hosts; campus windows
// have ~120 (DESIGN.md §15).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "detect/features.h"
#include "detect/tests.h"
#include "stats/histogram.h"

namespace tradeplot::detect {

class HmCache;

/// Distance between per-host interstitial-time histograms.
///
///  * kEmd         — EMD with |seconds| ground distance between bin
///                   centres (the paper's metric; default).
///  * kEmdBinIndex — EMD with bin-*index* ground distance, the other
///                   reading of "c_ij [is] the distance between the i-th
///                   and j-th bins" (§IV-C). Normalizing each histogram by
///                   its own FD width turns out to *invert* the geometry
///                   (human hosts collapse onto one shape); kept as an
///                   ablation (bench/ablation_distance).
///  * kBinL1       — plain L1 over a fixed common binning (ablation): blind
///                   to *how far* mass moved, the weakness EMD avoids.
enum class HmDistance { kEmd, kEmdBinIndex, kBinL1 };

struct HumanMachineConfig {
  /// τ_hm as a percentile of cluster diameters (paper sweeps 10..90th and
  /// uses the 70th in FindPlotters).
  double diameter_percentile = 0.7;
  /// Fraction of heaviest dendrogram links removed to form clusters. The
  /// paper cuts the top 5%; the right depth is data-dependent (it must
  /// reach down past the point where the bots' tight cluster attaches to
  /// the human mass), and on this simulator's traffic mix 25% is the knee —
  /// see bench/ablation_distance for the sweep.
  double cut_fraction = 0.25;
  /// Hosts with fewer interstitial samples than this cannot produce a
  /// meaningful histogram and are excluded (they cannot be flagged).
  std::size_t min_samples = 40;
  /// Clusters below this size carry too little cross-host similarity
  /// evidence and are never returned (a singleton trivially has diameter 0;
  /// a pair is a single coincidence).
  std::size_t min_cluster_size = 3;
  /// 0 = Freedman-Diaconis per host (the paper); > 0 = fixed bin width in
  /// seconds (ablation: fixed widths are easier for a bot to reason about).
  /// Must be finite and non-negative: a negative or non-finite width is a
  /// misconfiguration and is rejected with util::ConfigError rather than
  /// silently falling back to a default grid.
  double fixed_bin_width = 0.0;
  HmDistance distance = HmDistance::kEmd;
  /// Worker threads for the O(n^2) kernels (per-host signature build and
  /// the pairwise distance matrix). 0 = the TRADEPLOT_THREADS environment
  /// variable, else hardware concurrency; 1 = the serial reference path.
  /// Every thread count produces bit-identical results.
  std::size_t threads = 0;
  /// Has no effect: the HmPruneStats phase-timing fields it used to fill
  /// belonged to the removed pruned clustering engine and now stay 0. Kept
  /// only because the e2ebench replay still sets it.
  bool collect_phase_timing = false;
};

struct HostCluster {
  std::vector<simnet::Ipv4> members;
  double diameter = 0.0;
  bool kept = false;  // survived the τ_hm filter
};

/// Work accounting for one θ_hm distance stage: every one of the
/// pairs_total eligible-host pairs is either served by the HmCache or paid
/// for by the exact kernel (exact_kernel_evals + cache_hits == pairs_total).
struct HmPruneStats {
  std::uint64_t pairs_total = 0;         // n(n-1)/2 over eligible hosts
  std::uint64_t exact_kernel_evals = 0;  // exact kernel invocations
  std::uint64_t cache_hits = 0;          // pairs served by the HmCache
  // Always 0: the per-phase wall-clock of the removed pruned engine, kept
  // only because the e2ebench replay still reads them.
  double pivot_build_ms = 0.0;
  double bound_scan_ms = 0.0;
  double exact_eval_ms = 0.0;
  double replay_ms = 0.0;
};

struct HumanMachineResult {
  HostSet flagged;                    // union of kept clusters
  std::vector<HostCluster> clusters;  // every cluster of size >= min_cluster_size
  double tau_hm = 0.0;                // the diameter threshold used
  HostSet skipped;                    // hosts with too few samples or degenerate evidence
  /// Hosts whose timing evidence could not produce a valid signature (empty
  /// or non-finite interstitials, zero-mass histograms). They are skipped —
  /// and counted in `skipped` too — instead of aborting the whole window.
  HostSet degenerate;
  /// True when at least one host was dropped as degenerate: the verdict is
  /// complete over the remaining hosts but did not assess the dropped ones.
  bool degraded = false;
  HmPruneStats prune;
};

/// Runs θ_hm over `input`. Returns the flagged set plus full diagnostics.
///
/// When `cache` is non-null, per-host signatures and pairwise distances are
/// reused across calls for hosts whose timing buffers (content-hashed) are
/// unchanged, and only the changed hosts' signatures and matrix rows are
/// recomputed — the streaming detector's cross-window warm path. Cached
/// values were produced by the same kernels on identical inputs, so the
/// result is bit-identical with and without the cache, at every thread
/// count.
///
/// Every eligible pair is resolved into a dense n×n matrix (HmCache first,
/// then the exact kernels), clustered with average linkage and cut; memory
/// is O(n²) in the eligible host count. Hosts with degenerate timing
/// evidence are skipped and accounted (result.degenerate / result.degraded)
/// instead of failing the window.
/// Throws util::ConfigError on a negative or non-finite
/// config.fixed_bin_width.
[[nodiscard]] HumanMachineResult human_machine_test(const FeatureMap& features,
                                                    const HostSet& input,
                                                    const HumanMachineConfig& config = {},
                                                    HmCache* cache = nullptr);

/// The kBinL1 distance matrix (the ablation alternative to EMD): every
/// signature is re-binned once onto an absolute grid of width
/// config.fixed_bin_width (60 s when unset) anchored at 0 — a dense
/// per-signature bin vector when the population's bin span is modest, a
/// sorted sparse one otherwise (bit-identical either way) — and the per-pair
/// kernel is a straight allocation-free L1 sweep over two flat arrays.
/// Signatures are validated up front (pinned ConfigError messages "bin-L1:
/// negative signature weight" / "bin-L1: signature has no mass", thrown
/// before any worker runs). Exposed for the ablation and pairwise benches;
/// entry [i*n + j] as in stats::pairwise_emd.
[[nodiscard]] std::vector<double> pairwise_bin_l1(const std::vector<stats::Signature>& sigs,
                                                  const HumanMachineConfig& config);

}  // namespace tradeplot::detect
