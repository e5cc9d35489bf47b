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

/// Strategy for the clustering stage. Both engines take their leaf
/// distances from one resolver (HmCache first, then the exact kernels), so
/// distances, cache contents and counters do not depend on the engine.
///
///  * kExhaustive — every pair resolved into a dense n×n matrix, then UPGMA
///    (stats::agglomerative_average_linkage) and cut_top_fraction.
///  * kPruned     — the fused UPGMA + cut driver
///    (stats::average_linkage_cut_pruned) over a pruned-neighbor index: pivot
///    triangle-inequality and bin-L1 grid lower bounds gate which pairs pay
///    the exact kernel; distances resolve on demand into a sparse store.
///    Verdicts are bit-identical to kExhaustive by construction, only cheaper
///    at large n.
///  * kAuto       — kPruned from kHmPruneMinHosts eligible hosts upward,
///    kExhaustive below.
enum class HmPruning { kAuto, kExhaustive, kPruned };

/// kAuto switches to the pruned engine at this many eligible hosts. Below it
/// the pruned engine's fixed costs do not pay: in bench_cluster the engines
/// cross between 192 and 256 hosts at 1 thread, and the dense engine stays
/// ahead through 512 hosts at 4 threads (DESIGN.md §15).
inline constexpr std::size_t kHmPruneMinHosts = 256;

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
  /// Clustering engine; see HmPruning.
  HmPruning pruning = HmPruning::kAuto;
  /// Pivot leaves for the triangle-inequality tier (clamped to the host
  /// count). More pivots = tighter bounds at n·pivots extra exact
  /// evaluations. Benched across 256..4096 hosts the marginal pivot saves
  /// fewer resolutions than its column costs — eval counts and wall-clock
  /// were best at 2-3 pivots at every size — so the default stays low and
  /// keeps one spare pivot beyond the first two spread directions.
  std::size_t prune_pivots = 3;
  /// Bins of the shared-grid bin-L1 lower-bound tier (EMD distances only;
  /// 0 disables the tier).
  std::size_t prune_grid_bins = 64;
  /// Worker threads for the O(n^2) kernels (per-host signature build and
  /// the pairwise distance matrix). 0 = the TRADEPLOT_THREADS environment
  /// variable, else hardware concurrency; 1 = the serial reference path.
  /// Every thread count produces bit-identical results.
  std::size_t threads = 0;
  /// Fill the per-phase wall-clock fields of HmPruneStats (pivot build,
  /// bound scans, exact kernel time, replay time). Off by default: timing
  /// reads a clock inside the clustering hot loops, which the benches want
  /// and the detectors do not pay for.
  bool collect_phase_timing = false;
};

struct HostCluster {
  std::vector<simnet::Ipv4> members;
  double diameter = 0.0;
  bool kept = false;  // survived the τ_hm filter
};

/// Work accounting for one θ_hm distance/clustering stage. pairs_total,
/// exact_kernel_evals, cache_hits and resolved_pairs are filled the same way
/// on both engines (exact_kernel_evals + cache_hits == resolved_pairs); on
/// the pruned engine `used` is true and the remaining fields describe how
/// much of the quadratic pair space its bounds saved.
struct HmPruneStats {
  bool used = false;                      // pruned path taken
  std::uint64_t pairs_total = 0;          // n(n-1)/2 over eligible hosts
  std::uint64_t exact_kernel_evals = 0;   // exact kernel invocations
  std::uint64_t cache_hits = 0;           // pairs served by the HmCache
  std::uint64_t resolved_pairs = 0;       // distinct leaf pairs with exact values
  std::uint64_t pivots = 0;               // pivot leaves used
  std::uint64_t scanned = 0;              // NN-scan candidate evaluations
  std::uint64_t skipped_pivot = 0;        // pruned by the pivot bound
  std::uint64_t skipped_grid = 0;         // pruned by the grid bound
  std::uint64_t scan_cache_hits = 0;      // NN scans served by the candidate cache
  std::uint64_t bloom_skips = 0;          // memo probes skipped by the Bloom gate
  // Per-phase wall-clock, filled only under config.collect_phase_timing
  // (zero otherwise): neighbor-index construction, lower/upper-bound scans,
  // exact kernel evaluations, and Lance-Williams replay of memoized values.
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
/// The distance/clustering stage follows config.pruning: the pruned path
/// produces bit-identical verdicts to the exhaustive one while evaluating
/// the exact kernel only for pairs the lower bounds cannot exclude, and
/// keeps memory at O(resolved pairs) instead of the dense n×n matrix (the
/// fully cache-warm window allocates no quadratic storage at all). Hosts
/// with degenerate timing evidence are skipped and accounted
/// (result.degenerate / result.degraded) instead of failing the window.
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
