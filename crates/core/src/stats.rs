//! Construction and label statistics (§7.3 of the paper).

/// Per-root instrumentation of one pruned BFS, recorded when
/// `IndexBuilder::record_root_stats(true)` is set. Figures 3a/3b plot
/// `labeled` against the root's position in the order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RootStats {
    /// Rank of the BFS root.
    pub rank: u32,
    /// Vertices dequeued (visited) by this pruned BFS.
    pub visited: u32,
    /// Vertices that received a label (visited and not pruned).
    pub labeled: u32,
    /// Vertices visited but pruned.
    pub pruned: u32,
}

/// Timing and volume statistics of one index construction.
///
/// The construction pipeline is timed phase by phase so the Amdahl
/// accounting of the parallel path is visible end to end (builder → CLI →
/// v2 file header → the `benchmark/` trace record): ordering (§4.4), relabelling into rank
/// space (§4.5 "Sorting Labels"), the searches (bit-parallel §5.4 +
/// pruned §4.2), and the final label flatten into the sentinel-terminated
/// arena (§4.5 "Sentinel").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConstructionStats {
    /// Seconds spent computing the vertex order (§4.4).
    pub order_seconds: f64,
    /// Seconds spent relabelling the graph into rank space (§4.5 "Sorting
    /// Labels").
    pub relabel_seconds: f64,
    /// Seconds spent in the bit-parallel phase (§5.4).
    pub bp_seconds: f64,
    /// Seconds spent in the pruned BFS phase.
    pub pruned_seconds: f64,
    /// Seconds spent flattening per-vertex labels into the arena (§4.5
    /// "Sentinel").
    pub flatten_seconds: f64,
    /// Bit-parallel roots actually used (≤ the configured `t`; fewer when
    /// the graph runs out of unused vertices).
    pub bp_roots_used: usize,
    /// Number of pruned BFSs performed (vertices not consumed by the BP
    /// phase).
    pub pruned_roots: usize,
    /// Total vertices dequeued over all pruned BFSs.
    pub total_visited: u64,
    /// Total label entries created.
    pub total_labeled: u64,
    /// Total visits pruned.
    pub total_pruned: u64,
    /// Worker threads used for construction (1 = every pruned search runs
    /// in place on the calling thread; each root's visit/label/prune
    /// counters are merged into the totals above as it commits).
    pub threads: usize,
    /// Number of root batches processed when `threads > 1`, the one-root
    /// head batches included (0 at `threads == 1`, where every root is its
    /// own batch).
    pub parallel_batches: usize,
    /// Label entries buffered by in-batch searches and then removed by the
    /// commit-time re-prune pass (0 at `threads == 1`, whose one-root
    /// batches search in place; counted inside `total_pruned` as well, so
    /// `visited = labeled + pruned` still holds).
    pub repruned: u64,
    /// Per-root breakdown, present iff `record_root_stats(true)`.
    pub per_root: Option<Vec<RootStats>>,
}

impl ConstructionStats {
    /// Total construction seconds (ordering + relabelling + BP + pruned +
    /// flatten phases).
    pub fn total_seconds(&self) -> f64 {
        self.order_seconds
            + self.relabel_seconds
            + self.bp_seconds
            + self.pruned_seconds
            + self.flatten_seconds
    }

    /// Seconds spent in the search phases (bit-parallel + pruned) — the
    /// `search_secs` column of the bench records.
    pub fn search_seconds(&self) -> f64 {
        self.bp_seconds + self.pruned_seconds
    }

    /// Fraction of visits that were pruned (0 if nothing was visited).
    pub fn prune_rate(&self) -> f64 {
        if self.total_visited == 0 {
            0.0
        } else {
            self.total_pruned as f64 / self.total_visited as f64
        }
    }
}

/// Distribution summary of per-vertex label sizes (Figure 3c).
#[derive(Clone, Debug, PartialEq)]
pub struct LabelSizeStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Total label entries (excluding sentinels).
    pub total_entries: usize,
    /// Mean entries per vertex (the "LN" column of Table 3, normal part).
    pub mean: f64,
    /// Minimum label size.
    pub min: usize,
    /// Maximum label size.
    pub max: usize,
    /// Label size percentiles at 1%, 10%, 25%, 50%, 75%, 90%, 99%.
    pub percentiles: [usize; 7],
}

impl LabelSizeStats {
    /// Computes the distribution from raw per-vertex sizes.
    pub fn from_sizes(mut sizes: Vec<usize>) -> LabelSizeStats {
        let n = sizes.len();
        if n == 0 {
            return LabelSizeStats {
                num_vertices: 0,
                total_entries: 0,
                mean: 0.0,
                min: 0,
                max: 0,
                percentiles: [0; 7],
            };
        }
        sizes.sort_unstable();
        let total: usize = sizes.iter().sum();
        let pct = |p: f64| -> usize {
            let idx = ((n as f64 * p).ceil() as usize)
                .saturating_sub(1)
                .min(n - 1);
            sizes[idx]
        };
        LabelSizeStats {
            num_vertices: n,
            total_entries: total,
            mean: total as f64 / n as f64,
            min: sizes[0],
            max: sizes[n - 1],
            percentiles: [
                pct(0.01),
                pct(0.10),
                pct(0.25),
                pct(0.50),
                pct(0.75),
                pct(0.90),
                pct(0.99),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_stats_totals() {
        let s = ConstructionStats {
            order_seconds: 1.0,
            relabel_seconds: 0.5,
            bp_seconds: 2.0,
            pruned_seconds: 3.0,
            flatten_seconds: 0.25,
            total_visited: 10,
            total_pruned: 4,
            ..Default::default()
        };
        assert!((s.total_seconds() - 6.75).abs() < 1e-12);
        assert!((s.search_seconds() - 5.0).abs() < 1e-12);
        assert!((s.prune_rate() - 0.4).abs() < 1e-12);
        assert_eq!(ConstructionStats::default().prune_rate(), 0.0);
    }

    #[test]
    fn label_size_stats_basic() {
        let s = LabelSizeStats::from_sizes(vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(s.num_vertices, 10);
        assert_eq!(s.total_entries, 55);
        assert!((s.mean - 5.5).abs() < 1e-12);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10);
        assert_eq!(s.percentiles[3], 5); // median
        assert_eq!(s.percentiles[6], 10); // p99
    }

    #[test]
    fn label_size_stats_empty_and_uniform() {
        let e = LabelSizeStats::from_sizes(vec![]);
        assert_eq!(e.num_vertices, 0);
        assert_eq!(e.mean, 0.0);

        let u = LabelSizeStats::from_sizes(vec![4; 100]);
        assert_eq!(u.min, 4);
        assert_eq!(u.max, 4);
        assert_eq!(u.percentiles, [4; 7]);
    }
}
