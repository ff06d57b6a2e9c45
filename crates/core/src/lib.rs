//! Pruned landmark labeling: fast exact shortest-path distance queries on
//! large networks.
//!
//! This crate implements the indexing method of Akiba, Iwata & Yoshida,
//! *"Fast Exact Shortest-Path Distance Queries on Large Networks by Pruned
//! Landmark Labeling"* (SIGMOD 2013):
//!
//! * [`IndexBuilder`] / [`PllIndex`] — the undirected, unweighted index:
//!   pruned BFS labeling (§4) combined with bit-parallel labels (§5);
//! * [`OrderingStrategy`] — the Degree / Random / Closeness vertex orders of
//!   §4.4;
//! * [`paths`] — shortest-*path* reconstruction via parent pointers (§6);
//! * [`directed`] — the directed variant with IN/OUT labels (§6);
//! * [`weighted`] — the weighted variant via pruned Dijkstra (§6);
//! * [`weighted_directed`] — the combined variant for weighted digraphs;
//! * [`serialize`] / [`disk`] — a versioned binary index format and
//!   disk-resident query answering with two reads per query (§6);
//! * [`verify`] — exhaustive/sampled correctness checking against BFS.
//!
//! # Example
//!
//! ```
//! use pll_core::{IndexBuilder, OrderingStrategy};
//! use pll_graph::gen;
//!
//! let g = gen::barabasi_albert(2_000, 3, 42).unwrap();
//! let index = IndexBuilder::new()
//!     .ordering(OrderingStrategy::Degree)
//!     .bit_parallel_roots(16)
//!     .build(&g)
//!     .unwrap();
//!
//! // Exact distance; `None` means disconnected.
//! let d = index.distance(0, 1999);
//! assert!(d.unwrap() <= 10);
//! ```

#![deny(unsafe_code)] // allowed only in `storage` for the zero-copy casts
#![deny(missing_docs)]

pub mod bp;
pub mod build;
pub mod checksum;
pub mod compact;
pub mod directed;
pub mod disk;
pub mod dynamic;
pub mod error;
pub mod fail;
pub mod index;
pub mod kernel;
pub mod label;
pub mod order;
pub mod par;
pub mod paths;
pub mod reduction;
pub mod serialize;
pub mod stats;
pub mod storage;
pub mod types;
pub mod v2;
pub mod verify;
pub mod wal;
pub mod weighted;
pub mod weighted_directed;
pub mod weighted_dist8;

pub use build::{BuildObserver, IndexBuilder, PartialIndex};
pub use compact::CompactIndex;
pub use directed::{DirectedIndexBuilder, DirectedPllIndex, DirectedPllIndexView};
pub use dynamic::{DynamicIndex, OverlaySnapshot, UpdateStats};
pub use error::{PllError, Result};
pub use index::{PllIndex, PllIndexView};
pub use kernel::{active_kernel, set_kernel, KernelKind};
pub use label::{LabelSet, LabelSetView};
pub use order::OrderingStrategy;
pub use par::{run_batched, PrunedSearch, RootCommit};
pub use reduction::{Peeling, ReducedPllIndex};
pub use serialize::{FormatVersion, IndexFormat};
pub use stats::{ConstructionStats, LabelSizeStats, RootStats};
pub use storage::{AlignedBytes, BpStorage, LabelStorage, SectionSlice};
pub use types::{Dist, Rank, Vertex, WDist};
pub use v2::AnyIndex;
pub use weighted::{WeightedIndexBuilder, WeightedPllIndex, WeightedPllIndexView};
pub use weighted_directed::{
    WeightedDirectedIndexBuilder, WeightedDirectedPllIndex, WeightedDirectedPllIndexView,
};
pub use weighted_dist8::{WeightedDist8Index, WeightedDist8IndexView};
