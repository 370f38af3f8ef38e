//! # minispark — an embedded partitioned batch-dataflow engine
//!
//! The paper computes the CDI daily with an Apache Spark application over
//! ~10 GB of events (Section V, Fig. 4). This crate is the Spark stand-in
//! for the reproduction: a small, multi-threaded, partitioned dataflow
//! engine plus the storage services around it.
//!
//! - [`dataset`] — lazy `Dataset<T>` plans: narrow transformations
//!   (map/filter/flat_map) compose per partition without materialization;
//!   wide transformations (group_by_key/reduce_by_key) introduce a hash
//!   shuffle that materializes once and is shared by downstream consumers,
//!   mirroring Spark's stage split at shuffle boundaries. Actions
//!   (`try_collect`, `try_count`, `try_collect_map`) return a `Result`: a
//!   task that exhausts its retries is a typed error, never a panic.
//! - [`partition`] — [`Partition<T>`]: the `Arc`-shared immutable row
//!   vectors plans exchange. Materialized data (shuffles, caches, sources)
//!   is pinned once and read everywhere by refcount bump; deep copies
//!   happen only when a consumer needs ownership of still-shared rows, and
//!   are counted in the engine metrics.
//! - [`exec`] — the execution context: a scoped thread pool with
//!   chunked work-stealing over partitions, panic-isolated tasks with
//!   bounded retries (Spark's task re-execution), plus task/shuffle/copy
//!   metrics.
//! - [`hash`] — the fixed-seed [`hash::FixedState`] hasher: shuffle bucket
//!   assignment is identical across plans, processes, and runs, which is
//!   what keeps committed results reproducible.
//! - [`store`] — the storage substrates of the paper's Fig. 4: an
//!   append-only time-indexed [`store::EventLog`] (Simple Log Service
//!   stand-in), columnar [`store::Table`]s with `cdipack` persistence
//!   (MaxCompute stand-in) and a versioned [`store::ConfigStore`] (MySQL
//!   stand-in).
//! - [`pack`] — the `cdipack` binary encoding primitives (varints, zigzag
//!   deltas, bit-exact floats, length-prefixed strings) shared by table
//!   persistence here and the cdi-serve wire/snapshot codecs.
//! - [`bi`] — the Business-Intelligence layer: aggregation queries over
//!   tables with dimension drill-down and the weighted-ratio aggregate that
//!   realizes the paper's Formula 4 at any grouping level.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bi;
pub mod dataset;
pub mod error;
pub mod exec;
pub mod hash;
pub mod pack;
pub mod partition;
pub mod store;

pub use dataset::Dataset;
pub use error::{Result, SparkError};
pub use exec::{ExecContext, MetricsSnapshot, RetryPolicy, TaskError};
pub use partition::Partition;
