//! Shared, immutable partitions — the engine's zero-copy currency.
//!
//! Every plan node hands out a [`Partition<T>`]: an `Arc<Vec<T>>` wrapper.
//! Materialized data (shuffle buckets, cache contents, source chunks) is
//! built once and then *shared* — a downstream consumer clones the `Arc`,
//! not the rows. The deep copy happens only at the moment a
//! consumer genuinely needs owned rows while the partition is still shared
//! ([`Partition::into_vec`]), and every such copy is counted in
//! [`ExecMetrics::rows_cloned`](crate::exec::ExecMetrics) so regressions on
//! hot paths show up as a metric, not a profile.

use std::ops::Deref;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::exec::ExecMetrics;

/// An immutable, reference-counted partition of rows.
///
/// Cloning a `Partition` is an `Arc` refcount bump — O(1), never a row
/// copy. Use [`Partition::into_vec`] to take ownership of the rows; it
/// moves them out when this handle is the only owner and clones (with
/// metric accounting) otherwise.
pub struct Partition<T> {
    rows: Arc<Vec<T>>,
}

impl<T> Clone for Partition<T> {
    fn clone(&self) -> Self {
        Partition { rows: Arc::clone(&self.rows) }
    }
}

impl<T> std::fmt::Debug for Partition<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Partition")
            .field("rows", &self.rows.len())
            .field("shared", &(Arc::strong_count(&self.rows) > 1))
            .finish()
    }
}

impl<T> Deref for Partition<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.rows
    }
}

impl<T> Partition<T> {
    /// Wrap freshly materialized rows.
    pub fn new(rows: Vec<T>) -> Self {
        Partition { rows: Arc::new(rows) }
    }
}

impl<T: Clone> Partition<T> {
    /// Take ownership of the rows.
    ///
    /// If this handle is the sole owner (the common case for data flowing
    /// straight through a stage), the rows are moved out for free. If the
    /// partition is shared — pinned in a cache, a shuffle, or another
    /// consumer — the rows are cloned, and the copy is recorded in
    /// `metrics.rows_cloned` / `metrics.bytes_cloned`.
    pub fn into_vec(self, metrics: &ExecMetrics) -> Vec<T> {
        match Arc::try_unwrap(self.rows) {
            Ok(rows) => rows,
            Err(shared) => {
                let n = shared.len() as u64;
                // ordering: independent statistic counter, never a synchronization point
                metrics.rows_cloned.fetch_add(n, Ordering::Relaxed);
                metrics
                    .bytes_cloned
                    // ordering: independent statistic counter, never a synchronization point
                    .fetch_add(n * std::mem::size_of::<T>() as u64, Ordering::Relaxed);
                shared.as_ref().clone()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_owner_moves_without_accounting() {
        let m = ExecMetrics::default();
        let p = Partition::new(vec![1, 2, 3]);
        assert_eq!(p.into_vec(&m), vec![1, 2, 3]);
        assert_eq!(m.snapshot().rows_cloned, 0);
        assert_eq!(m.snapshot().bytes_cloned, 0);
    }

    #[test]
    fn shared_owner_clones_and_counts() {
        let m = ExecMetrics::default();
        let p = Partition::new(vec![1u64, 2, 3]);
        let held = p.clone();
        assert_eq!(p.into_vec(&m), vec![1, 2, 3]);
        assert_eq!(held.len(), 3, "the original handle still reads the rows");
        let s = m.snapshot();
        assert_eq!(s.rows_cloned, 3);
        assert_eq!(s.bytes_cloned, 3 * 8);
    }

    #[test]
    fn clone_is_not_a_row_copy() {
        let p = Partition::new((0..100).collect::<Vec<i32>>());
        let q = p.clone();
        assert!(std::ptr::eq(&p[0], &q[0]), "clones alias the same rows");
    }

    #[test]
    fn empty_and_deref() {
        let p = Partition::<u8>::new(Vec::new());
        assert!(p.is_empty());
        let p = Partition::new(vec![5, 6]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.iter().sum::<i32>(), 11);
    }
}
