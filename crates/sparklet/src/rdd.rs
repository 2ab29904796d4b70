//! Resilient distributed datasets: immutable partitioned collections.
//!
//! An [`Rdd<T>`] is a partitioned source with a per-partition cost hint. A
//! task materializes its partition from the handle it captured, which is
//! why a lost task's partition can be materialized again on any surviving
//! worker (Spark's fault-tolerance story, preserved by ASYNC and therefore
//! by this reproduction). Per-task transformations — sampling above all —
//! happen inside the task closure, not as lineage nodes.

use std::sync::Arc;

/// Marker for element types storable in an RDD.
pub trait Data: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> Data for T {}

/// A handle to a partitioned collection. Cheap to clone: clones share the
/// partitions.
#[derive(Clone)]
pub struct Rdd<T: Data> {
    src: Arc<Source<T>>,
}

struct Source<T> {
    parts: Vec<Vec<T>>,
    costs: Vec<f64>,
}

impl<T: Data> Rdd<T> {
    /// Source RDD from explicit partitions; cost hints default to element
    /// counts.
    pub fn parallelize(parts: Vec<Vec<T>>) -> Self {
        let costs = parts.iter().map(|p| p.len() as f64).collect();
        Self::parallelize_with_cost(parts, costs)
    }

    /// Source RDD with explicit per-partition cost hints (e.g. nonzeros for
    /// data blocks).
    ///
    /// # Panics
    /// Panics if `parts.len() != costs.len()`.
    pub fn parallelize_with_cost(parts: Vec<Vec<T>>, costs: Vec<f64>) -> Self {
        assert_eq!(
            parts.len(),
            costs.len(),
            "parallelize: parts/costs mismatch"
        );
        Self {
            src: Arc::new(Source { parts, costs }),
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.src.parts.len()
    }

    /// Materializes partition `part` (what a task does with the handle it
    /// captured; the driver may do the same).
    pub fn compute(&self, part: usize) -> Vec<T> {
        self.src.parts[part].clone()
    }

    /// Abstract compute cost of one full pass over partition `part`.
    pub fn cost_hint(&self, part: usize) -> f64 {
        self.src.costs[part]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelize_partitions_and_costs() {
        let r: Rdd<i64> = Rdd::parallelize(vec![vec![1, 2, 3], vec![4, 5], vec![], vec![6]]);
        assert_eq!(r.num_partitions(), 4);
        assert_eq!(r.compute(0), vec![1, 2, 3]);
        assert_eq!(r.compute(2), Vec::<i64>::new());
        assert_eq!(r.cost_hint(0), 3.0);
        assert_eq!(r.cost_hint(3), 1.0);
        // What retrying a lost task relies on: a clone materializes the
        // same partition, every time.
        let again = r.clone();
        for p in 0..r.num_partitions() {
            assert_eq!(again.compute(p), r.compute(p));
        }
    }
}
