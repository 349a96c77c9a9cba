//! Backend routing: which detection strategy serves which call, and how many
//! worker threads it fans out across.

use ecfd_detect::{BackendKind, Parallelism};

/// The [`Parallelism`] of a session's detection scans.
///
/// Which backend serves a call is not a setting. Full passes
/// ([`crate::Session::detect`]) run the native semantic backend — the
/// system's fast path (matching by value class, one shared-scan program
/// however many pattern tuples are checked, sharded parallel scan). Update
/// batches ([`crate::Session::apply`]) follow the crossover the paper's
/// Fig. 7(a) measures: below a certain batch size incremental maintenance
/// beats recomputing from scratch, above it the batch pass wins, and a
/// single threshold on `|ΔD| / |D|` mirrors it. The SQL backend remains the
/// paper-faithful reference implementation, reached per call with
/// `detect_with` / `apply_with`, like any named backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingPolicy {
    /// Worker fan-out of the (semantic) detection scans: all available cores
    /// by default, or a fixed count. Applied to the backends at registration
    /// time and whenever the policy is replaced.
    pub parallelism: Parallelism,
}

impl Default for RoutingPolicy {
    fn default() -> Self {
        RoutingPolicy {
            parallelism: Parallelism::Auto,
        }
    }
}

impl RoutingPolicy {
    /// The same policy with a different worker fan-out.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// An update batch is "small" when `|ΔD| ≤ INCREMENTAL_MAX_FRACTION · |D|`.
/// The paper's crossover sits somewhere below a third of the data size on
/// its workloads.
const INCREMENTAL_MAX_FRACTION: f64 = 0.25;

/// The backend for an update batch of `delta_len` tuples against a table
/// currently holding `table_len` rows: incremental maintenance for a small
/// batch, a fresh semantic pass for a large one.
pub(crate) fn route_delta(delta_len: usize, table_len: usize) -> BackendKind {
    if delta_len as f64 <= INCREMENTAL_MAX_FRACTION * table_len as f64 {
        BackendKind::Incremental
    } else {
        BackendKind::Semantic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_routes_by_delta_size() {
        assert_eq!(RoutingPolicy::default().parallelism, Parallelism::Auto);
        assert_eq!(route_delta(10, 1000), BackendKind::Incremental);
        assert_eq!(route_delta(250, 1000), BackendKind::Incremental);
        assert_eq!(route_delta(251, 1000), BackendKind::Semantic);
        // An empty table pushes everything to the batch path.
        assert_eq!(route_delta(1, 0), BackendKind::Semantic);
    }

    #[test]
    fn parallelism_is_part_of_the_policy() {
        let policy = RoutingPolicy::default().with_parallelism(Parallelism::Fixed(2));
        assert_eq!(policy.parallelism, Parallelism::Fixed(2));
        let fixed = RoutingPolicy::default().with_parallelism(Parallelism::Fixed(1));
        assert_eq!(fixed.parallelism.threads(), 1);
    }
}
