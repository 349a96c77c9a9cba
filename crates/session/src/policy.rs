//! Backend routing: which detection strategy serves which call, and how many
//! worker threads it fans out across.

use ecfd_detect::{BackendKind, Parallelism};

/// Decides which [`BackendKind`] serves full detection passes and update
/// batches when the caller does not pick one explicitly, and the
/// [`Parallelism`] of the detection scans.
///
/// The interesting decision is the one the paper's Fig. 7(a) measures: below
/// a certain update-batch size incremental maintenance beats recomputing from
/// scratch, above it the batch pass wins. The policy mirrors that crossover
/// with a simple threshold on `|ΔD| / |D|`.
///
/// Full passes default to the native semantic backend — the system's fast
/// path (coded pattern matching, one shared-scan program however many
/// pattern tuples are checked, sharded parallel scan), while the SQL backend
/// remains the paper-faithful reference implementation, selectable
/// explicitly or via [`RoutingPolicy::fixed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingPolicy {
    /// Backend for full detection passes ([`crate::Session::detect`]).
    pub detect_backend: BackendKind,
    /// Backend for update batches at or below the threshold.
    pub small_delta_backend: BackendKind,
    /// Backend for update batches above the threshold.
    pub large_delta_backend: BackendKind,
    /// An update batch is "small" when `delta.len() <= threshold ×
    /// current table size`. The paper's crossover sits somewhere below a
    /// third of the data size on its workloads.
    pub incremental_max_fraction: f64,
    /// Worker fan-out of the (semantic) detection scans: all available cores
    /// by default, or a fixed count. Applied to the backends at registration
    /// time and whenever the policy is replaced.
    pub parallelism: Parallelism,
}

impl Default for RoutingPolicy {
    fn default() -> Self {
        RoutingPolicy {
            detect_backend: BackendKind::Semantic,
            small_delta_backend: BackendKind::Incremental,
            large_delta_backend: BackendKind::Semantic,
            incremental_max_fraction: 0.25,
            parallelism: Parallelism::Auto,
        }
    }
}

impl RoutingPolicy {
    /// A policy that always uses `kind`, for every call shape.
    pub fn fixed(kind: BackendKind) -> Self {
        RoutingPolicy {
            detect_backend: kind,
            small_delta_backend: kind,
            large_delta_backend: kind,
            ..RoutingPolicy::default()
        }
    }

    /// The same policy with a different worker fan-out.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The routing decision for an update batch of `delta_len` tuples against
    /// a table currently holding `table_len` rows.
    pub fn route_delta(&self, delta_len: usize, table_len: usize) -> BackendKind {
        let budget = self.incremental_max_fraction * table_len as f64;
        if delta_len as f64 <= budget {
            self.small_delta_backend
        } else {
            self.large_delta_backend
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_routes_by_delta_size() {
        let policy = RoutingPolicy::default();
        assert_eq!(policy.detect_backend, BackendKind::Semantic);
        assert_eq!(policy.parallelism, Parallelism::Auto);
        assert_eq!(policy.route_delta(10, 1000), BackendKind::Incremental);
        assert_eq!(policy.route_delta(250, 1000), BackendKind::Incremental);
        assert_eq!(policy.route_delta(251, 1000), BackendKind::Semantic);
        // An empty table pushes everything to the batch path.
        assert_eq!(policy.route_delta(1, 0), BackendKind::Semantic);
    }

    #[test]
    fn fixed_policy_never_routes_elsewhere() {
        let policy = RoutingPolicy::fixed(BackendKind::Sql);
        assert_eq!(policy.detect_backend, BackendKind::Sql);
        assert_eq!(policy.route_delta(1, 1000), BackendKind::Sql);
        assert_eq!(policy.route_delta(999, 1000), BackendKind::Sql);
    }

    #[test]
    fn parallelism_is_part_of_the_policy() {
        let policy = RoutingPolicy::default().with_parallelism(Parallelism::Fixed(2));
        assert_eq!(policy.parallelism, Parallelism::Fixed(2));
        let fixed =
            RoutingPolicy::fixed(BackendKind::Semantic).with_parallelism(Parallelism::Fixed(1));
        assert_eq!(fixed.parallelism.threads(), 1);
    }
}
