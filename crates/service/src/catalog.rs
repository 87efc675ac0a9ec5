//! The serving problem catalog: one shared, immutable instance per
//! problem family.
//!
//! A thousand-tenant sweep must not build a thousand operators — the
//! catalog constructs each calibrated instance once (the same
//! instances the conformance tier sweeps, minus the exact-solve
//! references the service never reads) and every job of that family
//! borrows it. [`Operator`] is `Sync`, so free-running workers share
//! entries without copies.
//!
//! Calibrations are sized for single-core CI: small dimensions, with
//! residual *targets* (not fixed budgets) wherever the backend supports
//! stopping, so converged jobs finish in hundreds of steps while the
//! budget only bounds the pathological tail.

use asynciter_opt::canonical::{self, Canonical, Size};
use asynciter_opt::traits::Operator;

/// The problem axis a job spec can name.
pub use asynciter_opt::canonical::Kind as ProblemId;

/// One shared problem instance plus its serving calibration.
pub struct CatalogEntry {
    /// Which family this is.
    pub id: ProblemId,
    /// The fixed-point operator (shared across all jobs of the family).
    pub op: Box<dyn Operator>,
    /// Canonical start. All-zero except the obstacle problem (whose
    /// canonical start is the projected upper bound).
    pub x0: Vec<f64>,
    /// Residual target for stopping-capable backends.
    pub target: f64,
    /// Step budget bounding the worst case.
    pub budget: u64,
    /// Fixed budget for the flexible backend (pinned by the baselines).
    pub flex_budget: u64,
}

impl CatalogEntry {
    /// Dimension `n`.
    pub fn n(&self) -> usize {
        self.op.dim()
    }

    /// Whether the canonical start is the zero vector — in that case a
    /// clean pooled workspace *is* the start, bit for bit.
    pub fn zero_start(&self) -> bool {
        self.x0.iter().all(|&v| v == 0.0)
    }
}

/// The service's shared, immutable problem instances.
pub struct Catalog {
    entries: Vec<CatalogEntry>,
}

impl Catalog {
    /// Builds every calibrated instance (once per service): the
    /// canonical instance, its tolerance as the residual target and its
    /// step budget, plus the flexible backend's fixed budget.
    ///
    /// # Panics
    /// Panics only if the static instances fail to construct (a bug).
    pub fn new() -> Self {
        fn entry<O: Operator + 'static>(
            id: ProblemId,
            c: Canonical<O>,
            flex_budget: u64,
        ) -> CatalogEntry {
            CatalogEntry {
                id,
                op: Box::new(c.op),
                x0: c.x0,
                target: c.tol,
                budget: c.steps,
                flex_budget,
            }
        }
        let entries = ProblemId::ALL
            .into_iter()
            .map(|id| match id {
                ProblemId::Jacobi => entry(id, canonical::jacobi(Size::Quick), 1_200),
                ProblemId::Lasso => entry(id, canonical::lasso(Size::Quick), 1_200),
                ProblemId::Obstacle => entry(id, canonical::obstacle(Size::Quick), 2_000),
                ProblemId::Logistic => entry(id, canonical::logistic(Size::Quick), 1_200),
                ProblemId::NetworkFlow => entry(id, canonical::network_flow(Size::Quick), 1_500),
            })
            .collect();
        Self { entries }
    }

    /// The entry for `id`.
    pub fn get(&self, id: ProblemId) -> &CatalogEntry {
        &self.entries[id as usize]
    }

    /// Largest `n + scratch_len` over the catalog — the workspace size
    /// that makes one warm pool buffer serve every family.
    pub fn max_workspace_len(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.n() + e.op.scratch_len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
impl Catalog {
    /// The catalog with `id`'s operator replaced by one that panics on
    /// its first evaluation — the planted bug behind the service's
    /// panicking-job test.
    pub(crate) fn with_panicking_operator(id: ProblemId) -> Self {
        struct Panics(usize);
        impl Operator for Panics {
            fn dim(&self) -> usize {
                self.0
            }
            fn component(&self, _i: usize, _x: &[f64]) -> f64 {
                panic!("planted operator bug")
            }
        }
        let mut catalog = Self::new();
        let entry = &mut catalog.entries[id as usize];
        entry.op = Box::new(Panics(entry.n()));
        catalog
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_builds_consistent_entries() {
        let catalog = Catalog::new();
        for id in ProblemId::ALL {
            let e = catalog.get(id);
            assert_eq!(e.id, id);
            assert_eq!(e.x0.len(), e.n(), "{}", id.id());
            assert!(e.target > 0.0 && e.budget > 0 && e.flex_budget > 0);
            assert_eq!(ProblemId::parse(id.id()), Some(id));
        }
        assert!(catalog.max_workspace_len() >= 16);
        assert!(ProblemId::parse("nope").is_none());
        assert!(!catalog.get(ProblemId::Obstacle).zero_start());
        assert!(catalog.get(ProblemId::Jacobi).zero_start());
    }
}
