//! Pooled scratch workspaces for the multi-tenant service layer.
//!
//! PR 5 made every engine's per-step loop allocation-free by threading
//! caller-owned scratch buffers through the operator seam
//! (`scratch_len` / `update_active_with` / …). A multi-tenant service
//! re-opens that hole at a coarser granularity: if every admitted job
//! allocates its own `x0` staging vector and operator scratch, a
//! 1000-tenant sweep performs thousands of heap round trips even though
//! each individual run is alloc-free inside. [`ScratchPool`] closes it:
//! workers lease a workspace per job, the pool recycles buffers across
//! tenants, and — after warm-up — lease/return cycles perform **zero**
//! heap allocations (locked by the workspace counting-allocator test).
//!
//! The isolation contract is deliberate and simple: a clean lease is
//! bitwise indistinguishable from a fresh `vec![0.0; len]`. That makes
//! buffer recycling invisible to the bit-identity conformance oracles —
//! a tenant whose job starts from a pooled workspace must produce the
//! exact bits of a solo run. The pool also carries the PR's planted
//! negative control: [`ScratchPool::inject_dirty_leases`] skips the
//! zero-fill on reuse, leaking the previous tenant's data into the next
//! lease, which the tenant-equivalence oracle must catch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// A recycling pool of `f64` workspaces shared by service workers.
///
/// Buffers are handed out as [`ScratchLease`]s and returned on drop.
/// Thread-safe: free-running workers lease concurrently; the free list
/// is a mutex-guarded stack (leases are held across a whole job, so the
/// lock is far off any hot path).
///
/// ```
/// use asynciter_runtime::scratch::ScratchPool;
///
/// let pool = ScratchPool::new();
/// {
///     let mut ws = pool.lease(4);
///     ws[0] = 1.0;
/// } // returned here
/// let ws = pool.lease(4);
/// assert_eq!(&ws[..], &[0.0; 4], "a clean lease is zero-filled");
/// assert_eq!(pool.stats().reused, 1);
/// ```
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<Vec<f64>>>,
    leases: AtomicU64,
    reused: AtomicU64,
    created: AtomicU64,
    dirty: AtomicBool,
}

/// Counters describing pool behaviour (observability + the alloc-free
/// assertions in tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Total leases handed out.
    pub leases: u64,
    /// Leases satisfied by recycling a returned buffer.
    pub reused: u64,
    /// Leases that had to allocate a fresh buffer.
    pub created: u64,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// **Negative control only.** When enabled, reused buffers are
    /// handed out *without* the zero-fill — the previous tenant's data
    /// leaks into the next lease. This plants the cross-tenant
    /// isolation bug that the service equivalence oracle must detect
    /// (`--inject-scratch-leak`); it exists so the oracle's power is a
    /// tested fact rather than an assumption.
    pub fn inject_dirty_leases(&self, enabled: bool) {
        self.dirty.store(enabled, Ordering::Relaxed);
    }

    /// Leases a workspace of exactly `len` zeros (bitwise equal to
    /// `vec![0.0; len]` — unless the dirty-lease bug is injected).
    /// Returns the buffer to the pool when the lease drops.
    pub fn lease(&self, len: usize) -> ScratchLease<'_> {
        let recycled = self.free.lock().expect("scratch pool poisoned").pop();
        self.leases.fetch_add(1, Ordering::Relaxed);
        let buf = match recycled {
            Some(mut buf) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                if self.dirty.load(Ordering::Relaxed) {
                    // Planted bug: keep whatever the previous tenant
                    // left behind; only grow with zeros if too short.
                    buf.resize(len, 0.0);
                    buf.truncate(len);
                } else {
                    buf.clear();
                    buf.resize(len, 0.0);
                }
                buf
            }
            None => {
                self.created.fetch_add(1, Ordering::Relaxed);
                vec![0.0; len]
            }
        };
        ScratchLease { pool: self, buf }
    }

    /// Pre-populates the pool with `count` buffers of capacity `len`,
    /// so subsequent leases up to that size never allocate.
    pub fn warm(&self, count: usize, len: usize) {
        let mut free = self.free.lock().expect("scratch pool poisoned");
        for _ in 0..count {
            self.created.fetch_add(1, Ordering::Relaxed);
            free.push(vec![0.0; len]);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            leases: self.leases.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            created: self.created.load(Ordering::Relaxed),
        }
    }

    /// Buffers currently sitting in the free list.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("scratch pool poisoned").len()
    }

    fn give_back(&self, buf: Vec<f64>) {
        self.free.lock().expect("scratch pool poisoned").push(buf);
    }
}

/// An exclusive workspace borrowed from a [`ScratchPool`]. Derefs to
/// `[f64]`; the buffer returns to the pool (contents intact — zeroing
/// happens on the *next* clean lease) when this drops.
#[derive(Debug)]
pub struct ScratchLease<'p> {
    pool: &'p ScratchPool,
    buf: Vec<f64>,
}

impl std::ops::Deref for ScratchLease<'_> {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.buf
    }
}

impl std::ops::DerefMut for ScratchLease<'_> {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf
    }
}

impl Drop for ScratchLease<'_> {
    fn drop(&mut self) {
        self.pool.give_back(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_leases_are_bitwise_fresh() {
        let pool = ScratchPool::new();
        {
            let mut ws = pool.lease(8);
            for (i, v) in ws.iter_mut().enumerate() {
                *v = i as f64 + 0.5;
            }
        }
        // Same size, smaller, and larger reuses must all come back as
        // exact zeros (larger forces a zero-extend of the same buffer).
        for len in [8usize, 3, 16] {
            let ws = pool.lease(len);
            assert_eq!(&ws[..], vec![0.0f64; len].as_slice(), "len {len}");
        }
    }

    #[test]
    fn buffers_recycle_instead_of_reallocating() {
        let pool = ScratchPool::new();
        drop(pool.lease(16));
        drop(pool.lease(16));
        drop(pool.lease(8));
        let stats = pool.stats();
        assert_eq!(stats.leases, 3);
        assert_eq!(stats.created, 1, "one backing buffer serves all three");
        assert_eq!(stats.reused, 2);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn warm_pool_serves_without_creating() {
        let pool = ScratchPool::new();
        pool.warm(2, 32);
        drop(pool.lease(32));
        drop(pool.lease(16));
        assert_eq!(pool.stats().created, 2, "warm-up only");
        assert_eq!(pool.stats().reused, 2);
    }

    #[test]
    fn injected_dirty_lease_leaks_previous_contents() {
        let pool = ScratchPool::new();
        {
            let mut ws = pool.lease(4);
            ws.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        }
        pool.inject_dirty_leases(true);
        let ws = pool.lease(4);
        assert_eq!(&ws[..], &[1.0, 2.0, 3.0, 4.0], "the leak is real");
        drop(ws);
        pool.inject_dirty_leases(false);
        let ws = pool.lease(4);
        assert_eq!(&ws[..], &[0.0; 4], "clean again once disabled");
    }

    #[test]
    fn concurrent_leases_are_exclusive() {
        let pool = ScratchPool::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let pool = &pool;
                scope.spawn(move || {
                    for _ in 0..50 {
                        let mut ws = pool.lease(64);
                        ws.fill(t as f64 + 1.0);
                        let expect = t as f64 + 1.0;
                        assert!(ws.iter().all(|&v| v == expect), "exclusive ownership");
                    }
                });
            }
        });
        assert_eq!(pool.stats().leases, 200);
        assert!(pool.stats().created <= 4, "at most one buffer per thread");
    }
}
