//! Checkpoint storage servers with processor-sharing contention.
//!
//! The paper measures (Table 2) that simultaneous checkpoints to one NFS
//! server slow each other down roughly linearly with the parallel degree
//! (1.67 s alone → 8.95 s at degree 5 for 160 MB), while the local ramdisk
//! is unaffected, and that the proposed **DM-NFS** — one NFS server per
//! physical host, picked uniformly at random per checkpoint — keeps costs
//! flat (Table 3).
//!
//! A processor-sharing (PS) server reproduces the NFS behaviour exactly:
//! `n` concurrent operations each receive `1/n` of the server bandwidth, so
//! an operation that takes `d` seconds alone takes `n·d` under sustained
//! degree-`n` contention. [`PsResource`] implements PS with exact
//! re-scheduling: whenever the active set changes, remaining service is
//! advanced and the next completion re-estimated (the standard DES treatment
//! of PS queues); stale completion events are invalidated by a generation
//! counter.

use crate::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Identifier of an in-flight storage operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpId(pub u64);

/// A processor-sharing server: aggregate service rate `rate` (units of
/// service per second — here "seconds of uncontended work", so rate 1.0
/// means one uncontended operation-second per wall-second).
#[derive(Debug, Clone)]
pub struct PsResource {
    rate: f64,
    ops: HashMap<OpId, f64>, // remaining service (uncontended seconds)
    last_update: SimTime,
    generation: u64,
}

impl PsResource {
    /// Create a PS server with the given aggregate service rate (> 0).
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "PS rate must be positive");
        Self {
            rate,
            ops: HashMap::new(),
            last_update: SimTime::ZERO,
            generation: 0,
        }
    }

    /// Number of active operations.
    #[inline]
    pub fn active(&self) -> usize {
        self.ops.len()
    }

    /// Return the server to its just-constructed state (no ops, time at
    /// zero, generation 0), keeping the allocated op table — so repeated
    /// measurement rounds can reuse one server bank instead of
    /// reallocating it per round.
    pub fn reset(&mut self) {
        self.ops.clear();
        self.last_update = SimTime::ZERO;
        self.generation = 0;
    }

    /// Current generation; completion events scheduled for an older
    /// generation are stale and must be ignored.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Advance internal remaining-service state to `now`.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "time went backwards");
        let dt = (now - self.last_update).as_secs_f64();
        if dt > 0.0 && !self.ops.is_empty() {
            let per_op = self.rate * dt / self.ops.len() as f64;
            for rem in self.ops.values_mut() {
                *rem = (*rem - per_op).max(0.0);
            }
        }
        self.last_update = now;
    }

    /// Add an operation demanding `service_secs` of uncontended service.
    /// Bumps the generation (previously scheduled completions are stale).
    pub fn add(&mut self, now: SimTime, id: OpId, service_secs: f64) {
        assert!(service_secs > 0.0, "service demand must be positive");
        self.advance(now);
        let prev = self.ops.insert(id, service_secs);
        assert!(prev.is_none(), "duplicate op id");
        self.generation += 1;
    }

    /// Remove an operation (completion or abort). Returns the remaining
    /// service it still had. Bumps the generation.
    pub fn remove(&mut self, now: SimTime, id: OpId) -> Option<f64> {
        self.advance(now);
        let rem = self.ops.remove(&id);
        if rem.is_some() {
            self.generation += 1;
        }
        rem
    }

    /// The operation that will finish next under the *current* membership,
    /// and its completion time. `None` when idle.
    pub fn next_completion(&self, now: SimTime) -> Option<(OpId, SimTime)> {
        // Minimum remaining service, tie-broken by op id for determinism.
        let (&id, &rem) = self.ops.iter().min_by(|(ida, ra), (idb, rb)| {
            ra.partial_cmp(rb).unwrap().then_with(|| ida.0.cmp(&idb.0))
        })?;
        let n = self.ops.len() as f64;
        let dt = rem * n / self.rate;
        // Note: `now` may be ahead of last_update if the caller advanced
        // time without membership changes; advance logically first.
        let base = now.max(self.last_update);
        let extra = (base - self.last_update).as_secs_f64();
        let rem_at_base = (rem - self.rate * extra / n).max(0.0);
        let dt_at_base = rem_at_base * n / self.rate;
        let _ = dt;
        Some((id, base + SimDuration::from_secs_f64(dt_at_base)))
    }
}

/// A bank of PS servers modelling the cluster's checkpoint storage:
/// one server for [`Central`] NFS, one per host for DM-NFS.
///
/// [`Central`]: StorageBank::central
#[derive(Debug, Clone)]
pub struct StorageBank {
    servers: Vec<PsResource>,
}

impl StorageBank {
    /// One central NFS server with the given rate.
    pub fn central(rate: f64) -> Self {
        Self {
            servers: vec![PsResource::new(rate)],
        }
    }

    /// DM-NFS: `n_hosts` independent servers, each with the given rate.
    pub fn dm_nfs(n_hosts: usize, rate: f64) -> Self {
        assert!(n_hosts > 0, "need at least one host");
        Self {
            servers: (0..n_hosts).map(|_| PsResource::new(rate)).collect(),
        }
    }

    /// Number of servers.
    #[inline]
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the bank has no servers (never true for a constructed bank).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Access server `idx`.
    pub fn server(&self, idx: usize) -> &PsResource {
        &self.servers[idx]
    }

    /// Mutable access to server `idx`.
    pub fn server_mut(&mut self, idx: usize) -> &mut PsResource {
        &mut self.servers[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn single_op_takes_nominal_time() {
        let mut ps = PsResource::new(1.0);
        ps.add(t(0.0), OpId(1), 2.0);
        let (id, done) = ps.next_completion(t(0.0)).unwrap();
        assert_eq!(id, OpId(1));
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn two_ops_share_bandwidth() {
        // Two identical ops started together each take twice as long.
        let mut ps = PsResource::new(1.0);
        ps.add(t(0.0), OpId(1), 2.0);
        ps.add(t(0.0), OpId(2), 2.0);
        let (_, done) = ps.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn late_joiner_slows_first_op() {
        // Op A (2 s demand) runs alone for 1 s (1 s served), then op B joins:
        // remaining 1 s of A is served at rate 1/2 ⇒ A completes at 3 s.
        let mut ps = PsResource::new(1.0);
        ps.add(t(0.0), OpId(1), 2.0);
        ps.add(t(1.0), OpId(2), 2.0);
        let (id, done) = ps.next_completion(t(1.0)).unwrap();
        assert_eq!(id, OpId(1));
        assert!((done.as_secs_f64() - 3.0).abs() < 1e-6, "done = {done}");
    }

    #[test]
    fn removal_speeds_up_survivor() {
        let mut ps = PsResource::new(1.0);
        ps.add(t(0.0), OpId(1), 4.0);
        ps.add(t(0.0), OpId(2), 4.0);
        // At t=2 each has 1+... let's see: 2 s at rate 1/2 each ⇒ 3 remaining.
        let rem = ps.remove(t(2.0), OpId(2)).unwrap();
        assert!((rem - 3.0).abs() < 1e-6);
        let (_, done) = ps.next_completion(t(2.0)).unwrap();
        // Survivor has 3 s remaining at full rate ⇒ completes at 5 s.
        assert!((done.as_secs_f64() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn generation_bumps_on_membership_change() {
        let mut ps = PsResource::new(1.0);
        let g0 = ps.generation();
        ps.add(t(0.0), OpId(1), 1.0);
        assert!(ps.generation() > g0);
        let g1 = ps.generation();
        ps.remove(t(0.5), OpId(1));
        assert!(ps.generation() > g1);
    }

    #[test]
    fn sustained_degree_n_multiplies_duration() {
        // The Table 2 shape: five 1.67 s ops started together each take
        // 5 × 1.67 s on one server.
        let mut ps = PsResource::new(1.0);
        for i in 0..5 {
            ps.add(t(0.0), OpId(i), 1.67);
        }
        let (_, done) = ps.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 8.35).abs() < 1e-6, "done = {done}");
    }

    #[test]
    fn dm_nfs_spreads_load() {
        // Five ops over five servers: each completes in nominal time —
        // the Table 3 flatness.
        let mut bank = StorageBank::dm_nfs(5, 1.0);
        for i in 0..5usize {
            bank.server_mut(i).add(t(0.0), OpId(i as u64), 1.67);
        }
        for i in 0..5usize {
            let (_, done) = bank.server(i).next_completion(t(0.0)).unwrap();
            assert!((done.as_secs_f64() - 1.67).abs() < 1e-6);
        }
        assert!((0..5).all(|i| bank.server(i).active() == 1));
        assert_eq!(bank.len(), 5);
    }

    #[test]
    fn idle_server_has_no_completion() {
        let ps = PsResource::new(2.0);
        assert!(ps.next_completion(t(0.0)).is_none());
        assert_eq!(ps.active(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate op id")]
    fn duplicate_op_panics() {
        let mut ps = PsResource::new(1.0);
        ps.add(t(0.0), OpId(1), 1.0);
        ps.add(t(0.0), OpId(1), 1.0);
    }

    #[test]
    fn remove_unknown_returns_none() {
        let mut ps = PsResource::new(1.0);
        assert!(ps.remove(t(0.0), OpId(9)).is_none());
    }

    #[test]
    fn next_completion_with_advanced_now() {
        // Caller asks for completion at a later `now` without membership
        // change: remaining service must be discounted by the elapsed time.
        let mut ps = PsResource::new(1.0);
        ps.add(t(0.0), OpId(1), 2.0);
        let (_, done) = ps.next_completion(t(1.5)).unwrap();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-6, "done = {done}");
    }
}
