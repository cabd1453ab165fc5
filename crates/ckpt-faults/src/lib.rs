//! # ckpt-faults — deterministic fault injection and retry policy
//!
//! The paper's premise is that long computations survive failures; this
//! crate lets the sweep executor *prove* it does, by injecting failures
//! on purpose. A [`FaultPlan`] is a small textual program parsed from
//! `--inject` — e.g.
//!
//! ```text
//! panic@cell=17; io_error@write=5:kind=interrupted:times=2; crash@cells=9
//! ```
//!
//! — whose directives fire at *deterministic* points keyed to simulation
//! facts (grid cell index, store append ordinal), never to wall clock or
//! thread identity. [`FaultState`] is the armed, thread-safe runtime form
//! the executor consults at each injection point.
//!
//! The crate also owns the pieces of the fault-tolerance policy that are
//! shared between the executor and the store layer, so both sides agree
//! without a dependency cycle (this crate depends on nothing):
//!
//! * the **fault taxonomy** — which `io::ErrorKind`s are transient
//!   (worth retrying) vs fatal ([`is_transient_kind`]);
//! * the **retry loop** — [`FaultState::retry`], the one loop every
//!   guarded operation (cell evaluation, store open/create and append,
//!   export) runs through: [`MAX_ATTEMPTS`] attempts, sleeping
//!   [`backoff_delay`] between them behind an injectable [`Clock`] so
//!   tests never really sleep;
//! * the **degraded-run summary** — [`RunHealth`], the cells-ok /
//!   retried / quarantined / io-retries / faults-fired report every
//!   sweep surfaces on stderr, tallied in [`FaultState`] as retries
//!   happen and faults fire.
//!
//! Determinism rules: a plan with no directives injects nothing and the
//! run's output bytes are identical to a build without this crate; a plan
//! whose faults are all *eventually transient* (every fault fires fewer
//! times than the retry budget) perturbs only wall clock and stderr —
//! the exported CSV/JSON bytes still match a clean run at any thread
//! count.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::io::ErrorKind;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Maximum attempts per guarded operation (one initial try plus
/// `MAX_ATTEMPTS - 1` retries). An operation still failing after this
/// many attempts is quarantined (cell evaluation) or escalated to a run
/// error (store and export I/O).
pub const MAX_ATTEMPTS: u32 = 4;

/// Backoff before retry number `retry` (0-based): 1 ms, then 5 ms, then
/// 25 ms — deterministic and bounded (the schedule is part of the fault
/// taxonomy contract, documented in ARCHITECTURE.md). Values are small
/// because the injected failures this guards against are either
/// synthetic (tests) or micro-transient (a store append racing a
/// filesystem hiccup); a cell replay costs milliseconds, so the whole
/// budget stays below one cell.
pub fn backoff_delay(retry: u32) -> Duration {
    Duration::from_millis(5u64.saturating_pow(retry.min(8)))
}

/// Classify an I/O error kind: transient kinds are worth retrying with
/// backoff, everything else is fatal on first sight. The transient set is
/// deliberately the "try again" family — interruption, contention,
/// timeout — not conditions a retry cannot cure (permissions, missing
/// files, corruption).
pub fn is_transient_kind(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
    )
}

/// Stable name for an I/O error kind — the spelling `--inject` accepts
/// and error messages echo.
pub fn io_kind_name(kind: ErrorKind) -> &'static str {
    match kind {
        ErrorKind::Interrupted => "interrupted",
        ErrorKind::WouldBlock => "would_block",
        ErrorKind::TimedOut => "timed_out",
        ErrorKind::NotFound => "not_found",
        ErrorKind::PermissionDenied => "permission_denied",
        ErrorKind::UnexpectedEof => "unexpected_eof",
        _ => "other",
    }
}

fn parse_io_kind(name: &str) -> Result<ErrorKind, String> {
    Ok(match name {
        "interrupted" => ErrorKind::Interrupted,
        "would_block" => ErrorKind::WouldBlock,
        "timed_out" => ErrorKind::TimedOut,
        "not_found" => ErrorKind::NotFound,
        "permission_denied" => ErrorKind::PermissionDenied,
        "unexpected_eof" => ErrorKind::UnexpectedEof,
        "other" => ErrorKind::Other,
        _ => {
            return Err(format!(
                "unknown io error kind {name:?} (expected interrupted, would_block, \
                 timed_out, not_found, permission_denied, unexpected_eof, or other)"
            ))
        }
    })
}

/// The store operation an `io_error` directive targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// A record append to the checkpoint store (`io_error@write=N`).
    Write,
    /// Opening/creating the checkpoint store (`io_error@open=N`).
    Open,
    /// Writing the sweep's CSV/JSON exports (`io_error@export=N`).
    Export,
}

impl IoOp {
    /// The operation's name in plan syntax and error messages.
    pub fn label(self) -> &'static str {
        match self {
            IoOp::Write => "write",
            IoOp::Open => "open",
            IoOp::Export => "export",
        }
    }
}

/// One parsed fault directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// `panic@cell=N[:times=T]` — panic inside cell `N`'s evaluation.
    /// Sticky by default (`times` = every attempt): a deterministic bug
    /// would repeat on retry, so the cell exhausts its budget and is
    /// quarantined. `times=1` makes it transient (the retry succeeds).
    Panic {
        /// Grid cell index the panic fires in.
        cell: u64,
        /// Attempts that panic before the fault disarms.
        times: u32,
    },
    /// `budget@cell=N[:times=T]` — cell `N`'s evaluation fails cleanly
    /// as if its simulation budget were exhausted. Sticky by default,
    /// like `panic`.
    Budget {
        /// Grid cell index the budget failure fires in.
        cell: u64,
        /// Attempts that fail before the fault disarms.
        times: u32,
    },
    /// `io_error@<op>=N[:kind=K][:times=T]` — starting at the `N`-th
    /// attempt of `<op>` (1-based), fail `T` consecutive attempts with an
    /// I/O error of kind `K` (default `interrupted`, `times=1` — a
    /// transient blip the retry cures).
    IoError {
        /// Which store operation fails.
        op: IoOp,
        /// 1-based operation ordinal the fault arms at.
        at: u64,
        /// The injected `io::ErrorKind`.
        kind: ErrorKind,
        /// Consecutive attempts that fail once armed.
        times: u32,
    },
    /// `torn_write@record=N` — the `N`-th store append (1-based) writes
    /// only half its frame and the process aborts, simulating a kill
    /// mid-`write_all`; the next open must truncate the torn tail and
    /// resume cleanly.
    TornWrite {
        /// 1-based append ordinal that tears.
        record: u64,
    },
    /// `crash@cells=N` — abort the process (exit code 86) once `N` cells
    /// have persisted: the kill that kill-and-resume tests inject.
    Crash {
        /// Persisted-cell count that triggers the abort.
        cells: u64,
    },
}

/// A parsed, inert fault plan: what to inject and when. Arm it with
/// [`FaultState::new`] to get the runtime form the executor consults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The directives, in plan order (checked in order at each point).
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Parse a plan: `;`-separated directives of the form
    /// `kind@selector=N[:opt=val]*`. The empty string is the empty plan.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut faults = Vec::new();
        for raw in text.split(';') {
            let dir = raw.trim();
            if dir.is_empty() {
                continue;
            }
            faults.push(Self::parse_directive(dir).map_err(|e| format!("fault {dir:?}: {e}"))?);
        }
        Ok(FaultPlan { faults })
    }

    fn parse_directive(dir: &str) -> Result<FaultSpec, String> {
        let (kind, rest) = dir
            .split_once('@')
            .ok_or("expected <kind>@<selector>=<n>")?;
        let mut parts = rest.split(':');
        let selector = parts.next().unwrap_or_default();
        let (sel_key, sel_val) = selector
            .split_once('=')
            .ok_or("expected <selector>=<n> after @")?;
        let at: u64 = sel_val
            .parse()
            .map_err(|_| format!("selector {sel_key}: cannot parse {sel_val:?} as a count"))?;
        let mut io_kind: Option<ErrorKind> = None;
        let mut times: Option<u32> = None;
        for opt in parts {
            let (k, v) = opt
                .split_once('=')
                .ok_or_else(|| format!("option {opt:?}: expected key=value"))?;
            match k {
                "kind" => io_kind = Some(parse_io_kind(v)?),
                "times" => {
                    let t: u32 = v
                        .parse()
                        .map_err(|_| format!("times: cannot parse {v:?} as a count"))?;
                    if t == 0 {
                        return Err("times: must be >= 1".into());
                    }
                    times = Some(t);
                }
                _ => return Err(format!("unknown option {k:?} (expected kind or times)")),
            }
        }
        let expect_selector = |want: &str| -> Result<(), String> {
            if sel_key == want {
                Ok(())
            } else {
                Err(format!("{kind} selects by {want} (got {sel_key:?})"))
            }
        };
        let no_kind_opt = |k: Option<ErrorKind>| -> Result<(), String> {
            if k.is_none() {
                Ok(())
            } else {
                Err(format!("{kind} does not take a kind option"))
            }
        };
        match kind {
            "panic" => {
                expect_selector("cell")?;
                no_kind_opt(io_kind)?;
                Ok(FaultSpec::Panic {
                    cell: at,
                    times: times.unwrap_or(u32::MAX),
                })
            }
            "budget" => {
                expect_selector("cell")?;
                no_kind_opt(io_kind)?;
                Ok(FaultSpec::Budget {
                    cell: at,
                    times: times.unwrap_or(u32::MAX),
                })
            }
            "io_error" => {
                let op = match sel_key {
                    "write" => IoOp::Write,
                    "open" => IoOp::Open,
                    "export" => IoOp::Export,
                    _ => {
                        return Err(format!(
                            "io_error selects by write, open, or export (got {sel_key:?})"
                        ))
                    }
                };
                if at == 0 {
                    return Err("io_error ordinals are 1-based (got 0)".into());
                }
                Ok(FaultSpec::IoError {
                    op,
                    at,
                    kind: io_kind.unwrap_or(ErrorKind::Interrupted),
                    times: times.unwrap_or(1),
                })
            }
            "torn_write" => {
                expect_selector("record")?;
                no_kind_opt(io_kind)?;
                if times.is_some() {
                    return Err("torn_write does not take a times option".into());
                }
                if at == 0 {
                    return Err("torn_write ordinals are 1-based (got 0)".into());
                }
                Ok(FaultSpec::TornWrite { record: at })
            }
            "crash" => {
                expect_selector("cells")?;
                no_kind_opt(io_kind)?;
                if times.is_some() {
                    return Err("crash does not take a times option".into());
                }
                Ok(FaultSpec::Crash { cells: at })
            }
            _ => Err(format!(
                "unknown fault kind {kind:?} (expected panic, budget, io_error, \
                 torn_write, or crash)"
            )),
        }
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The `crash@cells=N` threshold, if the plan has one (first wins) —
    /// the executor feeds it to the same persisted-cell counter as the
    /// programmatic `CheckpointConfig::crash_after_cells` hook.
    pub fn crash_after_cells(&self) -> Option<u64> {
        self.faults.iter().find_map(|f| match f {
            FaultSpec::Crash { cells } => Some(*cells),
            _ => None,
        })
    }

    /// True when every fault is *eventually transient*: each directive
    /// fires fewer times than the retry budget allows, so a guarded run
    /// completes with every cell ok and outputs byte-identical to a
    /// clean run. `crash` and `torn_write` abort the process and are
    /// never transient.
    pub fn eventually_transient(&self) -> bool {
        self.faults.iter().all(|f| match f {
            FaultSpec::Panic { times, .. } | FaultSpec::Budget { times, .. } => {
                *times < MAX_ATTEMPTS
            }
            FaultSpec::IoError { times, .. } => *times < MAX_ATTEMPTS,
            FaultSpec::TornWrite { .. } | FaultSpec::Crash { .. } => false,
        })
    }
}

/// A cell-evaluation fault the executor must realize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellFault {
    /// Panic inside the evaluation (exercises `catch_unwind` isolation).
    Panic,
    /// Fail the evaluation cleanly with a budget-exhaustion error.
    Budget,
}

/// A fault the plan fires at one attempt of a store or export operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Fail the attempt with an I/O error of this kind (nothing written).
    Io(ErrorKind),
    /// Write half the frame, then abort the process (torn tail). Fires
    /// only on store appends ([`IoOp::Write`]).
    Torn,
}

/// Which [`RunHealth`] tally a guarded operation's retries count toward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retried {
    /// Cell evaluations (`cell_retries`).
    Cell,
    /// Store and export I/O (`io_retries`).
    Io,
}

/// The clock behind retry backoff. Injectable so tests assert the
/// schedule without sleeping through it.
pub trait Clock: Send + Sync {
    /// Sleep for `d` (or just record it).
    fn sleep(&self, d: Duration);
}

/// The real clock: `std::thread::sleep`.
#[derive(Debug, Default)]
pub struct RealClock;

impl Clock for RealClock {
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A test clock that counts sleeps and sums requested durations instead
/// of sleeping.
#[derive(Debug, Default)]
pub struct TestClock {
    sleeps: AtomicU64,
    total_nanos: AtomicU64,
}

impl TestClock {
    /// Number of sleeps requested so far.
    pub fn sleeps(&self) -> u64 {
        self.sleeps.load(Ordering::Relaxed)
    }

    /// Total requested sleep time.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_nanos.load(Ordering::Relaxed))
    }
}

impl Clock for TestClock {
    fn sleep(&self, d: Duration) {
        self.sleeps.fetch_add(1, Ordering::Relaxed);
        self.total_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// One armed directive: its spec plus how many times it has fired.
#[derive(Debug)]
struct Armed {
    spec: FaultSpec,
    fired: AtomicU32,
}

impl Armed {
    /// Fire if `fired < times`, returning whether this call fired.
    fn try_fire(&self, times: u32) -> bool {
        // fetch_update keeps the count exact under concurrent attempts.
        self.fired
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < times).then_some(n + 1)
            })
            .is_ok()
    }
}

/// The armed, thread-safe runtime form of a [`FaultPlan`]: one attempt
/// ordinal per [`IoOp`], per-directive fire counts, the run's retry
/// tallies, and the backoff clock. One `FaultState` serves a whole run,
/// shared across workers behind an `Arc`; every guarded operation of
/// that run retries through [`FaultState::retry`], so the tallies and
/// fire counts behind [`FaultState::health`] cover all of them.
pub struct FaultState {
    armed: Vec<Armed>,
    /// Attempts so far of each operation, indexed by `IoOp as usize`.
    ordinals: [AtomicU64; 3],
    cell_retries: AtomicU64,
    io_retries: AtomicU64,
    clock: Box<dyn Clock>,
}

impl std::fmt::Debug for FaultState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultState")
            .field("armed", &self.armed)
            .field("fired_total", &self.fired_total())
            .finish_non_exhaustive()
    }
}

impl Default for FaultState {
    fn default() -> Self {
        FaultState::new(FaultPlan::default())
    }
}

impl FaultState {
    /// Arm a plan with the real clock.
    pub fn new(plan: FaultPlan) -> FaultState {
        FaultState::with_clock(plan, Box::new(RealClock))
    }

    /// Arm a plan with an injected clock (tests).
    pub fn with_clock(plan: FaultPlan, clock: Box<dyn Clock>) -> FaultState {
        FaultState {
            armed: plan
                .faults
                .into_iter()
                .map(|spec| Armed {
                    spec,
                    fired: AtomicU32::new(0),
                })
                .collect(),
            ordinals: Default::default(),
            cell_retries: AtomicU64::new(0),
            io_retries: AtomicU64::new(0),
            clock,
        }
    }

    /// True when no directives are armed (the no-fault fast path).
    pub fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }

    /// The plan's `crash@cells=N` threshold, if any.
    pub fn crash_after_cells(&self) -> Option<u64> {
        self.armed.iter().find_map(|a| match a.spec {
            FaultSpec::Crash { cells } => Some(cells),
            _ => None,
        })
    }

    /// Total faults fired so far (the `faults_injected` counter).
    /// `crash` directives abort the process instead of firing, so they
    /// never show up here.
    pub fn fired_total(&self) -> u64 {
        self.armed
            .iter()
            .map(|a| a.fired.load(Ordering::Relaxed) as u64)
            .sum()
    }

    /// Consult the plan at the start of one evaluation attempt of `cell`.
    /// At most one directive fires per attempt (plan order decides ties).
    pub fn cell_fault(&self, cell: u64) -> Option<CellFault> {
        self.armed.iter().find_map(|a| match a.spec {
            FaultSpec::Panic { cell: c, times } if c == cell && a.try_fire(times) => {
                Some(CellFault::Panic)
            }
            FaultSpec::Budget { cell: c, times } if c == cell && a.try_fire(times) => {
                Some(CellFault::Budget)
            }
            _ => None,
        })
    }

    /// Consult the plan before one attempt of `op`. Each call advances
    /// that op's ordinal; an `io_error@<op>=N` directive arms at ordinal
    /// `N` and fires for its `times` consecutive attempts (so `times=2`
    /// fails the operation *and* its first retry). `torn_write@record=N`
    /// fires once, at append ordinal `N`. At most one directive fires
    /// per attempt (plan order decides ties).
    pub fn io_fault(&self, op: IoOp) -> Option<IoFault> {
        let ordinal = self.ordinals[op as usize].fetch_add(1, Ordering::Relaxed) + 1;
        self.armed.iter().find_map(|a| match a.spec {
            FaultSpec::TornWrite { record }
                if op == IoOp::Write && record == ordinal && a.try_fire(1) =>
            {
                Some(IoFault::Torn)
            }
            FaultSpec::IoError {
                op: o,
                at,
                kind,
                times,
            } if o == op && ordinal >= at && a.try_fire(times) => Some(IoFault::Io(kind)),
            _ => None,
        })
    }

    /// Run one guarded operation under the retry discipline: up to
    /// [`MAX_ATTEMPTS`] attempts, sleeping [`backoff_delay`] through the
    /// armed clock between them. A failure stops the loop when `strict`
    /// is set, when `retryable` rejects it, or when the budget is spent;
    /// otherwise `on_retry(n, &err)` reports failed attempt `n` (1-based)
    /// and the `tally` counter ticks before the backoff. Returns the
    /// first success or the last failure.
    pub fn retry<T, E>(
        &self,
        tally: Retried,
        strict: bool,
        retryable: impl Fn(&E) -> bool,
        mut on_retry: impl FnMut(u32, &E),
        mut attempt: impl FnMut() -> Result<T, E>,
    ) -> Result<T, E> {
        let retries = match tally {
            Retried::Cell => &self.cell_retries,
            Retried::Io => &self.io_retries,
        };
        let mut n = 1;
        loop {
            match attempt() {
                Err(e) if !strict && n < MAX_ATTEMPTS && retryable(&e) => {
                    on_retry(n, &e);
                    retries.fetch_add(1, Ordering::Relaxed);
                    self.clock.sleep(backoff_delay(n - 1));
                    n += 1;
                }
                done => return done,
            }
        }
    }

    /// The run's health report: the caller's cell outcome counts plus
    /// every retry and fired fault tallied so far.
    pub fn health(&self, cells_ok: u64, cells_quarantined: u64) -> RunHealth {
        RunHealth {
            cells_ok,
            cells_quarantined,
            cell_retries: self.cell_retries.load(Ordering::Relaxed),
            io_retries: self.io_retries.load(Ordering::Relaxed),
            faults_injected: self.fired_total(),
        }
    }
}

/// The degraded-run summary every guarded sweep reports: how many cells
/// succeeded, how much retrying it took, and whether anything was
/// quarantined. Counts are simulation facts (thread-invariant for
/// cell-keyed faults; retry totals are exact for any schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunHealth {
    /// Cells that evaluated successfully (including after retries).
    pub cells_ok: u64,
    /// Cells quarantined after exhausting the retry budget.
    pub cells_quarantined: u64,
    /// Cell-evaluation retry attempts across the run.
    pub cell_retries: u64,
    /// Store/export I/O retry attempts across the run.
    pub io_retries: u64,
    /// Faults the plan actually fired.
    pub faults_injected: u64,
}

impl RunHealth {
    /// True when at least one cell was quarantined.
    pub fn degraded(&self) -> bool {
        self.cells_quarantined > 0
    }

    /// The one-line stderr summary.
    pub fn summary(&self) -> String {
        format!(
            "{} cell{} ok, {} quarantined, {} cell retr{}, {} io retr{}, {} fault{} injected",
            self.cells_ok,
            if self.cells_ok == 1 { "" } else { "s" },
            self.cells_quarantined,
            self.cell_retries,
            if self.cell_retries == 1 { "y" } else { "ies" },
            self.io_retries,
            if self.io_retries == 1 { "y" } else { "ies" },
            self.faults_injected,
            if self.faults_injected == 1 { "" } else { "s" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_parses_and_injects_nothing() {
        for text in ["", "  ", ";", " ; "] {
            let plan = FaultPlan::parse(text).unwrap();
            assert!(plan.is_empty(), "{text:?}");
            let state = FaultState::new(plan);
            assert!(state.is_empty());
            assert_eq!(state.cell_fault(0), None);
            for op in [IoOp::Write, IoOp::Open, IoOp::Export] {
                assert_eq!(state.io_fault(op), None);
            }
            assert_eq!(state.fired_total(), 0);
        }
    }

    #[test]
    fn the_issue_examples_parse() {
        let plan = FaultPlan::parse(
            "panic@cell=17; io_error@write=5:kind=interrupted:times=2; \
             torn_write@record=9; budget@cell=3; crash@cells=9",
        )
        .unwrap();
        assert_eq!(
            plan.faults,
            vec![
                FaultSpec::Panic {
                    cell: 17,
                    times: u32::MAX
                },
                FaultSpec::IoError {
                    op: IoOp::Write,
                    at: 5,
                    kind: ErrorKind::Interrupted,
                    times: 2
                },
                FaultSpec::TornWrite { record: 9 },
                FaultSpec::Budget {
                    cell: 3,
                    times: u32::MAX
                },
                FaultSpec::Crash { cells: 9 },
            ]
        );
        assert_eq!(plan.crash_after_cells(), Some(9));
        assert!(!plan.eventually_transient());
    }

    #[test]
    fn parse_errors_name_the_directive() {
        for (text, needle) in [
            ("panic", "expected <kind>@<selector>"),
            ("panic@cell", "expected <selector>=<n>"),
            ("panic@write=3", "panic selects by cell"),
            ("panic@cell=x", "cannot parse"),
            ("panic@cell=3:times=0", "must be >= 1"),
            ("panic@cell=3:kind=interrupted", "does not take a kind"),
            (
                "io_error@cell=3",
                "io_error selects by write, open, or export",
            ),
            ("io_error@write=0", "1-based"),
            ("io_error@write=3:kind=lunar", "unknown io error kind"),
            ("torn_write@record=2:times=2", "does not take a times"),
            ("crash@cells=3:times=2", "does not take a times"),
            ("meteor@cell=3", "unknown fault kind"),
            ("panic@cell=3:color=red", "unknown option"),
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err}");
            assert!(
                err.contains(text.split(';').next().unwrap().trim()),
                "{err}"
            );
        }
    }

    #[test]
    fn cell_faults_fire_exactly_times_then_disarm() {
        let plan = FaultPlan::parse("panic@cell=2:times=2; budget@cell=5:times=1").unwrap();
        assert!(plan.eventually_transient());
        let state = FaultState::new(plan);
        assert_eq!(state.cell_fault(0), None);
        assert_eq!(state.cell_fault(2), Some(CellFault::Panic));
        assert_eq!(state.cell_fault(2), Some(CellFault::Panic));
        assert_eq!(state.cell_fault(2), None, "two times, then disarmed");
        assert_eq!(state.cell_fault(5), Some(CellFault::Budget));
        assert_eq!(state.cell_fault(5), None);
        assert_eq!(state.fired_total(), 3);
    }

    #[test]
    fn sticky_panic_outlasts_the_retry_budget() {
        let plan = FaultPlan::parse("panic@cell=1").unwrap();
        assert!(!plan.eventually_transient());
        let state = FaultState::new(plan);
        for _ in 0..MAX_ATTEMPTS + 2 {
            assert_eq!(state.cell_fault(1), Some(CellFault::Panic));
        }
    }

    #[test]
    fn write_faults_arm_at_ordinal_and_fire_consecutively() {
        let plan = FaultPlan::parse("io_error@write=3:times=2").unwrap();
        let state = FaultState::new(plan);
        let interrupted = Some(IoFault::Io(ErrorKind::Interrupted));
        assert_eq!(state.io_fault(IoOp::Write), None); // 1
        assert_eq!(state.io_fault(IoOp::Write), None); // 2
        assert_eq!(state.io_fault(IoOp::Write), interrupted); // 3: armed
        assert_eq!(state.io_fault(IoOp::Write), interrupted); // 4: the retry
        assert_eq!(state.io_fault(IoOp::Write), None); // 5: disarmed
        assert_eq!(state.fired_total(), 2);
    }

    #[test]
    fn torn_write_fires_once_at_its_exact_ordinal() {
        let plan = FaultPlan::parse("torn_write@record=2").unwrap();
        let state = FaultState::new(plan);
        assert_eq!(state.io_fault(IoOp::Write), None);
        assert_eq!(state.io_fault(IoOp::Write), Some(IoFault::Torn));
        assert_eq!(state.io_fault(IoOp::Write), None);
    }

    #[test]
    fn open_and_export_ordinals_are_independent() {
        let plan = FaultPlan::parse(
            "io_error@open=1:kind=timed_out; io_error@export=2:kind=other; torn_write@record=1",
        )
        .unwrap();
        let state = FaultState::new(plan);
        assert_eq!(state.io_fault(IoOp::Export), None); // export ordinal 1
        assert_eq!(
            state.io_fault(IoOp::Open),
            Some(IoFault::Io(ErrorKind::TimedOut))
        );
        assert_eq!(
            state.io_fault(IoOp::Export),
            Some(IoFault::Io(ErrorKind::Other)) // export ordinal 2
        );
        assert_eq!(state.io_fault(IoOp::Open), None);
        // A torn write tears appends only, on the append ordinal.
        assert_eq!(state.io_fault(IoOp::Write), Some(IoFault::Torn));
    }

    #[test]
    fn transiency_classification() {
        assert!(is_transient_kind(ErrorKind::Interrupted));
        assert!(is_transient_kind(ErrorKind::WouldBlock));
        assert!(is_transient_kind(ErrorKind::TimedOut));
        assert!(!is_transient_kind(ErrorKind::PermissionDenied));
        assert!(!is_transient_kind(ErrorKind::NotFound));
        assert!(!is_transient_kind(ErrorKind::Other));
    }

    #[test]
    fn backoff_schedule_is_bounded_and_monotone() {
        let d: Vec<Duration> = (0..MAX_ATTEMPTS - 1).map(backoff_delay).collect();
        assert_eq!(
            d,
            vec![
                Duration::from_millis(1),
                Duration::from_millis(5),
                Duration::from_millis(25)
            ]
        );
        // Saturates instead of overflowing for absurd retry numbers.
        assert!(backoff_delay(100) >= backoff_delay(99));
    }

    /// A state whose backoff sleeps land in a shared [`TestClock`].
    fn with_test_clock(plan: &str) -> (FaultState, std::sync::Arc<TestClock>) {
        struct Fwd(std::sync::Arc<TestClock>);
        impl Clock for Fwd {
            fn sleep(&self, d: Duration) {
                self.0.sleep(d);
            }
        }
        let clock = std::sync::Arc::new(TestClock::default());
        let plan = FaultPlan::parse(plan).unwrap();
        let state = FaultState::with_clock(plan, Box::new(Fwd(clock.clone())));
        (state, clock)
    }

    #[test]
    fn retry_spends_the_budget_on_the_backoff_schedule() {
        let (state, clock) = with_test_clock("");
        let mut attempts = 0;
        let mut notes = Vec::new();
        let out: Result<(), &str> = state.retry(
            Retried::Io,
            false,
            |_| true,
            |n, _| notes.push((n, clock.sleeps(), clock.total())),
            || {
                attempts += 1;
                Err("down")
            },
        );
        assert_eq!(out, Err("down"));
        assert_eq!(attempts, MAX_ATTEMPTS);
        // Each retry note comes before its backoff: 1, 5, then 25 ms.
        let ms = Duration::from_millis;
        assert_eq!(
            notes,
            vec![(1, 0, ms(0)), (2, 1, ms(1)), (3, 2, ms(6))],
            "retry n/3 notes"
        );
        assert_eq!((clock.sleeps(), clock.total()), (3, ms(31)));
        let health = state.health(0, 0);
        assert_eq!((health.io_retries, health.cell_retries), (3, 0));
    }

    #[test]
    fn retry_stops_at_the_first_success() {
        let (state, clock) = with_test_clock("");
        let mut attempts = 0;
        let out = state.retry(
            Retried::Cell,
            false,
            |_: &&str| true,
            |_, _| {},
            || {
                attempts += 1;
                if attempts < 3 {
                    Err("flaky")
                } else {
                    Ok(attempts)
                }
            },
        );
        assert_eq!(out, Ok(3));
        assert_eq!(clock.sleeps(), 2);
        let health = state.health(1, 0);
        assert_eq!((health.cell_retries, health.io_retries), (2, 0));
    }

    #[test]
    fn fatal_errors_and_strict_stop_after_one_attempt() {
        for (strict, retryable) in [(false, false), (true, true)] {
            let (state, clock) = with_test_clock("");
            let mut attempts = 0;
            let out: Result<(), &str> = state.retry(
                Retried::Io,
                strict,
                |_| retryable,
                |_, _| panic!("no retry may be reported"),
                || {
                    attempts += 1;
                    Err("fatal")
                },
            );
            assert_eq!(out, Err("fatal"));
            assert_eq!(attempts, 1, "strict {strict}, retryable {retryable}");
            assert_eq!(clock.sleeps(), 0);
            assert_eq!(state.health(0, 0), RunHealth::default());
        }
    }

    #[test]
    fn health_reports_fired_faults_and_both_retry_tallies() {
        let (state, _) = with_test_clock("io_error@export=1; budget@cell=0:times=1");
        let export: Result<(), ErrorKind> = state.retry(
            Retried::Io,
            false,
            |kind| is_transient_kind(*kind),
            |_, _| {},
            || match state.io_fault(IoOp::Export) {
                Some(IoFault::Io(kind)) => Err(kind),
                _ => Ok(()),
            },
        );
        assert_eq!(export, Ok(()));
        let cell: Result<(), ()> = state.retry(
            Retried::Cell,
            false,
            |_| true,
            |_, _| {},
            || state.cell_fault(0).map_or(Ok(()), |_| Err(())),
        );
        assert_eq!(cell, Ok(()));
        assert_eq!(
            state.health(4, 0).summary(),
            "4 cells ok, 0 quarantined, 1 cell retry, 1 io retry, 2 faults injected"
        );
    }

    #[test]
    fn health_summary_reads_like_a_sentence() {
        let h = RunHealth {
            cells_ok: 23,
            cells_quarantined: 1,
            cell_retries: 3,
            io_retries: 2,
            faults_injected: 6,
        };
        assert!(h.degraded());
        assert_eq!(
            h.summary(),
            "23 cells ok, 1 quarantined, 3 cell retries, 2 io retries, 6 faults injected"
        );
        assert!(!RunHealth::default().degraded());
    }
}
