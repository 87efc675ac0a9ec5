//! Timing decorators for the three public seams the program already has:
//! [`Operator`] (`opt`), [`ScheduleGen`] (`models`) and
//! [`Transport`]/[`Endpoint`] (`runtime.transport`).
//!
//! Each decorator forwards every call unchanged and adds the call's
//! duration and size to a [`Meter`]. Decorators are installed only in the
//! traced run; iterates are bit-identical with them on or off (unit
//! tested), so the traced run does the same work as the timed one.

use asynciter_models::schedule::{ScheduleGen, StepBuf};
use asynciter_opt::traits::Operator;
use asynciter_runtime::transport::{BlockMessage, Endpoint, Transport};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Slots per meter. Threads take slots round-robin in spawn order, so
/// the few threads alive at once never share one.
const SLOTS: usize = 64;

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn slot() -> usize {
    SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
        }
        s.get()
    })
}

/// One thread's counters, on cache lines of their own so that metering
/// adds no sharing between worker threads.
#[repr(align(128))]
#[derive(Debug, Default)]
struct Slot {
    calls: AtomicU64,
    items: AtomicU64,
    busy_ns: AtomicU64,
}

/// Summed counters of a [`Meter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Calls metered.
    pub calls: u64,
    /// Items those calls handled (components, labels, bytes).
    pub items: u64,
    /// Time spent inside those calls, summed over threads.
    pub busy_ns: u64,
}

/// Per-thread call/item/busy-time accumulators, merged on read. The
/// counters are statistics that publish no other data, hence `Relaxed`;
/// readers call [`Meter::totals`] after the metered threads were joined.
#[derive(Debug)]
pub struct Meter {
    slots: Vec<Slot>,
}

impl Default for Meter {
    fn default() -> Self {
        Self {
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
        }
    }
}

impl Meter {
    /// Adds one call that started at `start` and handled `items` items.
    #[inline]
    pub fn record(&self, start: Instant, items: u64) {
        let ns = start.elapsed().as_nanos() as u64;
        let s = &self.slots[slot()];
        s.calls.fetch_add(1, Ordering::Relaxed);
        s.items.fetch_add(items, Ordering::Relaxed);
        s.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// The sum over all threads.
    pub fn totals(&self) -> Totals {
        self.slots.iter().fold(Totals::default(), |t, s| Totals {
            calls: t.calls + s.calls.load(Ordering::Relaxed),
            items: t.items + s.items.load(Ordering::Relaxed),
            busy_ns: t.busy_ns + s.busy_ns.load(Ordering::Relaxed),
        })
    }
}

/// [`Operator`] decorator: meters block updates (items = components) and
/// residual evaluations.
pub struct TimedOperator<'a> {
    inner: &'a dyn Operator,
    /// `update_active` / `update_active_with` calls.
    pub update: Meter,
    /// `residual_inf` / `residual_inf_with` calls.
    pub residual: Meter,
}

impl<'a> TimedOperator<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn Operator) -> Self {
        Self {
            inner,
            update: Meter::default(),
            residual: Meter::default(),
        }
    }
}

impl Operator for TimedOperator<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn component(&self, i: usize, x: &[f64]) -> f64 {
        self.inner.component(i, x)
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.inner.apply(x, out);
    }

    fn update_active(&self, x: &[f64], active: &[usize], out: &mut [f64]) {
        let t = Instant::now();
        self.inner.update_active(x, active, out);
        self.update.record(t, active.len() as u64);
    }

    fn residual_inf(&self, x: &[f64]) -> f64 {
        let t = Instant::now();
        let r = self.inner.residual_inf(x);
        self.residual.record(t, 1);
        r
    }

    fn scratch_len(&self) -> usize {
        self.inner.scratch_len()
    }

    fn update_active_with(
        &self,
        x: &[f64],
        active: &[usize],
        out: &mut [f64],
        scratch: &mut [f64],
    ) {
        let t = Instant::now();
        self.inner.update_active_with(x, active, out, scratch);
        self.update.record(t, active.len() as u64);
    }

    fn apply_with(&self, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        self.inner.apply_with(x, out, scratch);
    }

    fn residual_inf_with(&self, x: &[f64], scratch: &mut [f64]) -> f64 {
        let t = Instant::now();
        let r = self.inner.residual_inf_with(x, scratch);
        self.residual.record(t, 1);
        r
    }
}

/// [`ScheduleGen`] decorator: meters `step` (items = labels produced).
pub struct TimedSchedule<'a, G> {
    inner: G,
    meter: &'a Meter,
}

impl<'a, G: ScheduleGen> TimedSchedule<'a, G> {
    /// Wraps `inner`, reporting into `meter` (the session consumes the
    /// schedule, so the meter lives with the caller).
    pub fn new(inner: G, meter: &'a Meter) -> Self {
        Self { inner, meter }
    }
}

impl<G: ScheduleGen> ScheduleGen for TimedSchedule<'_, G> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        let t = Instant::now();
        self.inner.step(j, buf);
        self.meter.record(t, buf.labels.len() as u64);
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Meters of a [`TimedTransport`], shared with the endpoints it hands
/// out.
#[derive(Debug, Default)]
pub struct TransportMeters {
    /// `send` calls (items = payload bytes, computed from the message).
    pub send: Meter,
    /// `try_recv` calls that returned a message (items = payload bytes).
    pub recv: Meter,
    /// `try_recv` calls that found the mailbox empty.
    pub empty: Meter,
}

/// Bytes a message occupies in flight: the struct plus its triples.
/// Computed from the layout, not measured.
pub fn payload_bytes(msg: &BlockMessage) -> u64 {
    (std::mem::size_of::<BlockMessage>() + msg.comps.len() * std::mem::size_of::<(u32, f64, u64)>())
        as u64
}

/// [`Transport`] decorator: wraps every endpoint `inner` connects, i.e.
/// it sits *below* whatever the engine layers on top (its
/// `FaultEndpoint`), and sees the traffic that reaches the wire.
pub struct TimedTransport<T> {
    inner: T,
    /// The shared meters.
    pub meters: Arc<TransportMeters>,
}

impl<T: Transport> TimedTransport<T> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> Self {
        Self {
            inner,
            meters: Arc::default(),
        }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn connect(&mut self, workers: usize) -> Vec<Box<dyn Endpoint>> {
        self.inner
            .connect(workers)
            .into_iter()
            .map(|inner| {
                Box::new(TimedEndpoint {
                    inner,
                    meters: Arc::clone(&self.meters),
                }) as Box<dyn Endpoint>
            })
            .collect()
    }
}

struct TimedEndpoint {
    inner: Box<dyn Endpoint>,
    meters: Arc<TransportMeters>,
}

impl Endpoint for TimedEndpoint {
    fn send(&mut self, dest: usize, msg: BlockMessage) {
        let bytes = payload_bytes(&msg);
        let t = Instant::now();
        self.inner.send(dest, msg);
        self.meters.send.record(t, bytes);
    }

    fn try_recv(&mut self) -> Option<BlockMessage> {
        let t = Instant::now();
        let got = self.inner.try_recv();
        match &got {
            Some(msg) => self.meters.recv.record(t, payload_bytes(msg)),
            None => self.meters.empty.record(t, 0),
        }
        got
    }
}
