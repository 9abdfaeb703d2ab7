//! The work-stealing executor over per-actor mailboxes (protocol and
//! guarantees: [`crate::actors`] module docs).

use std::collections::VecDeque;

use sdds_sync::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use sdds_sync::sync::{Condvar, Mutex, MutexExt};
use sdds_sync::thread;

use super::mailbox::{Mailbox, SendOutcome};
use super::{ActorSession, ActorStatus};
use crate::obs::ActorObs;

/// Why a send was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The target actor already retired (completed or failed).
    Retired,
    /// The actor index is out of range for this run.
    UnknownActor,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Retired => write!(f, "actor already retired"),
            SendError::UnknownActor => write!(f, "no such actor"),
        }
    }
}

/// One actor after the run, with its scheduling telemetry.
#[derive(Debug)]
pub struct FinishedActor<A> {
    /// Position of the actor in the submitted batch.
    pub index: usize,
    /// The actor itself (views, meters and ledgers are read off it).
    pub actor: A,
    /// Events delivered to it.
    pub events: usize,
    /// Times a worker claimed it (each dispatch delivers at most `batch`
    /// events — with the default batch of 1, dispatches equal events for a
    /// purely event-driven actor: the no-wasted-polls figure of E11).
    pub dispatches: usize,
    /// Retirement rank (0 = first to retire); `None` if the run closed while
    /// the actor was still parked.
    pub completion_order: Option<usize>,
    /// Error message if the actor failed rather than completed.
    pub error: Option<String>,
}

impl<A> FinishedActor<A> {
    /// True when the actor retired by completing (not failing, not left
    /// parked at close).
    pub fn is_complete(&self) -> bool {
        self.completion_order.is_some() && self.error.is_none()
    }
}

/// Outcome of one engine run, in submission (index) order.
#[derive(Debug)]
pub struct ActorReport<A> {
    /// Every submitted actor, indexed as submitted.
    pub actors: Vec<FinishedActor<A>>,
    /// Events delivered across actors.
    pub events_total: usize,
    /// Dispatches across actors.
    pub dispatches_total: usize,
    /// Dispatches claimed from another worker's local queue.
    pub steals: usize,
}

impl<A> ActorReport<A> {
    /// Actors that failed, as `(index, message)` pairs.
    pub fn failures(&self) -> Vec<(usize, &str)> {
        self.actors
            .iter()
            .filter_map(|a| a.error.as_deref().map(|e| (a.index, e)))
            .collect()
    }

    /// True when every actor completed (none failed, none left parked).
    pub fn all_complete(&self) -> bool {
        self.actors.iter().all(FinishedActor::is_complete)
    }
}

/// Per-actor cell: the mailbox (state machine + event queue) and the actor
/// body. The two mutexes are never held together — claim/release take the
/// mailbox lock, delivery takes the body lock — and the body lock is
/// uncontended by protocol: only the claiming worker touches it.
struct Cell<A: ActorSession> {
    mailbox: Mailbox<A::Event>,
    body: Mutex<Body<A>>,
}

struct Body<A> {
    actor: A,
    events: usize,
    dispatches: usize,
    completion_order: Option<usize>,
    error: Option<String>,
}

/// Run-wide shared state: cells, run queues, and the idle/termination
/// protocol.
struct Shared<A: ActorSession> {
    cells: Vec<Cell<A>>,
    /// One FIFO per worker; requeues go to the stepping worker's tail.
    locals: Vec<Mutex<VecDeque<usize>>>,
    /// Driver sends (unparks) land here; any worker may claim them.
    injector: Mutex<VecDeque<usize>>,
    /// Wake epoch: bumped on every enqueue, retirement and close, so an idle
    /// worker that snapshotted the epoch *before* scanning the queues can
    /// sleep on `wake` without losing a wakeup (the epoch changed ⇒ rescan).
    epoch: Mutex<u64>,
    wake: Condvar,
    /// Ids that are Scheduled or Running. `0` under a quiescent scan means
    /// no queue holds work and no dispatch is in flight.
    inflight: AtomicUsize,
    /// Actors not yet retired.
    live: AtomicUsize,
    /// Set once the driver returned: no further sends can arrive.
    closed: AtomicBool,
    /// Retirement tickets.
    retired: AtomicUsize,
    steals: AtomicUsize,
    /// Max events one dispatch may deliver ([`ActorEngine::with_batch`]).
    batch_limit: usize,
    /// Telemetry handles (detached unless [`ActorEngine::with_obs`] wired
    /// them). Parallel tallies only — the report counters above stay the
    /// deterministic source of truth.
    obs: ActorObs,
}

impl<A: ActorSession> Shared<A> {
    /// Bumps the wake epoch and wakes sleepers. `all` distinguishes "one new
    /// runnable id" (one worker suffices) from "termination may now hold"
    /// (every sleeper must re-check).
    fn bump(&self, all: bool) {
        *self.epoch.lock_np() += 1;
        if self.obs.live {
            self.obs.wakes.inc();
        }
        if all {
            self.wake.notify_all();
        } else {
            self.wake.notify_one();
        }
    }

    /// Puts a newly scheduled id on a run queue. The inflight count is
    /// raised *before* the id becomes claimable so a concurrent quiescence
    /// scan cannot observe the queue entry without the count.
    fn enqueue(&self, queue: &Mutex<VecDeque<usize>>, id: usize) {
        // ordering: raised before the push below; the termination scan reads
        // it after finding every queue empty, so the id is never visible
        // while the count says quiescent.
        self.inflight.fetch_add(1, Ordering::SeqCst);
        queue.lock_np().push_back(id);
        self.bump(false);
    }

    /// Claims the next runnable id for `me`: own FIFO first, then the
    /// injector, then the front of the other workers' FIFOs (a steal).
    fn find_work(&self, me: usize) -> Option<usize> {
        if let Some(id) = self.locals[me].lock_np().pop_front() {
            return Some(id);
        }
        if let Some(id) = self.injector.lock_np().pop_front() {
            return Some(id);
        }
        for offset in 1..self.locals.len() {
            let victim = (me + offset) % self.locals.len();
            if let Some(id) = self.locals[victim].lock_np().pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                if self.obs.live {
                    self.obs.steals.inc();
                }
                return Some(id);
            }
        }
        None
    }

    /// True when no work can ever arrive again: the driver is done sending
    /// (or every actor retired), and nothing is scheduled or running.
    fn finished(&self) -> bool {
        // ordering: closed/live MUST be read before inflight. Once "closed
        // or no live actors" is observed, no sender can raise inflight again
        // (sends come only from the driver, which finished before `closed`
        // was set; retired mailboxes reject sends), so a subsequent zero
        // read is stable. Reading inflight first admits a termination race
        // the model checker found: the count drops to zero, a send raises it
        // and the driver closes, and the stale zero pairs with the fresh
        // closed flag — the worker exits and strands the event.
        if !(self.closed.load(Ordering::SeqCst) || self.live.load(Ordering::SeqCst) == 0) {
            return false;
        }
        // ordering: second load of the protocol described above.
        self.inflight.load(Ordering::SeqCst) == 0
    }

    /// Delivers one dispatch of actor `id` on worker `me`.
    fn dispatch(&self, me: usize, id: usize) {
        let started = if self.obs.live {
            self.obs.recorder.now_nanos()
        } else {
            0
        };
        let cell = &self.cells[id];
        let events = cell.mailbox.claim(self.batch_limit);
        let mut body = cell.body.lock_np();
        body.dispatches += 1;
        let status = if events.is_empty() {
            body.actor.on_step()
        } else {
            let mut last = Ok(ActorStatus::Parked);
            for event in events {
                body.events += 1;
                last = body.actor.on_event(event);
                if !matches!(last, Ok(ActorStatus::Ready) | Ok(ActorStatus::Parked)) {
                    break;
                }
            }
            last
        };
        if matches!(status, Ok(ActorStatus::Complete)) || status.is_err() {
            let ticket = self.retired.fetch_add(1, Ordering::Relaxed);
            body.completion_order = Some(ticket);
            body.error = status.err();
            drop(body);
            cell.mailbox.retire();
            self.live.fetch_sub(1, Ordering::SeqCst); // ordering: see `finished`
            self.inflight.fetch_sub(1, Ordering::SeqCst); // ordering: see `finished`
            self.bump(true);
            self.finish_dispatch(me, started);
            return;
        }
        drop(body);
        let ready = matches!(status, Ok(ActorStatus::Ready));
        if cell.mailbox.release(ready) {
            // Requeue at the tail of our own FIFO: the fairness guarantee.
            // Still inflight (Scheduled), so no count change.
            self.locals[me].lock_np().push_back(id);
            self.bump(false);
        } else {
            // Parked: the next send re-raises the count.
            if self.obs.live {
                self.obs.parks.inc();
            }
            self.inflight.fetch_sub(1, Ordering::SeqCst); // ordering: see `finished`
            self.bump(true);
        }
        self.finish_dispatch(me, started);
    }

    /// Closes the telemetry of one dispatch: counter, latency histogram and
    /// a flight record on the worker's lane. No-op on a detached bundle.
    fn finish_dispatch(&self, me: usize, started: u64) {
        if !self.obs.live {
            return;
        }
        let duration = self.obs.recorder.now_nanos().saturating_sub(started);
        self.obs.dispatches.inc();
        self.obs.dispatch_latency.record(duration);
        self.obs
            .recorder
            .record(me, "actors.dispatch", started, duration);
    }
}

/// Handle the driver closure uses to feed events into a running engine.
pub struct ActorHandle<'a, A: ActorSession> {
    shared: &'a Shared<A>,
}

impl<A: ActorSession> ActorHandle<'_, A> {
    /// Queues `event` for actor `index`, blocking while its mailbox is full
    /// (backpressure). Unparks the actor if it was parked. Fails once the
    /// actor retired — queued work for a finished session is a driver bug
    /// the caller must see, not silently drop.
    pub fn send(&self, index: usize, event: A::Event) -> Result<(), SendError> {
        let cell = self
            .shared
            .cells
            .get(index)
            .ok_or(SendError::UnknownActor)?;
        match cell.mailbox.send(event) {
            Ok((outcome, stalls)) => {
                if self.shared.obs.live && stalls > 0 {
                    self.shared.obs.mailbox_stalls.add(stalls as u64);
                }
                if outcome == SendOutcome::Unparked {
                    if self.shared.obs.live {
                        self.shared.obs.unparks.inc();
                    }
                    self.shared.enqueue(&self.shared.injector, index);
                }
                Ok(())
            }
            Err(()) => {
                if self.shared.obs.live {
                    self.shared.obs.mailbox_closed.inc();
                }
                Err(SendError::Retired)
            }
        }
    }

    /// Number of actors in this run.
    pub fn actors(&self) -> usize {
        self.shared.cells.len()
    }
}

/// The work-stealing, readiness-driven executor (see [`crate::actors`]).
#[derive(Debug, Clone)]
pub struct ActorEngine {
    workers: usize,
    batch: usize,
    capacity: usize,
    obs: ActorObs,
}

impl ActorEngine {
    /// An engine with `workers` worker threads (clamped to at least 1),
    /// delivering 1 event per dispatch from mailboxes bounded at 32 events.
    /// Telemetry is detached until [`ActorEngine::with_obs`] wires it.
    pub fn new(workers: usize) -> Self {
        ActorEngine {
            workers: workers.max(1),
            batch: 1,
            capacity: 32,
            obs: ActorObs::detached(),
        }
    }

    /// Wires the engine's telemetry (steal/park/unpark/wake counters,
    /// dispatch latency, mailbox backpressure) into `obs`'s cells — usually a
    /// clone of [`crate::DspObs::actors`].
    pub fn with_obs(mut self, obs: ActorObs) -> Self {
        self.obs = obs;
        self
    }

    /// Sets how many events one dispatch may deliver (clamped to at least
    /// 1). Larger batches amortize queue hops; 1 maximizes fairness.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Sets the per-actor mailbox bound (clamped to at least 1).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `actors` (all starting parked) while `driver` — executed on the
    /// calling thread — feeds events through the [`ActorHandle`]. When the
    /// driver returns, the engine drains every queued event and joins; actors
    /// still parked at that point are reported unretired.
    pub fn run<A, D>(&self, actors: Vec<A>, driver: D) -> ActorReport<A>
    where
        A: ActorSession,
        D: FnOnce(&ActorHandle<'_, A>),
    {
        self.run_inner(actors, false, driver)
    }

    /// Runs self-driving actors: every actor starts scheduled (its first
    /// dispatch is an event-less [`ActorSession::on_step`]) and keeps being
    /// redispatched while it reports [`ActorStatus::Ready`]. This is how
    /// [`crate::service::SessionScheduler`] runs its sessions.
    pub fn run_ready<A: ActorSession>(&self, actors: Vec<A>) -> ActorReport<A> {
        self.run_inner(actors, true, |_| {})
    }

    fn run_inner<A, D>(&self, actors: Vec<A>, start_ready: bool, driver: D) -> ActorReport<A>
    where
        A: ActorSession,
        D: FnOnce(&ActorHandle<'_, A>),
    {
        let count = actors.len();
        let shared = Shared {
            cells: actors
                .into_iter()
                .map(|actor| Cell {
                    mailbox: Mailbox::new(self.capacity),
                    body: Mutex::new(Body {
                        actor,
                        events: 0,
                        dispatches: 0,
                        completion_order: None,
                        error: None,
                    }),
                })
                // alloc: startup — the actor fleet is built once per engine run.
                .collect(),
            locals: (0..self.workers)
                .map(|_| Mutex::new(VecDeque::new()))
                // alloc: startup — the actor fleet is built once per engine run.
                .collect(),
            injector: Mutex::new(VecDeque::new()),
            epoch: Mutex::new(0),
            wake: Condvar::new(),
            inflight: AtomicUsize::new(0),
            live: AtomicUsize::new(count),
            closed: AtomicBool::new(false),
            retired: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
            batch_limit: self.batch,
            // alloc: startup — the actor fleet is built once per engine run.
            obs: self.obs.clone(),
        };
        if start_ready {
            // Seed round-robin over the local FIFOs so the initial load is
            // spread before any stealing happens.
            for id in 0..count {
                if shared.cells[id].mailbox.seed() {
                    shared.enqueue(&shared.locals[id % self.workers], id);
                }
            }
        }

        thread::scope(|scope| {
            for me in 0..self.workers {
                let shared = &shared;
                scope.spawn(move || loop {
                    // Snapshot the epoch BEFORE scanning: any enqueue we race
                    // bumps it, so the sleep below cannot miss it.
                    let seen = *shared.epoch.lock_np();
                    if let Some(id) = shared.find_work(me) {
                        shared.dispatch(me, id);
                        continue;
                    }
                    if shared.finished() {
                        break;
                    }
                    let mut epoch = shared.epoch.lock_np();
                    while *epoch == seen {
                        epoch = shared
                            .wake
                            .wait(epoch)
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                    }
                });
            }
            // The driver runs on the calling thread, inside the scope: its
            // sends overlap the workers' dispatching.
            driver(&ActorHandle { shared: &shared });
            // ordering: the close must not be reorderable before the
            // driver's last enqueue — the termination scan pairs with it.
            shared.closed.store(true, Ordering::SeqCst);
            shared.bump(true);
        });

        let mut events_total = 0;
        let mut dispatches_total = 0;
        let actors: Vec<FinishedActor<A>> = shared
            .cells
            .into_iter()
            .enumerate()
            .map(|(index, cell)| {
                let body = cell
                    .body
                    .into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                events_total += body.events;
                dispatches_total += body.dispatches;
                FinishedActor {
                    index,
                    actor: body.actor,
                    events: body.events,
                    dispatches: body.dispatches,
                    completion_order: body.completion_order,
                    error: body.error,
                }
            })
            // alloc: startup — the report is assembled once at engine shutdown.
            .collect();
        ActorReport {
            actors,
            events_total,
            dispatches_total,
            steals: shared.steals.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts down `budget` events, completing at zero.
    struct Countdown {
        budget: usize,
    }

    impl ActorSession for Countdown {
        type Event = ();

        fn on_event(&mut self, (): ()) -> Result<ActorStatus, String> {
            self.budget = self.budget.saturating_sub(1);
            if self.budget == 0 {
                Ok(ActorStatus::Complete)
            } else {
                Ok(ActorStatus::Parked)
            }
        }

        fn on_step(&mut self) -> Result<ActorStatus, String> {
            Err("stepped without an event".into())
        }
    }

    /// Self-driving: `Ready` for `laps` steps, then `Complete`.
    struct Laps {
        laps: usize,
    }

    impl ActorSession for Laps {
        type Event = ();

        fn on_event(&mut self, (): ()) -> Result<ActorStatus, String> {
            self.on_step()
        }

        fn on_step(&mut self) -> Result<ActorStatus, String> {
            self.laps = self.laps.saturating_sub(1);
            if self.laps == 0 {
                Ok(ActorStatus::Complete)
            } else {
                Ok(ActorStatus::Ready)
            }
        }
    }

    #[test]
    fn event_driven_actors_complete_with_one_dispatch_per_event() {
        let engine = ActorEngine::new(3);
        let actors: Vec<Countdown> = (0..16).map(|i| Countdown { budget: i + 1 }).collect();
        let report = engine.run(actors, |handle| {
            for round in 0..16 {
                for id in 0..handle.actors() {
                    if id >= round {
                        assert_eq!(handle.send(id, ()), Ok(()));
                    }
                }
            }
        });
        assert!(report.all_complete(), "failures: {:?}", report.failures());
        // Actor i gets exactly i+1 events; batch=1 so dispatches == events.
        let expected: usize = (1..=16).sum();
        assert_eq!(report.events_total, expected);
        assert_eq!(report.dispatches_total, expected);
        for finished in &report.actors {
            assert_eq!(finished.events, finished.index + 1);
            assert_eq!(finished.dispatches, finished.events);
        }
    }

    #[test]
    fn ready_seeded_actors_self_drive_to_completion() {
        let engine = ActorEngine::new(4);
        let actors: Vec<Laps> = (0..64).map(|i| Laps { laps: 1 + i % 7 }).collect();
        let report = engine.run_ready(actors);
        assert!(report.all_complete(), "failures: {:?}", report.failures());
        assert_eq!(report.events_total, 0, "pure on_step driving");
        let expected: usize = (0..64).map(|i| 1 + i % 7).sum();
        assert_eq!(report.dispatches_total, expected);
        let mut orders: Vec<usize> = report
            .actors
            .iter()
            .filter_map(|a| a.completion_order)
            .collect();
        orders.sort_unstable();
        assert_eq!(
            orders,
            (0..64).collect::<Vec<_>>(),
            "dense retirement ranks"
        );
    }

    #[test]
    fn send_to_retired_actor_fails_and_unsent_actor_stays_unretired() {
        let engine = ActorEngine::new(2);
        let actors = vec![Countdown { budget: 1 }, Countdown { budget: 1 }];
        let report = engine.run(actors, |handle| {
            assert_eq!(handle.send(0, ()), Ok(()));
            // Wait for actor 0 to retire, then hit the closed mailbox.
            loop {
                match handle.send(0, ()) {
                    Err(SendError::Retired) => break,
                    Ok(()) => sdds_sync::thread::yield_now(),
                    Err(e) => panic!("unexpected send error: {e}"),
                }
            }
            assert_eq!(handle.send(9, ()), Err(SendError::UnknownActor));
        });
        assert!(report.actors[0].is_complete());
        assert!(
            report.actors[1].completion_order.is_none(),
            "never woken, never retired"
        );
        assert_eq!(report.actors[1].dispatches, 0, "parked actors cost nothing");
    }

    #[test]
    fn failing_actor_reports_its_error() {
        struct Explodes;
        impl ActorSession for Explodes {
            type Event = ();
            fn on_event(&mut self, (): ()) -> Result<ActorStatus, String> {
                Err("boom".into())
            }
            fn on_step(&mut self) -> Result<ActorStatus, String> {
                Err("boom".into())
            }
        }
        let report = ActorEngine::new(1).run(vec![Explodes], |handle| {
            assert_eq!(handle.send(0, ()), Ok(()));
        });
        assert!(!report.all_complete());
        assert_eq!(report.failures(), vec![(0, "boom")]);
    }

    #[test]
    fn batching_amortizes_dispatches() {
        let engine = ActorEngine::new(1).with_batch(8).with_capacity(64);
        let report = engine.run(vec![Countdown { budget: 24 }], |handle| {
            for _ in 0..24 {
                assert_eq!(handle.send(0, ()), Ok(()));
            }
        });
        assert!(report.all_complete(), "failures: {:?}", report.failures());
        assert_eq!(report.events_total, 24);
        assert!(
            report.dispatches_total < 24,
            "batch of 8 must claim several events per dispatch, got {} dispatches",
            report.dispatches_total
        );
    }

    #[test]
    fn workers_steal_from_a_loaded_peer() {
        // All actors seed onto worker 0's local FIFO modulo workers, but with
        // 4 workers and heavy per-actor work the idle ones must steal.
        let engine = ActorEngine::new(4);
        let actors: Vec<Laps> = (0..128).map(|_| Laps { laps: 16 }).collect();
        let report = engine.run_ready(actors);
        assert!(report.all_complete(), "failures: {:?}", report.failures());
        assert_eq!(report.dispatches_total, 128 * 16);
    }
}
