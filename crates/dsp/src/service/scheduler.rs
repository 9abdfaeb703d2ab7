//! Fair multiplexing of many card sessions over a pool of worker threads.
//!
//! A smart-card pull session is a long conversation: hundreds of APDU
//! exchanges and chunk requests per document. Serving K clients one after the
//! other would give the first card exclusive use of the DSP and make the last
//! card wait K full sessions. The [`SessionScheduler`] advances every session
//! a *quantum* of chunk requests at a time instead.
//!
//! The sessions run on the [`crate::actors::ActorEngine`]: each one is a
//! self-driving actor that the work-stealing worker pool dispatches one
//! quantum-bounded step at a time. A session that still has work is
//! requeued at the **tail** of the stepping worker's FIFO, so between two
//! steps of one session every other runnable session on that worker gets
//! exactly one step — a fair round-robin per card, exact with one worker.
//! Dispatch bookkeeping is O(changed work), never O(sessions), so the same
//! engine carries E10's hundreds of cards and E11's 100k sessions.
//!
//! The scheduler is deliberately generic: anything implementing
//! [`Schedulable`] can be multiplexed. The terminal proxy implements it for
//! its `CardSession` (a card mid-pull against the shared [`crate::service::
//! DspService`]), which is what the E10 multi-client experiment drives.
//! Scheduled views equal unscheduled pulls for any worker count and quantum
//! (`tests/actor_equivalence.rs`).

use crate::actors::{ActorEngine, ActorSession, ActorStatus};
use crate::obs::{ActorObs, DspObs};

/// What a step of a session reports back to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The session made progress but has more work; requeue it.
    Pending,
    /// The session finished (its output can be collected from the session).
    Complete,
}

/// A session the scheduler can advance in bounded steps.
pub trait Schedulable: Send {
    /// Advances the session by at most `quantum` units of work (for a card
    /// pull session: chunk requests served). Returns [`StepOutcome::Pending`]
    /// while more work remains; an `Err` retires the session immediately with
    /// the given message.
    fn step(&mut self, quantum: usize) -> Result<StepOutcome, String>;
}

/// One retired session, with its scheduling telemetry.
#[derive(Debug)]
pub struct FinishedSession<S> {
    /// Position of the session in the submitted batch.
    pub index: usize,
    /// The session itself (views, meters and ledgers are read off it).
    pub session: S,
    /// Steps the scheduler granted it.
    pub steps: usize,
    /// Retirement rank: 0 for the first session to finish, and so on.
    pub completion_order: usize,
    /// Error message if the session failed rather than completed.
    pub error: Option<String>,
}

impl<S> FinishedSession<S> {
    /// True when the session retired without an error.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Outcome of one scheduler run.
#[derive(Debug)]
pub struct ScheduleReport<S> {
    /// Every submitted session, in retirement order.
    pub finished: Vec<FinishedSession<S>>,
    /// Total steps granted across sessions.
    pub steps_total: usize,
}

impl<S> ScheduleReport<S> {
    /// Sessions that failed, as `(index, message)` pairs.
    pub fn failures(&self) -> Vec<(usize, &str)> {
        self.finished
            .iter()
            .filter_map(|f| f.error.as_deref().map(|e| (f.index, e)))
            .collect()
    }

    /// Largest difference in granted steps between any two sessions — the
    /// fairness figure the round-robin tests pin.
    pub fn step_spread(&self) -> usize {
        let steps = self.finished.iter().map(|f| f.steps);
        match (steps.clone().max(), steps.min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }
}

/// A work-conserving round-robin scheduler over a fixed worker pool.
#[derive(Debug, Clone)]
pub struct SessionScheduler {
    workers: usize,
    quantum: usize,
    /// Actor-engine telemetry (dispatches, steals, parks, dispatch latency);
    /// detached until [`SessionScheduler::with_obs`] wires it.
    obs: ActorObs,
}

/// Adapter running a [`Schedulable`] on the actor engine: each dispatch
/// grants one quantum-bounded step, and the session stays `Ready` (self-
/// driving) until it completes, so the engine requeues it at the tail of
/// the stepping worker's run queue.
struct StepActor<S> {
    session: S,
    quantum: usize,
    steps: usize,
}

impl<S: Schedulable> ActorSession for StepActor<S> {
    type Event = ();

    fn on_event(&mut self, (): ()) -> Result<ActorStatus, String> {
        self.on_step()
    }

    fn on_step(&mut self) -> Result<ActorStatus, String> {
        self.steps += 1;
        match self.session.step(self.quantum)? {
            StepOutcome::Pending => Ok(ActorStatus::Ready),
            StepOutcome::Complete => Ok(ActorStatus::Complete),
        }
    }
}

impl SessionScheduler {
    /// Creates a scheduler with `workers` worker threads, each advancing a
    /// session by `quantum` units per step. Both are clamped to at least 1.
    pub fn new(workers: usize, quantum: usize) -> Self {
        SessionScheduler {
            workers: workers.max(1),
            quantum: quantum.max(1),
            obs: ActorObs::detached(),
        }
    }

    /// Wires the scheduler's telemetry (the actor engine's dispatch, steal
    /// and park counters and its dispatch latency) into `obs`'s cells so a
    /// service-wide snapshot covers the scheduling layer.
    pub fn with_obs(mut self, obs: &DspObs) -> Self {
        self.obs = obs.actors();
        self
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Units of work per scheduling step.
    pub fn quantum(&self) -> usize {
        self.quantum
    }

    /// Runs every session to retirement and returns them with their
    /// scheduling telemetry, sorted by retirement rank.
    ///
    /// Each session becomes a self-driving actor seeded ready on the
    /// [`ActorEngine`]: one dispatch grants one quantum-bounded step, and a
    /// still-pending session is requeued at the tail of its worker's FIFO.
    /// With a single worker the schedule is an exact round-robin in
    /// submission order; with more it is round-robin per worker, with
    /// stealing evening out the load.
    ///
    /// ```
    /// use sdds_dsp::service::{Schedulable, SessionScheduler, StepOutcome};
    ///
    /// struct Countdown(usize);
    ///
    /// impl Schedulable for Countdown {
    ///     fn step(&mut self, quantum: usize) -> Result<StepOutcome, String> {
    ///         self.0 = self.0.saturating_sub(quantum);
    ///         Ok(if self.0 == 0 { StepOutcome::Complete } else { StepOutcome::Pending })
    ///     }
    /// }
    ///
    /// let report = SessionScheduler::new(4, 8).run(vec![Countdown(20), Countdown(5)]);
    /// assert!(report.failures().is_empty());
    /// assert_eq!(report.steps_total, 3 + 1);
    /// ```
    pub fn run<S: Schedulable>(&self, sessions: Vec<S>) -> ScheduleReport<S> {
        let actors: Vec<StepActor<S>> = sessions
            .into_iter()
            .map(|session| StepActor {
                session,
                quantum: self.quantum,
                steps: 0,
            })
            .collect();
        let report = ActorEngine::new(self.workers)
            .with_obs(self.obs.clone())
            .run_ready(actors);
        let steps_total = report.dispatches_total;
        let mut finished: Vec<FinishedSession<S>> = report
            .actors
            .into_iter()
            .map(|actor| FinishedSession {
                index: actor.index,
                session: actor.actor.session,
                steps: actor.actor.steps,
                completion_order: actor.completion_order.unwrap_or(usize::MAX),
                error: actor.error,
            })
            .collect();
        finished.sort_by_key(|f| f.completion_order);
        for (rank, f) in finished.iter_mut().enumerate() {
            f.completion_order = rank;
        }
        ScheduleReport {
            finished,
            steps_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A session needing `remaining` units of work.
    struct Counter {
        remaining: usize,
        fail_at: Option<usize>,
    }

    impl Schedulable for Counter {
        fn step(&mut self, quantum: usize) -> Result<StepOutcome, String> {
            if let Some(at) = self.fail_at {
                if self.remaining <= at {
                    return Err("boom".into());
                }
            }
            self.remaining = self.remaining.saturating_sub(quantum);
            if self.remaining == 0 {
                Ok(StepOutcome::Complete)
            } else {
                Ok(StepOutcome::Pending)
            }
        }
    }

    #[test]
    fn single_worker_round_robin_is_exactly_fair() {
        let scheduler = SessionScheduler::new(1, 10);
        let sessions = (0..8)
            .map(|_| Counter {
                remaining: 100,
                fail_at: None,
            })
            .collect();
        let report = scheduler.run(sessions);
        assert_eq!(report.finished.len(), 8);
        assert!(report.finished.iter().all(FinishedSession::is_ok));
        // Equal work + FIFO requeue ⇒ every session got exactly 10 steps.
        assert_eq!(report.step_spread(), 0);
        assert_eq!(report.steps_total, 80);
        // Round-robin retires equal sessions in submission order.
        let order: Vec<usize> = report.finished.iter().map(|f| f.index).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn short_sessions_finish_before_long_ones_complete() {
        let scheduler = SessionScheduler::new(2, 5);
        let mut sessions = Vec::new();
        for i in 0..6 {
            sessions.push(Counter {
                remaining: if i % 2 == 0 { 10 } else { 200 },
                fail_at: None,
            });
        }
        let report = scheduler.run(sessions);
        assert_eq!(report.finished.len(), 6);
        // The three short sessions all retire before any long one: fairness
        // means a long session cannot starve the short ones behind it.
        let short_max = report
            .finished
            .iter()
            .filter(|f| f.index % 2 == 0)
            .map(|f| f.completion_order)
            .max()
            .unwrap();
        let long_min = report
            .finished
            .iter()
            .filter(|f| f.index % 2 == 1)
            .map(|f| f.completion_order)
            .min()
            .unwrap();
        assert!(short_max < long_min);
    }

    #[test]
    fn failing_sessions_retire_with_their_error_without_stalling_others() {
        let scheduler = SessionScheduler::new(3, 7);
        let sessions = vec![
            Counter {
                remaining: 50,
                fail_at: None,
            },
            Counter {
                remaining: 50,
                fail_at: Some(30),
            },
            Counter {
                remaining: 50,
                fail_at: None,
            },
        ];
        let report = scheduler.run(sessions);
        assert_eq!(report.finished.len(), 3);
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 1);
        assert_eq!(failures[0].1, "boom");
        assert!(report.finished.iter().filter(|f| f.is_ok()).count() == 2);
    }

    #[test]
    fn steps_match_work_and_ranks_are_dense_for_every_worker_count() {
        const QUANTUM: usize = 10;
        let work = |i: usize| 40 + 10 * (i % 3);
        for workers in 1..=4 {
            let report = SessionScheduler::new(workers, QUANTUM).run(
                (0..12)
                    .map(|i| Counter {
                        remaining: work(i),
                        fail_at: if i == 5 { Some(20) } else { None },
                    })
                    .collect(),
            );
            assert_eq!(report.finished.len(), 12, "workers={workers}");
            assert_eq!(report.failures(), vec![(5, "boom")], "workers={workers}");
            // Every healthy session took exactly ceil(work / quantum) steps;
            // the failing one (work 60) retired on the step that found it at
            // its failure point: 60 → 50 → 40 → 30 → 20 → fail.
            for f in &report.finished {
                let expected = if f.index == 5 {
                    5
                } else {
                    work(f.index).div_ceil(QUANTUM)
                };
                assert_eq!(f.steps, expected, "workers={workers} index={}", f.index);
            }
            assert_eq!(
                report.steps_total,
                report.finished.iter().map(|f| f.steps).sum::<usize>(),
                "workers={workers}"
            );
            // Retirement ranks are dense and the report is sorted by them.
            let ranks: Vec<usize> = report.finished.iter().map(|f| f.completion_order).collect();
            assert_eq!(ranks, (0..12).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn clamps_degenerate_configuration() {
        let scheduler = SessionScheduler::new(0, 0);
        assert_eq!(scheduler.workers(), 1);
        assert_eq!(scheduler.quantum(), 1);
        let report = scheduler.run(vec![Counter {
            remaining: 3,
            fail_at: None,
        }]);
        assert_eq!(report.finished.len(), 1);
        assert_eq!(report.finished[0].steps, 3);
        assert_eq!(report.step_spread(), 0);
    }
}
