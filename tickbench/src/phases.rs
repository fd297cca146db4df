//! Per-layer split of one traced tick, measured from outside the server.
//!
//! [`TickObserver`] timestamps the scheduler's existing
//! [`ExecObserver`] callbacks; [`Splitter`] turns the marks into phase
//! times. Each interval between two consecutive marks goes to exactly one
//! phase, chosen by the pair of marks that bound it, so the phases always
//! add up to the whole tick: anything no rule claims is `unattributed`,
//! never dropped.
//!
//! Phase boundaries (one scheduler round is demand → choices → iterations
//! → round end):
//!
//! | Interval | Phase |
//! |---|---|
//! | tick call → `on_operator_start` | `pool` (model invocation, warm seeding) |
//! | operator start or round end → first `on_choice` | `demand_select` (demand recomputation, candidate build, top-k) |
//! | first `on_choice` → first `on_iteration` or `on_budget_exhausted` | `execute` (admission, claimant credit, kernel) |
//! | last round end or budget exhaustion → `on_operator_end` | `answer` (final demand pass, answer assembly) |
//! | `on_operator_end` → tick call returns | `commit` (journal append, snapshot) |

use std::time::Instant;

use vao::trace::{
    BudgetExhaustedRecord, ChoiceRecord, ExecObserver, IterationRecord, OperatorEndRecord,
    OperatorKind, RoundRecord,
};

/// A timestamped boundary inside one tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mark {
    /// The tick call began.
    Start,
    /// `on_operator_start`: the pool is priced.
    OpStart,
    /// `on_choice`.
    Choice,
    /// `on_iteration`.
    Iteration,
    /// `on_budget_exhausted`: a round selected objects but admitted none.
    BudgetExhausted,
    /// `on_round`.
    Round,
    /// `on_operator_end`: answers are assembled.
    OpEnd,
    /// The tick call returned.
    Return,
}

/// Seconds spent in each phase of one or more ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Split {
    /// Model invocation and warm seeding.
    pub pool: f64,
    /// Demand recomputation, candidate build and top-k selection.
    pub demand_select: f64,
    /// Budget admission, claimant credit and the kernel.
    pub execute: f64,
    /// Final demand pass and answer assembly.
    pub answer: f64,
    /// Journal append and snapshot after the scheduler finished.
    pub commit: f64,
    /// Time between marks no rule claims.
    pub unattributed: f64,
}

impl Split {
    /// Sum of every phase: the whole span the marks covered.
    pub fn total(&self) -> f64 {
        self.pool
            + self.demand_select
            + self.execute
            + self.answer
            + self.commit
            + self.unattributed
    }

    /// Adds `other` phase by phase.
    pub fn add(&mut self, other: &Split) {
        self.pool += other.pool;
        self.demand_select += other.demand_select;
        self.execute += other.execute;
        self.answer += other.answer;
        self.commit += other.commit;
        self.unattributed += other.unattributed;
    }
}

/// Streaming phase attribution over a sequence of marks.
#[derive(Clone, Debug, Default)]
pub struct Splitter {
    prev: Option<(Mark, f64)>,
    split: Split,
}

impl Splitter {
    /// Attributes the interval since the previous mark, then remembers
    /// this one. `at` is in seconds on any monotone clock.
    pub fn mark(&mut self, mark: Mark, at: f64) {
        if let Some((prev, since)) = self.prev {
            let dt = at - since;
            use Mark::*;
            let slot = match (prev, mark) {
                (Start, OpStart) => &mut self.split.pool,
                (OpStart | Round, Choice | BudgetExhausted) => &mut self.split.demand_select,
                (Choice, Choice | Iteration | BudgetExhausted) => &mut self.split.execute,
                (OpStart | Round | BudgetExhausted, OpEnd) => &mut self.split.answer,
                (OpEnd, Return) => &mut self.split.commit,
                _ => &mut self.split.unattributed,
            };
            *slot += dt;
        }
        self.prev = Some((mark, at));
    }

    /// The phase times so far.
    pub fn split(&self) -> Split {
        self.split
    }
}

/// Counts and phase times of one traced tick.
#[derive(Clone, Debug, Default)]
pub struct TickTrace {
    /// Phase times.
    pub split: Split,
    /// Scheduler rounds that executed.
    pub rounds: u64,
    /// Candidates scored, summed over executed rounds.
    pub candidates: u64,
    /// Objects selected, summed over executed rounds.
    pub selected: u64,
    /// Objects admitted, summed over executed rounds.
    pub admitted: u64,
    /// `iterate()` calls.
    pub iterations: u64,
    /// Work the iterations charged (the kernel's metered work).
    pub iteration_work: u64,
    /// Whether the tick ran out of budget.
    pub budget_exhausted: bool,
}

/// An [`ExecObserver`] that timestamps the scheduler's callbacks.
#[derive(Debug)]
pub struct TickObserver {
    origin: Instant,
    splitter: Splitter,
    trace: TickTrace,
}

impl TickObserver {
    /// Starts a tick: the `Start` mark is now.
    pub fn start() -> Self {
        let mut splitter = Splitter::default();
        splitter.mark(Mark::Start, 0.0);
        Self {
            origin: Instant::now(),
            splitter,
            trace: TickTrace::default(),
        }
    }

    fn mark(&mut self, mark: Mark) {
        self.splitter
            .mark(mark, self.origin.elapsed().as_secs_f64());
    }

    /// Ends the tick (the `Return` mark is now) and yields its trace.
    pub fn finish(mut self) -> TickTrace {
        self.mark(Mark::Return);
        self.trace.split = self.splitter.split();
        self.trace
    }
}

impl ExecObserver for TickObserver {
    fn on_operator_start(&mut self, _kind: OperatorKind, _objects: usize) {
        self.mark(Mark::OpStart);
    }

    fn on_choice(&mut self, _choice: &ChoiceRecord) {
        self.mark(Mark::Choice);
    }

    fn on_iteration(&mut self, iteration: &IterationRecord) {
        self.mark(Mark::Iteration);
        self.trace.iterations += 1;
        self.trace.iteration_work += iteration.actual_cpu;
    }

    fn on_round(&mut self, round: &RoundRecord) {
        self.mark(Mark::Round);
        self.trace.rounds += 1;
        self.trace.candidates += round.candidates as u64;
        self.trace.selected += round.selected as u64;
        self.trace.admitted += round.admitted as u64;
    }

    fn on_budget_exhausted(&mut self, _record: &BudgetExhaustedRecord) {
        self.mark(Mark::BudgetExhausted);
        self.trace.budget_exhausted = true;
    }

    fn on_operator_end(&mut self, _end: &OperatorEndRecord) {
        self.mark(Mark::OpEnd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Mark::*;

    /// Feeds marks one second apart and returns the split.
    fn split(marks: &[Mark]) -> Split {
        let mut s = Splitter::default();
        for (i, &m) in marks.iter().enumerate() {
            s.mark(m, i as f64);
        }
        s.split()
    }

    fn assert_covers(marks: &[Mark], got: &Split) {
        let span = marks.len().saturating_sub(1) as f64;
        assert_eq!(got.total(), span, "{marks:?} -> {got:?}");
    }

    #[test]
    fn serial_rounds_split_into_demand_execute_and_tail() {
        let marks = [
            Start, OpStart, Choice, Iteration, Round, Choice, Iteration, Round, OpEnd, Return,
        ];
        let got = split(&marks);
        assert_covers(&marks, &got);
        assert_eq!(got.pool, 1.0);
        assert_eq!(got.demand_select, 2.0);
        assert_eq!(got.execute, 2.0);
        // iteration -> round end is record emission, claimed by no phase.
        assert_eq!(got.unattributed, 2.0);
        assert_eq!(got.answer, 1.0);
        assert_eq!(got.commit, 1.0);
    }

    #[test]
    fn batched_round_counts_every_choice_toward_execute() {
        let marks = [
            Start, OpStart, Choice, Choice, Choice, Iteration, Iteration, Iteration, Round, OpEnd,
            Return,
        ];
        let got = split(&marks);
        assert_covers(&marks, &got);
        assert_eq!(got.demand_select, 1.0);
        assert_eq!(got.execute, 3.0);
        assert_eq!(got.unattributed, 3.0);
    }

    #[test]
    fn budget_exhausted_round_has_choices_but_no_iterations() {
        let marks = [
            Start,
            OpStart,
            Choice,
            Iteration,
            Round,
            Choice,
            Choice,
            BudgetExhausted,
            OpEnd,
            Return,
        ];
        let got = split(&marks);
        assert_covers(&marks, &got);
        assert_eq!(got.demand_select, 2.0);
        // Two execute intervals in round 1 and 2 (choice -> choice ->
        // exhausted) plus round 1's choice -> iteration.
        assert_eq!(got.execute, 3.0);
        assert_eq!(got.answer, 1.0);
        assert_eq!(got.unattributed, 1.0);
    }

    #[test]
    fn zero_round_tick_is_pool_answer_commit() {
        let marks = [Start, OpStart, OpEnd, Return];
        let got = split(&marks);
        assert_covers(&marks, &got);
        assert_eq!(
            got,
            Split {
                pool: 1.0,
                answer: 1.0,
                commit: 1.0,
                ..Split::default()
            }
        );
    }

    #[test]
    fn failed_or_malformed_ticks_keep_their_time_as_unattributed() {
        for marks in [
            &[Start, Return][..],
            &[Start, OpStart, Return][..],
            &[Start, OpStart, Iteration, Round, OpEnd, Return][..],
            &[Start, OpStart, Choice, OpEnd, Return][..],
        ] {
            let got = split(marks);
            assert_covers(marks, &got);
            assert!(got.unattributed >= 1.0, "{marks:?} -> {got:?}");
        }
    }

    #[test]
    fn a_single_mark_spans_nothing() {
        assert_eq!(split(&[Start]), Split::default());
    }

    #[test]
    fn observer_marks_follow_callbacks() {
        let mut obs = TickObserver::start();
        obs.on_operator_start(OperatorKind::SharedPool, 2);
        obs.on_choice(&ChoiceRecord {
            object: 0,
            benefit: 1.0,
            est_cpu: 5,
            score: 0.2,
            candidates: 2,
        });
        obs.on_budget_exhausted(&BudgetExhaustedRecord {
            budget: 10,
            spent: 9,
            deferred: 1,
        });
        let t = obs.finish();
        assert!(t.budget_exhausted);
        assert_eq!((t.rounds, t.iterations), (0, 0));
        assert!(t.split.total() >= 0.0);
    }
}
