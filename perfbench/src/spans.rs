//! The benchmark's own trace sink: timestamps the phase markers and
//! event-loop dispatches the simulator already emits, and classifies
//! each dispatch span by the layer events recorded inside it.
//!
//! The simulator's events carry only simulated time, so the host time of
//! a span is taken here, when the event reaches the sink. A dispatch span
//! runs from one `Dispatch` event to the next (or to the `score` phase
//! marker); everything the handler and the post-dispatch hook do falls
//! inside it.

use std::time::Instant;
use toto_trace::{mask, BufferSink, EventBody, EventKind, TraceEvent, TraceSink};

/// What a dispatch span did, judged by the events inside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanClass {
    /// Replica metric reports through the RgManagers (`report_metrics`).
    ReportTick,
    /// Database creates and drops through admission control.
    Churn,
    /// PLB pass that moved replicas or left violations unresolved.
    PlbTick,
    /// Everything else: quiet PLB passes, model refreshes, snapshots,
    /// population planning, and chaos faults.
    OtherTick,
}

impl SpanClass {
    pub fn name(self) -> &'static str {
        match self {
            SpanClass::ReportTick => "report_tick",
            SpanClass::Churn => "churn",
            SpanClass::PlbTick => "plb_tick",
            SpanClass::OtherTick => "other_tick",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Deterministic work counts, taken from the events themselves. Two runs
/// of the same job must produce equal counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub dispatches: u64,
    pub reports: u64,
    pub model_refreshes: u64,
    pub naming_writes: u64,
    pub naming_deletes: u64,
    pub placements: u64,
    pub placement_rejections: u64,
    pub anneal_iterations: u64,
    pub anneal_accepted: u64,
    pub failovers: u64,
    pub violations_unresolved: u64,
    pub admitted: u64,
    pub redirected: u64,
    pub oracle_violations: u64,
    pub class_spans: [u64; 4],
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.dispatches += o.dispatches;
        self.reports += o.reports;
        self.model_refreshes += o.model_refreshes;
        self.naming_writes += o.naming_writes;
        self.naming_deletes += o.naming_deletes;
        self.placements += o.placements;
        self.placement_rejections += o.placement_rejections;
        self.anneal_iterations += o.anneal_iterations;
        self.anneal_accepted += o.anneal_accepted;
        self.failovers += o.failovers;
        self.violations_unresolved += o.violations_unresolved;
        self.admitted += o.admitted;
        self.redirected += o.redirected;
        self.oracle_violations += o.oracle_violations;
        for (a, b) in self.class_spans.iter_mut().zip(o.class_spans) {
            *a += b;
        }
    }
}

/// One recorded span; times are seconds since the job started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the job's span list.
    pub parent: Option<usize>,
}

/// Host-time profile of one job.
#[derive(Clone, Debug, Default)]
pub struct JobProfile {
    /// Job start to the `run` phase marker: bootstrap, model write,
    /// initial RgManager refresh.
    pub setup_s: f64,
    /// `run` marker to `score` marker: the event loop.
    pub run_s: f64,
    /// `score` marker to the job's return: revenue scoring.
    pub score_s: f64,
    /// `bootstrap` marker to the first naming write after it (the model
    /// write that follows `bootstrap_population`). Detailed sinks only.
    pub bootstrap_s: f64,
    /// Busy seconds per [`SpanClass`].
    pub class_busy_s: [f64; 4],
    /// Durations of every report-tick span, seconds.
    pub report_tick_s: Vec<f64>,
    pub counts: Counts,
    /// Detailed sinks only: job, phase and dispatch spans.
    pub spans: Vec<Span>,
}

impl JobProfile {
    /// Run-phase wall not covered by any dispatch span.
    pub fn unattributed_s(&self) -> f64 {
        (self.run_s - self.class_busy_s.iter().sum::<f64>()).max(0.0)
    }
}

const JOB: usize = 0;

/// Layer-event flags seen inside the open dispatch span.
#[derive(Clone, Copy, Default)]
struct Seen {
    report: bool,
    churn: bool,
    plb: bool,
    chaos: bool,
}

impl Seen {
    fn class(self) -> SpanClass {
        if self.chaos {
            SpanClass::OtherTick
        } else if self.report {
            SpanClass::ReportTick
        } else if self.churn {
            SpanClass::Churn
        } else if self.plb {
            SpanClass::PlbTick
        } else {
            SpanClass::OtherTick
        }
    }
}

/// The benchmark's sink. In marker mode it admits only `Phase` events
/// (the cheapest installed sink); in detailed mode it admits every kind.
/// When it forwards, every event also goes to a [`BufferSink`], so the
/// job's encoded trace is exactly what the job would record on its own.
pub struct BenchSink {
    origin: Instant,
    detailed: bool,
    forward: Option<BufferSink>,
    bootstrap_at: Option<f64>,
    bootstrap_end: Option<f64>,
    run_at: Option<f64>,
    score_at: Option<f64>,
    open: Option<(f64, Seen)>,
    profile: JobProfile,
}

impl BenchSink {
    pub fn new(detailed: bool, forward: bool) -> BenchSink {
        BenchSink {
            origin: Instant::now(),
            detailed,
            forward: forward.then(BufferSink::new),
            bootstrap_at: None,
            bootstrap_end: None,
            run_at: None,
            score_at: None,
            open: None,
            profile: JobProfile::default(),
        }
    }

    /// Record `ev` as seen `t` seconds after the job started.
    pub fn record_at(&mut self, ev: &TraceEvent, t: f64) {
        if let Some(buffer) = self.forward.as_mut() {
            buffer.record(ev);
        }
        if let EventBody::Phase { label } = &ev.body {
            match label.as_str() {
                "bootstrap" => self.bootstrap_at = Some(t),
                "run" => self.run_at = Some(t),
                "score" => {
                    self.close_dispatch(t);
                    self.score_at = Some(t);
                }
                _ => {}
            }
        }
        if !self.detailed {
            return;
        }
        let c = &mut self.profile.counts;
        c.events += 1;
        let mut seen = Seen::default();
        match &ev.body {
            EventBody::Dispatch { .. } => {
                self.close_dispatch(t);
                self.profile.counts.dispatches += 1;
                self.open = Some((t, Seen::default()));
                return;
            }
            EventBody::MetricReport { .. } => {
                c.reports += 1;
                seen.report = true;
            }
            EventBody::ChaosReportDropped { .. } => seen.report = true,
            EventBody::DbCreate { .. } | EventBody::DbDrop { .. } => seen.churn = true,
            EventBody::AdmissionAdmitted { .. } => {
                c.admitted += 1;
                seen.churn = true;
            }
            EventBody::AdmissionRedirected { .. } => {
                c.redirected += 1;
                seen.churn = true;
            }
            EventBody::Failover { .. } => {
                c.failovers += 1;
                seen.plb = true;
            }
            EventBody::ViolationUnresolved { .. } => {
                c.violations_unresolved += 1;
                seen.plb = true;
            }
            EventBody::Placement { .. } => c.placements += 1,
            EventBody::PlacementRejected { .. } => c.placement_rejections += 1,
            EventBody::AnnealSummary {
                iterations,
                accepted,
                ..
            } => {
                c.anneal_iterations += iterations;
                c.anneal_accepted += accepted;
            }
            EventBody::ModelRefresh { .. } => c.model_refreshes += 1,
            EventBody::NamingWrite { .. } => {
                c.naming_writes += 1;
                if self.bootstrap_at.is_some() && self.bootstrap_end.is_none() {
                    self.bootstrap_end = Some(t);
                }
            }
            EventBody::NamingDelete { .. } => c.naming_deletes += 1,
            EventBody::OracleViolation { .. } => c.oracle_violations += 1,
            EventBody::ChaosNodeCrash { .. }
            | EventBody::ChaosNodeRestart { .. }
            | EventBody::ChaosNodeDecommission { .. }
            | EventBody::ChaosCapacityDegrade { .. }
            | EventBody::ChaosStorm { .. }
            | EventBody::ChaosNodeDrain { .. } => seen.chaos = true,
            _ => {}
        }
        if let Some((_, open)) = self.open.as_mut() {
            open.report |= seen.report;
            open.churn |= seen.churn;
            open.plb |= seen.plb;
            open.chaos |= seen.chaos;
        }
    }

    fn close_dispatch(&mut self, t: f64) {
        let Some((start, seen)) = self.open.take() else {
            return;
        };
        let class = seen.class();
        let busy = t - start;
        let p = &mut self.profile;
        p.class_busy_s[class.index()] += busy;
        p.counts.class_spans[class.index()] += 1;
        if class == SpanClass::ReportTick {
            p.report_tick_s.push(busy);
        }
        p.spans.push(Span {
            name: class.name(),
            start,
            end: t,
            parent: None, // set to the run span in `finish_at`
        });
    }

    /// Close the job at `t` seconds. Fails when a phase marker is missing,
    /// which means the job did not run through its phases.
    pub fn finish_at(&mut self, t: f64) -> Result<(JobProfile, Option<Vec<u8>>), String> {
        let (Some(run), Some(score)) = (self.run_at, self.score_at) else {
            return Err("the run never reached its run and score phases".to_string());
        };
        let p = &mut self.profile;
        p.setup_s = run;
        p.run_s = score - run;
        p.score_s = t - score;
        if let (Some(a), Some(b)) = (self.bootstrap_at, self.bootstrap_end) {
            p.bootstrap_s = b - a;
        }
        if self.detailed {
            let dispatches = std::mem::take(&mut p.spans);
            p.spans.push(Span {
                name: "job",
                start: 0.0,
                end: t,
                parent: None,
            });
            p.spans.push(Span {
                name: "setup",
                start: 0.0,
                end: run,
                parent: Some(JOB),
            });
            if let (Some(a), Some(b)) = (self.bootstrap_at, self.bootstrap_end) {
                p.spans.push(Span {
                    name: "bootstrap",
                    start: a,
                    end: b,
                    parent: Some(1),
                });
            }
            let run_index = p.spans.len();
            p.spans.push(Span {
                name: "run",
                start: run,
                end: score,
                parent: Some(JOB),
            });
            p.spans.push(Span {
                name: "score",
                start: score,
                end: t,
                parent: Some(JOB),
            });
            p.spans.extend(dispatches.into_iter().map(|s| Span {
                parent: Some(run_index),
                ..s
            }));
        }
        let trace = self.forward.take().map(BufferSink::into_bytes);
        Ok((std::mem::take(&mut self.profile), trace))
    }

    /// Close the job now.
    pub fn finish(&mut self) -> Result<(JobProfile, Option<Vec<u8>>), String> {
        let t = self.origin.elapsed().as_secs_f64();
        self.finish_at(t)
    }
}

impl TraceSink for BenchSink {
    fn record(&mut self, ev: &TraceEvent) {
        // Read the clock only for the events whose time is used.
        let timed = match ev.body {
            EventBody::Phase { .. } => true,
            EventBody::Dispatch { .. } => self.detailed,
            EventBody::NamingWrite { .. } => self.detailed && self.bootstrap_end.is_none(),
            _ => false,
        };
        let t = if timed {
            self.origin.elapsed().as_secs_f64()
        } else {
            0.0
        };
        self.record_at(ev, t);
    }

    fn kind_mask(&self) -> u64 {
        if self.detailed || self.forward.is_some() {
            mask::ALL
        } else {
            EventKind::Phase.bit()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, body: EventBody) -> TraceEvent {
        TraceEvent {
            time_secs: seq,
            seq,
            body,
        }
    }

    fn phase(label: &str) -> EventBody {
        EventBody::Phase {
            label: label.to_string(),
        }
    }

    fn dispatch() -> EventBody {
        EventBody::Dispatch { queue_seq: 0 }
    }

    fn report() -> EventBody {
        EventBody::MetricReport {
            service: 1,
            replica: 1,
            node: 0,
            resource: "Disk".to_string(),
            value: 1.0,
        }
    }

    /// Feed `(seconds, body)` pairs and close the job at `end`.
    fn replay(detailed: bool, stream: Vec<(f64, EventBody)>, end: f64) -> JobProfile {
        let mut sink = BenchSink::new(detailed, false);
        for (i, (t, body)) in stream.into_iter().enumerate() {
            sink.record_at(&ev(i as u64, body), t);
        }
        sink.finish_at(end).expect("phases present").0
    }

    fn synthetic() -> Vec<(f64, EventBody)> {
        vec![
            (0.5, phase("bootstrap")),
            (
                2.0,
                EventBody::NamingWrite {
                    key: "model".to_string(),
                    version: 1,
                },
            ),
            (3.0, phase("run")),
            // Report tick: 1.0 s, two reports.
            (3.0, dispatch()),
            (3.2, report()),
            (3.4, report()),
            // Churn: 0.5 s, one create admitted, one redirected.
            (4.0, dispatch()),
            (
                4.1,
                EventBody::AdmissionAdmitted {
                    service: 9,
                    cores: 2.0,
                },
            ),
            (
                4.2,
                EventBody::AdmissionRedirected {
                    cores: 4.0,
                    available: 1.0,
                },
            ),
            // PLB pass that failed a replica over: 0.25 s.
            (4.5, dispatch()),
            (
                4.6,
                EventBody::Failover {
                    service: 9,
                    replica: 3,
                    from: 0,
                    to: 1,
                    primary: true,
                    reason: "capacity".to_string(),
                    promoted: 0,
                },
            ),
            // Quiet tick: 0.75 s.
            (4.75, dispatch()),
            // Chaos crash with failovers inside counts as other: 0.5 s.
            (5.5, dispatch()),
            (
                5.6,
                EventBody::ChaosNodeCrash {
                    node: 2,
                    downtime_secs: 60,
                },
            ),
            (
                5.7,
                EventBody::Failover {
                    service: 4,
                    replica: 5,
                    from: 2,
                    to: 3,
                    primary: false,
                    reason: "crash".to_string(),
                    promoted: 0,
                },
            ),
            (6.0, phase("score")),
        ]
    }

    #[test]
    fn dispatch_spans_are_classified_by_their_layer_events() {
        let p = replay(true, synthetic(), 6.5);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(p.setup_s, 3.0));
        assert!(close(p.run_s, 3.0));
        assert!(close(p.score_s, 0.5));
        assert!(close(p.bootstrap_s, 1.5));
        let busy = p.class_busy_s;
        assert!(close(busy[SpanClass::ReportTick.index()], 1.0));
        assert!(close(busy[SpanClass::Churn.index()], 0.5));
        assert!(close(busy[SpanClass::PlbTick.index()], 0.25));
        assert!(close(busy[SpanClass::OtherTick.index()], 1.25));
        assert!(close(p.unattributed_s(), 0.0));
        assert_eq!(p.report_tick_s.len(), 1);

        let c = p.counts;
        assert_eq!(c.dispatches, 5);
        assert_eq!(c.class_spans, [1, 1, 1, 2]);
        assert_eq!(c.reports, 2);
        assert_eq!((c.admitted, c.redirected), (1, 1));
        assert_eq!(c.failovers, 2);
        assert_eq!(c.naming_writes, 1);
        assert_eq!(c.events, 16);
    }

    #[test]
    fn spans_nest_under_job_and_run() {
        let p = replay(true, synthetic(), 6.5);
        let names: Vec<&str> = p.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            &names[..5],
            &["job", "setup", "bootstrap", "run", "score"][..]
        );
        assert_eq!(p.spans[2].parent, Some(1));
        let run = 3;
        assert!(p.spans[5..].iter().all(|s| s.parent == Some(run)));
        assert_eq!(p.spans.len(), 5 + 5);
    }

    #[test]
    fn marker_mode_times_phases_and_counts_nothing() {
        let markers: Vec<(f64, EventBody)> = synthetic()
            .into_iter()
            .filter(|(_, b)| matches!(b, EventBody::Phase { .. }))
            .collect();
        let p = replay(false, markers, 6.5);
        assert!((p.setup_s - 3.0).abs() < 1e-9);
        assert!((p.run_s - 3.0).abs() < 1e-9);
        assert_eq!(p.counts, Counts::default());
        assert!(p.spans.is_empty());
        assert_eq!(
            BenchSink::new(false, false).kind_mask(),
            EventKind::Phase.bit()
        );
    }

    #[test]
    fn a_job_without_phase_markers_is_an_error() {
        let mut sink = BenchSink::new(true, false);
        assert!(sink.finish_at(1.0).is_err());
    }

    #[test]
    fn forwarding_keeps_the_encoded_trace() {
        let mut sink = BenchSink::new(false, true);
        let mut direct = BufferSink::new();
        for (i, (t, body)) in synthetic().into_iter().enumerate() {
            let e = ev(i as u64, body);
            sink.record_at(&e, t);
            direct.record(&e);
        }
        let (_, trace) = sink.finish_at(7.0).expect("phases present");
        assert_eq!(trace.expect("forwarded"), direct.into_bytes());
    }
}
