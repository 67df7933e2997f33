//! Span accounting for the traced run: per-thread accumulators and the
//! timing decorators that wrap the simulator's public traits.
//!
//! Every decorator forwards to the wrapped value and adds the call's wall
//! time to the calling thread's accumulator. Node spans run on whichever
//! thread steps the node — the coordinator, or a pool worker during a
//! horizon-parallel window — so each thread keeps its own totals, and
//! [`snapshot`] reports them split into the coordinator's share and the
//! workers' share. A decorator must not change what the simulation does:
//! the benchmark compares the traced run's report digest with the
//! untraced one and fails on any difference.

use shift_core::{Deployment, ShiftPolicy};
use sp_engine::{
    Engine, EngineReport, FleetSignal, RoutingPolicy, RunAdvance, SalvagedWork, ScaleAction,
    ScalePolicy, SimNode,
};
use sp_metrics::{NodeLoad, SimTime};
use sp_parallel::{BatchStats, ParallelConfig, ParallelismPolicy};
use sp_workload::Request;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Instant;

/// The timed call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `RoutingPolicy::pick`.
    Pick,
    /// `SimNode::push_request`.
    Push,
    /// `SimNode::step_once`.
    StepOnce,
    /// `SimNode::step_run`.
    StepRun,
    /// `ParallelismPolicy::choose` — runs inside a node span.
    Choose,
    /// `ScalePolicy::decide`.
    Decide,
    /// The autoscaler's spawner building a replica mid-run.
    SpawnBuild,
}

const SPANS: usize = 7;

impl Span {
    /// Spans that no other timed span encloses: the cluster driver's
    /// self time is its wall time minus these.
    const TOP_LEVEL: [Span; 6] =
        [Span::Pick, Span::Push, Span::StepOnce, Span::StepRun, Span::Decide, Span::SpawnBuild];
}

/// Counters and span totals of one thread. Only the owning thread
/// writes, so plain relaxed load/store pairs suffice; [`snapshot`] reads
/// after the run has joined every window, and that join orders the
/// workers' writes before the read.
#[derive(Default)]
struct ThreadAcc {
    nanos: [AtomicU64; SPANS],
    calls: [AtomicU64; SPANS],
    run_hits: AtomicU64,
    run_events: AtomicU64,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

static REGISTRY: Mutex<Vec<(ThreadId, Arc<ThreadAcc>)>> = Mutex::new(Vec::new());

thread_local! {
    static ACC: Arc<ThreadAcc> = {
        let acc = Arc::new(ThreadAcc::default());
        REGISTRY
            .lock()
            .expect("span registry poisoned by a panicking thread")
            .push((thread::current().id(), Arc::clone(&acc)));
        acc
    };
}

/// Runs `f`, adding its wall time to `span` on the calling thread.
pub fn timed<R>(span: Span, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let nanos = start.elapsed().as_nanos() as u64;
    ACC.with(|acc| {
        bump(&acc.nanos[span as usize], nanos);
        bump(&acc.calls[span as usize], 1);
    });
    out
}

/// Zeroes every thread's accumulator. Call between runs, never while a
/// run is in flight.
pub fn reset() {
    for (_, acc) in REGISTRY.lock().expect("span registry poisoned").iter() {
        for c in acc.nanos.iter().chain(&acc.calls) {
            c.store(0, Ordering::Relaxed);
        }
        acc.run_hits.store(0, Ordering::Relaxed);
        acc.run_events.store(0, Ordering::Relaxed);
    }
    RETIRED_SWITCHES.store(0, Ordering::Relaxed);
}

/// Span totals merged across threads.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Seconds per span, all threads.
    pub secs: [f64; SPANS],
    /// Calls per span, all threads.
    pub calls: [u64; SPANS],
    /// Seconds of top-level spans on the coordinator thread.
    pub coordinator_top_s: f64,
    /// Seconds of top-level spans on every other thread (pool workers).
    pub worker_top_s: f64,
    /// `step_run` calls that advanced at least one event.
    pub run_hits: u64,
    /// Events advanced by successful `step_run` calls.
    pub run_events: u64,
}

impl Totals {
    pub fn secs(&self, span: Span) -> f64 {
        self.secs[span as usize]
    }

    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize]
    }
}

/// Merges every thread's accumulator, attributing top-level span time to
/// the `coordinator` thread or to the workers.
pub fn snapshot(coordinator: ThreadId) -> Totals {
    let mut t = Totals::default();
    for (id, acc) in REGISTRY.lock().expect("span registry poisoned").iter() {
        for i in 0..SPANS {
            t.secs[i] += acc.nanos[i].load(Ordering::Relaxed) as f64 * 1e-9;
            t.calls[i] += acc.calls[i].load(Ordering::Relaxed);
        }
        let top: f64 = Span::TOP_LEVEL
            .iter()
            .map(|&s| acc.nanos[s as usize].load(Ordering::Relaxed) as f64 * 1e-9)
            .sum();
        if *id == coordinator {
            t.coordinator_top_s += top;
        } else {
            t.worker_top_s += top;
        }
        t.run_hits += acc.run_hits.load(Ordering::Relaxed);
        t.run_events += acc.run_events.load(Ordering::Relaxed);
    }
    t
}

/// Base↔shift transitions a node reports when it leaves the cluster
/// (crash, retire or the final report).
static RETIRED_SWITCHES: AtomicU64 = AtomicU64::new(0);

/// Switch count gathered by [`Timed::take_report`] since the last call.
pub fn take_node_switches() -> u64 {
    RETIRED_SWITCHES.swap(0, Ordering::Relaxed)
}

/// Nodes whose shift policy counts its own configuration switches.
pub trait SwitchCount {
    /// Switches so far; 0 when the node does not expose them.
    fn switches(&self) -> u64;
}

impl SwitchCount for Deployment {
    fn switches(&self) -> u64 {
        self.shift_stats().map_or(0, |(_, _, switches)| switches)
    }
}

/// A bare engine hides its policy; the benchmark reads switches through
/// the [`TimedShift`] handles instead.
impl SwitchCount for Engine {
    fn switches(&self) -> u64 {
        0
    }
}

/// A cluster node whose stepping calls are timed.
#[derive(Debug)]
pub struct Timed<N>(pub N);

impl<N: SimNode + SwitchCount> SimNode for Timed<N> {
    fn push_request(&mut self, req: Request) {
        timed(Span::Push, || self.0.push_request(req));
    }

    fn step_once(&mut self) {
        timed(Span::StepOnce, || self.0.step_once());
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.0.next_event_time()
    }

    fn outstanding_tokens(&self) -> u64 {
        self.0.outstanding_tokens()
    }

    fn load(&self) -> NodeLoad {
        self.0.load()
    }

    fn take_report(&mut self) -> EngineReport {
        RETIRED_SWITCHES.fetch_add(self.0.switches(), Ordering::Relaxed);
        self.0.take_report()
    }

    fn take_unfinished(&mut self) -> SalvagedWork {
        self.0.take_unfinished()
    }

    fn set_slowdown(&mut self, factor: f64) {
        self.0.set_slowdown(factor);
    }

    fn step_run(&mut self, cap: Option<f64>) -> Option<RunAdvance> {
        let advanced = timed(Span::StepRun, || self.0.step_run(cap));
        if let Some(run) = advanced {
            ACC.with(|acc| {
                bump(&acc.run_hits, 1);
                bump(&acc.run_events, run.events);
            });
        }
        advanced
    }
}

/// A routing policy whose `pick` calls are timed.
#[derive(Debug)]
pub struct TimedRouting(pub Box<dyn RoutingPolicy>);

impl RoutingPolicy for TimedRouting {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn pick(&mut self, req: &Request, loads: &[NodeLoad]) -> usize {
        timed(Span::Pick, || self.0.pick(req, loads))
    }
}

/// A scale policy whose `decide` calls are timed.
#[derive(Debug)]
pub struct TimedScale(pub Box<dyn ScalePolicy>);

impl ScalePolicy for TimedScale {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn decide(&mut self, signal: &FleetSignal<'_>, actions: &mut Vec<ScaleAction>) {
        timed(Span::Decide, || self.0.decide(signal, actions));
    }
}

/// A shift policy whose `choose` calls are timed; the shared handle
/// keeps its switch counter readable after the engine owns the policy.
#[derive(Debug)]
pub struct TimedShift(pub Arc<ShiftPolicy>);

impl ParallelismPolicy for TimedShift {
    fn choose(&self, stats: &BatchStats) -> ParallelConfig {
        timed(Span::Choose, || self.0.choose(stats))
    }

    fn configurations(&self) -> Vec<ParallelConfig> {
        self.0.configurations()
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::digest;
    use sp_cluster::NodeSpec;
    use sp_engine::{ClusterSim, EngineConfig, RoutingKind};
    use sp_parallel::ExecutionModel;
    use sp_workload::synthetic;

    fn engine(policy: Box<dyn ParallelismPolicy>) -> Engine {
        let exec = ExecutionModel::new(NodeSpec::p5en_48xlarge(), sp_model::presets::qwen_32b());
        Engine::new(exec, policy, EngineConfig::default())
    }

    fn shift() -> ShiftPolicy {
        ShiftPolicy::with_default_threshold(ParallelConfig::sequence(8))
    }

    /// The decorators only observe: a timed cluster reproduces the plain
    /// cluster's report byte for byte, and the spans saw its calls.
    #[test]
    fn timed_cluster_reports_like_the_plain_one() {
        let trace = synthetic::poisson(64, 20.0, 1024, 64, 7);
        let plain: Vec<Engine> = (0..3).map(|_| engine(Box::new(shift()))).collect();
        let want = digest(&ClusterSim::new(plain, RoutingKind::JsqByTtft.policy()).run(&trace));

        let policies: Vec<Arc<ShiftPolicy>> = (0..3).map(|_| Arc::new(shift())).collect();
        let timed: Vec<Timed<Engine>> =
            policies.iter().map(|p| Timed(engine(Box::new(TimedShift(Arc::clone(p)))))).collect();
        let routing = Box::new(TimedRouting(RoutingKind::JsqByTtft.policy()));
        let me = thread::current().id();
        reset();
        let report = ClusterSim::new(timed, routing).with_threads(1).run(&trace);
        let t = snapshot(me);
        assert_eq!(digest(&report), want);
        assert_eq!(t.calls(Span::Pick), 64);
        assert_eq!(t.calls(Span::Push), 64);
        assert_eq!(t.calls(Span::Choose), report.iterations());
        assert_eq!(t.worker_top_s, 0.0, "one thread: every span is the coordinator's");
        assert!(policies.iter().map(|p| p.switches()).sum::<u64>() > 0);
    }
}
