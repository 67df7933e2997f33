//! The three workloads: their seeded inputs and the Shift deployments
//! that serve them, built once plain and once wrapped in the timing
//! decorators of [`crate::spans`].
//!
//! Every arrival schedule is open-loop in simulated time. Offered load is
//! sized so each fleet drains its backlog between bursts.

use crate::spans::{self, Span, Timed, TimedRouting, TimedScale, TimedShift};
use shift_core::{Deployment, DeploymentBuilder, DeploymentKind, Fleet, ShiftPolicy};
use shift_core::{ShiftWeightPlan, WeightStrategy};
use sp_accel::ProductionStack;
use sp_cluster::NodeSpec;
use sp_engine::{
    AutoscaleConfig, Autoscaler, ClusterSim, Engine, EngineConfig, EngineReport, FaultPlan,
    LoadBandPolicy, RetryPolicy, RoutingKind, SimNode,
};
use sp_metrics::{ClassSlo, Dur, SimTime};
use sp_model::presets;
use sp_parallel::memory::DEFAULT_MEM_FRACTION;
use sp_parallel::{ExecutionModel, MemoryPlan, ParallelConfig, ParallelismPolicy};
use sp_workload::bursty::BurstyConfig;
use sp_workload::mixed::ProductionMixConfig;
use sp_workload::sizes::LengthDist;
use sp_workload::Trace;
use std::sync::Arc;
use std::time::Instant;

/// `bursty_fleet`: Shift nodes behind deadline-aware routing.
const FLEET_NODES: usize = 64;
/// `decode_drain`: bare Shift engines in one cluster.
const DRAIN_ENGINES: usize = 256;
/// `production_chaos`: autoscaler bounds. The scale-out watermark is low,
/// so each high phase drives the fleet to about its cap whatever the
/// seed, which keeps peak memory and the TTFT tail steady across seeds.
const CHAOS_MIN: usize = 16;
const CHAOS_PEAK: usize = 32;
/// `production_chaos`: load phases as `(seconds, requests per second)`.
const CHAOS_PHASES: [(f64, f64); 4] =
    [(150.0, 160.0), (150.0, 40.0), (150.0, 160.0), (150.0, 40.0)];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BurstyFleet,
    DecodeDrain,
    ProductionChaos,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::BurstyFleet, Workload::DecodeDrain, Workload::ProductionChaos];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BurstyFleet => "bursty_fleet",
            Workload::DecodeDrain => "decode_drain",
            Workload::ProductionChaos => "production_chaos",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Per-class targets every workload is scored against.
pub fn class_slo() -> ClassSlo {
    ClassSlo::default()
}

/// What one run of a workload produced.
pub struct RunOutput {
    pub report: EngineReport,
    /// Host seconds of the `run(trace)` call.
    pub run_s: f64,
    /// Horizon-parallel width the cluster ran at.
    pub threads: usize,
    /// Base↔shift switches; counted on traced runs only.
    pub switches: u64,
}

/// A workload with its inputs generated and its nodes built, ready to run.
pub struct Prepared {
    pub trace: Trace,
    /// Host seconds spent generating the inputs.
    pub generate_s: f64,
    /// Host seconds spent building the nodes (memory planning and plan
    /// compilation included).
    pub build_s: f64,
    runner: Box<dyn FnOnce(&Trace) -> RunOutput>,
}

impl Prepared {
    pub fn run(self) -> (Trace, RunOutput) {
        let out = (self.runner)(&self.trace);
        (self.trace, out)
    }
}

/// Generates `workload`'s inputs from `seed` and builds its nodes,
/// wrapped in the timing decorators when `traced`.
pub fn prepare(workload: Workload, seed: u64, traced: bool) -> Prepared {
    let start = Instant::now();
    let (trace, faults) = match workload {
        Workload::BurstyFleet => (bursty_trace(seed), None),
        Workload::DecodeDrain => (drain_trace(seed), None),
        Workload::ProductionChaos => {
            let (trace, plan) = chaos_inputs(seed);
            (trace, Some(plan))
        }
    };
    let generate_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let runner = match (workload, traced) {
        (Workload::BurstyFleet, false) => bursty_plain(),
        (Workload::BurstyFleet, true) => bursty_traced(),
        (Workload::DecodeDrain, false) => drain_plain(),
        (Workload::DecodeDrain, true) => drain_traced(),
        (Workload::ProductionChaos, traced) => {
            chaos(faults.expect("chaos inputs carry a fault plan"), traced)
        }
    };
    let build_s = start.elapsed().as_secs_f64();
    Prepared { trace, generate_s, build_s, runner }
}

/// Times `sim.run(trace)`.
fn run_cluster<N: SimNode>(sim: &mut ClusterSim<N>, trace: &Trace) -> RunOutput {
    let start = Instant::now();
    let report = sim.run(trace);
    let run_s = start.elapsed().as_secs_f64();
    RunOutput { report, run_s, threads: sim.threads(), switches: 0 }
}

// ---------------------------------------------------------------- bursty_fleet

/// The Fig 7 bursty mix scaled to the fleet: a steady interactive stream
/// plus evenly spaced bursts of long agentic prompts.
fn bursty_trace(seed: u64) -> Trace {
    let n = FLEET_NODES as f64;
    BurstyConfig {
        duration: Dur::from_secs(600.0),
        base_rate: 0.6 * n,
        bursts: 8,
        burst_size: 50 * FLEET_NODES,
        burst_window: Dur::from_secs(10.0),
        seed,
        ..BurstyConfig::default()
    }
    .generate()
}

/// Llama-70B on 8×H200, Shift with the automatic base (SP=8, shifting to
/// TP=8), SLO-aware scheduling.
fn bursty_node() -> DeploymentBuilder {
    Deployment::builder(NodeSpec::p5en_48xlarge(), presets::llama_70b())
        .kind(DeploymentKind::Shift)
        .class_slo(class_slo())
}

fn bursty_routing() -> RoutingKind {
    RoutingKind::EarliestDeadlineFeasible(class_slo())
}

fn bursty_plain() -> Box<dyn FnOnce(&Trace) -> RunOutput> {
    let mut fleet = Fleet::new(FLEET_NODES, bursty_node)
        .expect("Llama-70B fits an 8xH200 Shift node")
        .routing(bursty_routing());
    Box::new(move |trace| {
        let start = Instant::now();
        let report = fleet.run(trace);
        let run_s = start.elapsed().as_secs_f64();
        RunOutput { report, run_s, threads: sp_core::default_threads(), switches: 0 }
    })
}

/// The same fleet, assembled the way `Fleet::run` assembles it, with
/// timed nodes and routing.
fn bursty_traced() -> Box<dyn FnOnce(&Trace) -> RunOutput> {
    let nodes: Vec<Timed<Deployment>> = (0..FLEET_NODES)
        .map(|_| Timed(bursty_node().build().expect("Llama-70B fits an 8xH200 Shift node")))
        .collect();
    Box::new(move |trace| {
        let start = Instant::now();
        let mut sim = ClusterSim::new(nodes, Box::new(TimedRouting(bursty_routing().policy())))
            .throughput_bin(Dur::from_secs(1.0));
        let report = sim.run(trace);
        let run_s = start.elapsed().as_secs_f64();
        RunOutput { report, run_s, threads: sim.threads(), switches: spans::take_node_switches() }
    })
}

// ---------------------------------------------------------------- decode_drain

/// One synchronized burst of short prompts with long, low-variance
/// generations; the steady stream is so thin that almost no arrival cuts
/// the drain.
fn drain_trace(seed: u64) -> Trace {
    BurstyConfig {
        duration: Dur::from_secs(4.0),
        base_rate: 0.05,
        bursts: 1,
        burst_size: 64 * DRAIN_ENGINES,
        burst_window: Dur::from_secs(1.0),
        base_input: LengthDist::Uniform { lo: 100, hi: 200 },
        base_output: LengthDist::Uniform { lo: 300, hi: 500 },
        burst_input: LengthDist::Uniform { lo: 150, hi: 250 },
        burst_output: LengthDist::Uniform { lo: 4000, hi: 6000 },
        seed,
    }
    .generate()
}

/// A Shift engine (SP=8 base, TP=8 shift) on 8×H200 for Llama-70B, its KV
/// capacity planned with the shift model's resident weights.
fn drain_engine(policy: Box<dyn ParallelismPolicy>) -> Engine {
    let node = NodeSpec::p5en_48xlarge();
    let model = presets::llama_70b();
    let base = ParallelConfig::sequence(8);
    let extra = ShiftWeightPlan::new(&model, base, WeightStrategy::SeparateModels)
        .shift_extra_bytes_per_gpu();
    let plan = MemoryPlan::plan_with_extra(&node, &model, &base, extra, DEFAULT_MEM_FRACTION)
        .expect("Llama-70B KV heads split across 8 GPUs");
    let config =
        EngineConfig { kv_capacity_tokens: plan.kv_capacity_tokens, ..EngineConfig::default() };
    Engine::new(ExecutionModel::new(node, model), policy, config)
}

fn drain_policy() -> ShiftPolicy {
    ShiftPolicy::with_default_threshold(ParallelConfig::sequence(8))
}

fn drain_plain() -> Box<dyn FnOnce(&Trace) -> RunOutput> {
    let engines = (0..DRAIN_ENGINES).map(|_| drain_engine(Box::new(drain_policy()))).collect();
    let mut sim = ClusterSim::new(engines, RoutingKind::JoinShortestOutstanding.policy());
    Box::new(move |trace| run_cluster(&mut sim, trace))
}

fn drain_traced() -> Box<dyn FnOnce(&Trace) -> RunOutput> {
    let policies: Vec<Arc<ShiftPolicy>> =
        (0..DRAIN_ENGINES).map(|_| Arc::new(drain_policy())).collect();
    let engines =
        policies.iter().map(|p| Timed(drain_engine(Box::new(TimedShift(Arc::clone(p)))))).collect();
    let mut sim = ClusterSim::new(
        engines,
        Box::new(TimedRouting(RoutingKind::JoinShortestOutstanding.policy())),
    );
    Box::new(move |trace| {
        let mut out = run_cluster(&mut sim, trace);
        out.switches = policies.iter().map(|p| p.switches()).sum();
        out
    })
}

// ------------------------------------------------------------ production_chaos

/// The ShareGPT/HumanEval/SWE-bench production mix in alternating high
/// and low phases, plus a Poisson crash schedule over the initial replica
/// slots (a crash on a slot the autoscaler has retired is a no-op).
fn chaos_inputs(seed: u64) -> (Trace, FaultPlan) {
    let mut requests = Vec::new();
    let mut offset = 0.0;
    for (phase, &(secs, rate)) in CHAOS_PHASES.iter().enumerate() {
        let part = ProductionMixConfig {
            duration: Dur::from_secs(secs),
            rate,
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(phase as u64),
            ..ProductionMixConfig::default()
        }
        .generate();
        requests.extend(part.requests().iter().map(|r| sp_workload::Request {
            arrival: SimTime::from_secs(r.arrival.as_secs() + offset),
            ..*r
        }));
        offset += secs;
    }
    let plan = FaultPlan::crashes_poisson(
        seed ^ 0xC4A5,
        Dur::from_secs(offset / 6.0),
        Dur::from_secs(offset),
        CHAOS_MIN,
    );
    (Trace::new(requests), plan)
}

fn chaos_node() -> Deployment {
    ProductionStack::arctic_like()
        .deploy(NodeSpec::p5en_48xlarge(), presets::llama_70b())
        .expect("the production stack fits an 8xH200 node")
}

fn chaos_autoscale() -> AutoscaleConfig {
    AutoscaleConfig {
        cold_start: Dur::from_secs(10.0),
        min_replicas: CHAOS_MIN,
        max_replicas: CHAOS_PEAK,
    }
}

fn chaos_scale_policy() -> LoadBandPolicy {
    LoadBandPolicy::new(10_000.0, 3_000.0).cooldown(Dur::from_secs(2.0))
}

fn chaos_retry() -> RetryPolicy {
    RetryPolicy { max_retries: 6, base_backoff: Dur::from_secs(0.5) }
}

fn chaos(plan: FaultPlan, traced: bool) -> Box<dyn FnOnce(&Trace) -> RunOutput> {
    let routing = RoutingKind::JsqByTtft.policy();
    if !traced {
        let scaler =
            Autoscaler::new(chaos_autoscale(), Box::new(chaos_scale_policy()), |_| chaos_node());
        let nodes = (0..CHAOS_MIN).map(|_| chaos_node()).collect();
        let mut sim = ClusterSim::new(nodes, routing)
            .with_autoscaler(scaler)
            .with_faults(plan, chaos_retry());
        return Box::new(move |trace| run_cluster(&mut sim, trace));
    }
    let scaler = Autoscaler::new(
        chaos_autoscale(),
        Box::new(TimedScale(Box::new(chaos_scale_policy()))),
        |_| spans::timed(Span::SpawnBuild, || Timed(chaos_node())),
    );
    let nodes = (0..CHAOS_MIN).map(|_| Timed(chaos_node())).collect();
    let mut sim = ClusterSim::new(nodes, Box::new(TimedRouting(routing)))
        .with_autoscaler(scaler)
        .with_faults(plan, chaos_retry());
    Box::new(move |trace| {
        let mut out = run_cluster(&mut sim, trace);
        out.switches = spans::take_node_switches();
        out
    })
}
