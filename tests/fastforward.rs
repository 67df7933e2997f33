//! Byte-identity properties and edge cases for the decode fast-forward
//! path (`Engine::step_run` macro-stepping steady-state decode runs).
//!
//! The fast path is an *optimization*, never a behavior change: a spec
//! engine (`Engine::set_spec(true)`) walks the per-iteration scheduler
//! (build batch, price, advance one iteration), and the fast-forwarded
//! run must reproduce that loop's report bit-for-bit — not just records
//! and rejects, but throughput bins, makespan, max-iteration time,
//! config usage, KV peaks, and the per-iteration timeline when capture
//! is on. The properties here compare `EngineReport::canonical` between
//! the fast paths at horizon-parallel widths {1, 2, 8} and the spec
//! cluster over spec engines, under no faults, seeded fault plans, and
//! autoscaler churn; the edge-case tests pin the run-length boundaries
//! (length-1 runs, caps landing mid-run) individually, and the
//! engagement test pins that macro-stepping actually carries the
//! steady-state regimes it was built for.

use proptest::prelude::*;
use shift_parallelism::prelude::*;
use sp_cluster::{GpuSpec, InterconnectSpec, NodeSpec};
use sp_engine::RunAdvance;

/// An engine on its fast paths or as the spec, with optional SLO
/// admission and timeline capture (so the comparison pins per-iteration
/// events bit-exactly).
fn engine_ff(kv: u64, slo: Option<ClassSlo>, spec: bool) -> Engine {
    let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
    let mut e = Engine::new(
        ExecutionModel::new(node, presets::qwen_32b()),
        Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
        EngineConfig {
            kv_capacity_tokens: kv,
            class_slo: slo,
            record_timeline: true,
            ..EngineConfig::default()
        },
    );
    e.set_spec(spec);
    e
}

fn engines_ff(n: usize, kv: u64, spec: bool) -> Vec<Engine> {
    (0..n).map(|_| engine_ff(kv, None, spec)).collect()
}

/// The KV-pressure regime the shape-stable windows and the admission
/// gate target: a tight cache, a small chunk budget (so prompts prefill
/// across many iterations and windows mix a chunked-prefill leader with
/// steady decodes), and SLO-aware EDF admission (so the gate arms with
/// an expiry and the shed path fires).
fn pressure_engine(kv: u64, spec: bool) -> Engine {
    let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
    let mut e = Engine::new(
        ExecutionModel::new(node, presets::qwen_32b()),
        Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
        EngineConfig {
            kv_capacity_tokens: kv,
            max_batched_tokens: 2048,
            class_slo: Some(ClassSlo::default()),
            record_timeline: true,
            ..EngineConfig::default()
        },
    );
    e.set_spec(spec);
    e
}

fn request(id: u64, at: f64, input: u32, output: u32) -> Request {
    Request {
        id,
        arrival: SimTime::from_secs(at),
        input_tokens: input,
        output_tokens: output,
        class: RequestClass::Batch,
        cached_prefix: 0,
        prefix_group: None,
    }
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (prop::collection::vec((1u32..12_000, 1u32..300, 0.0f64..40.0, any::<bool>()), 1..24),)
        .prop_map(|(reqs,)| {
            reqs.into_iter()
                .map(|(input, output, at, interactive)| Request {
                    id: 0, // Trace::new renumbers in arrival order
                    arrival: SimTime::from_secs(at),
                    input_tokens: input,
                    output_tokens: output,
                    class: if interactive {
                        RequestClass::Interactive
                    } else {
                        RequestClass::Batch
                    },
                    cached_prefix: 0,
                    prefix_group: None,
                })
                .collect()
        })
        .prop_map(Trace::new)
}

fn arb_fault_plan(max_replicas: usize) -> impl Strategy<Value = FaultPlan> {
    prop::collection::vec((0.0f64..30.0, 0usize..max_replicas, 0u8..8), 0..6).prop_map(|faults| {
        FaultPlan::new(
            faults
                .into_iter()
                .map(|(at, replica, kind)| FaultEvent {
                    at: SimTime::from_secs(at),
                    fault: match kind {
                        0..=3 => Fault::Crash { replica },
                        4 | 5 => {
                            Fault::Slowdown { replica, factor: 3.0, duration: Dur::from_secs(2.0) }
                        }
                        _ => Fault::RouteTimeout,
                    },
                })
                .collect(),
        )
    })
}

/// Runs a cluster as the spec (`None`) or on its fast paths at the
/// given horizon-parallel width, returning the merged report's
/// canonical form.
fn run_cluster(mut sim: ClusterSim<Engine>, threads: Option<usize>, trace: &Trace) -> String {
    match threads {
        None => sim.set_spec(true),
        Some(t) => sim.set_threads(t),
    }
    sim.run(trace).canonical()
}

/// Asserts that the fast paths built by `build(false)` match the spec
/// built by `build(true)` at every horizon width.
fn assert_widths_match_spec(build: impl Fn(bool) -> ClusterSim<Engine>, trace: &Trace, what: &str) {
    let spec = run_cluster(build(true), None, trace);
    for threads in [1usize, 2, 8] {
        assert_eq!(
            run_cluster(build(false), Some(threads), trace),
            spec,
            "{what} diverged from the spec at {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The core equivalence: a lone engine on its fast paths must
    /// produce a bit-identical report to the spec engine walking every
    /// iteration, across randomized traces and SLO admission —
    /// including the captured per-iteration timeline, so a run that
    /// mis-attributed even one iteration's end instant, duration,
    /// config, or KV reading fails here.
    #[test]
    fn fastforward_engine_matches_per_iteration(
        trace in arb_trace(),
        use_slo in any::<bool>(),
        kv in prop_oneof![Just(30_000u64), Just(200_000)],
    ) {
        let slo = use_slo.then(ClassSlo::default);
        let fast = engine_ff(kv, slo, false).run(&trace).canonical();
        let spec = engine_ff(kv, slo, true).run(&trace).canonical();
        prop_assert_eq!(&fast, &spec, "fast-forward diverged from the spec engine");
    }

    /// Cluster-level equivalence, no faults: the fast paths at horizon
    /// widths {1, 2, 8} must match the spec cluster over spec engines
    /// bit-for-bit. Runs here are cut by dispatch horizons
    /// (`WindowCap::FaultFree`), so the cap-clamp path is exercised on
    /// every arrival.
    #[test]
    fn fastforward_cluster_matches_per_iteration(
        trace in arb_trace(),
        n in 1usize..4,
        kv in prop_oneof![Just(30_000u64), Just(200_000)],
    ) {
        let build = |spec: bool| {
            ClusterSim::new(engines_ff(n, kv, spec), RoutingKind::JoinShortestOutstanding.policy())
        };
        assert_widths_match_spec(build, &trace, "fast-forward");
    }

    /// Cluster-level equivalence under seeded fault plans: crashes,
    /// slowdown windows, and route timeouts cut horizon windows at
    /// timer instants (`WindowCap::Faulted`), so decode runs clamp at
    /// fault timers and re-enter after salvage/redelivery — all of it
    /// bit-identical to the spec at every width.
    #[test]
    fn fastforward_cluster_matches_per_iteration_under_faults(
        trace in arb_trace(),
        n in 1usize..4,
        plan in arb_fault_plan(4),
        budget in 0u32..3,
    ) {
        let retry = RetryPolicy { max_retries: budget, base_backoff: Dur::from_secs(0.25) };
        let build = |spec: bool| {
            ClusterSim::new(engines_ff(n, 60_000, spec), RoutingKind::JoinShortestOutstanding.policy())
                .with_faults(plan.clone(), retry)
        };
        assert_widths_match_spec(build, &trace, "fast-forward under faults");
    }

    /// Cluster-level equivalence under KV pressure: prompts comparable
    /// to the cache with a 2048-token chunk budget, so windows carry
    /// mixed prefill+decode shapes, arrivals land mid-window, the
    /// KV-blocked admission gate arms (with EDF expiries and shed-path
    /// re-entries), and retirements re-open admission mid-horizon. The
    /// generalized shape-stable fast-forward must reproduce the spec
    /// bit-for-bit at every horizon width, with and without a fault
    /// plan cutting the windows at timer instants.
    #[test]
    fn fastforward_cluster_matches_per_iteration_under_kv_pressure(
        trace in arb_trace(),
        n in 1usize..3,
        kv in prop_oneof![Just(16_384u64), Just(24_576)],
        plan in prop_oneof![Just(FaultPlan::empty()), arb_fault_plan(2)],
    ) {
        let retry = RetryPolicy { max_retries: 2, base_backoff: Dur::from_secs(0.25) };
        let build = |spec: bool| {
            let engines: Vec<Engine> = (0..n).map(|_| pressure_engine(kv, spec)).collect();
            ClusterSim::new(engines, RoutingKind::JoinShortestOutstanding.policy())
                .with_faults(plan.clone(), retry)
        };
        assert_widths_match_spec(build, &trace, "fast-forward under KV pressure");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Cluster-level equivalence under autoscaler churn: spawns, warmup
    /// promotions, drains, and retires are coordination events between
    /// windows, and a drained-dry replica must retire at the same
    /// instant whether its final decode plateau was fast-forwarded or
    /// stepped one iteration at a time.
    #[test]
    fn fastforward_cluster_matches_per_iteration_with_autoscaling(
        reqs in prop::collection::vec((1u32..12_000, 1u32..200, 0.0f64..8.0), 1..24),
        n in 1usize..4,
        hi in 150f64..1_500.0,
        lo in 20f64..120.0,
    ) {
        let trace = Trace::new(
            reqs.into_iter()
                .map(|(input, output, at)| request(0, at, input, output))
                .collect(),
        );
        let kv = 60_000u64;
        let build = |spec: bool| {
            let scaler = Autoscaler::new(
                AutoscaleConfig {
                    cold_start: Dur::from_secs(2.5),
                    min_replicas: 1,
                    max_replicas: 4,
                },
                Box::new(LoadBandPolicy::new(hi, lo).smoothing(0.5).cooldown(Dur::from_secs(2.0))),
                move |_| engine_ff(kv, None, spec),
            );
            ClusterSim::new(engines_ff(n, kv, spec), RoutingKind::JoinShortestOutstanding.policy())
                .with_autoscaler(scaler)
        };
        assert_widths_match_spec(build, &trace, "fast-forward under autoscaling");
    }
}

/// Run length 1: simultaneous arrivals whose outputs differ by exactly
/// one token make `min(decode_remaining)` hit 1 on every run after the
/// first finish — each macro-step advances a single iteration, retires
/// one sequence, and rebuilds. The degenerate run must still be
/// bit-identical to per-iteration stepping (and actually complete
/// everything).
#[test]
fn run_length_one_is_byte_identical() {
    let trace = Trace::with_ids((0..6).map(|i| request(i, 0.0, 64, 3 + i as u32)).collect());
    let fast_report = engine_ff(100_000, None, false).run(&trace);
    let spec = engine_ff(100_000, None, true).run(&trace).canonical();
    assert_eq!(fast_report.canonical(), spec, "length-1 runs diverged from the spec");
    assert_eq!(fast_report.records().len(), 6, "all staggered sequences must complete");
}

/// A slowdown window edge landing mid-plateau: the window's start and
/// end are fault timers, so the horizon cap (`WindowCap::Faulted`)
/// clamps a decode run partway through, the slowdown factor changes,
/// and the run resumes at the new per-iteration duration. Both edges
/// land strictly inside what would otherwise be one long decode run.
#[test]
fn slowdown_edge_mid_run_is_byte_identical() {
    let trace = Trace::with_ids((0..4).map(|i| request(i, 0.0, 128, 400)).collect());
    let plan = FaultPlan::new(vec![FaultEvent {
        at: SimTime::from_secs(1.0),
        fault: Fault::Slowdown { replica: 0, factor: 3.0, duration: Dur::from_secs(2.0) },
    }]);
    let retry = RetryPolicy { max_retries: 2, base_backoff: Dur::from_secs(0.25) };
    let build = |spec: bool| {
        ClusterSim::new(engines_ff(1, 100_000, spec), RoutingKind::default().policy())
            .with_faults(plan.clone(), retry)
    };
    assert_widths_match_spec(build, &trace, "slowdown edge mid-run");
}

/// A crash timer landing inside a decode run: the run clamps at the
/// timer cap, the crash destroys the replica's in-flight work, and the
/// salvaged requests re-dispatch under retry — every salvage instant,
/// attempt count, and re-prefill must match the spec.
#[test]
fn crash_timer_mid_run_is_byte_identical() {
    let trace = Trace::with_ids((0..4).map(|i| request(i, 0.0, 128, 400)).collect());
    let plan = FaultPlan::new(vec![FaultEvent {
        at: SimTime::from_secs(1.5),
        fault: Fault::Crash { replica: 0 },
    }]);
    let retry = RetryPolicy { max_retries: 2, base_backoff: Dur::from_secs(0.25) };
    let build = |spec: bool| {
        ClusterSim::new(engines_ff(2, 100_000, spec), RoutingKind::default().policy())
            .with_faults(plan.clone(), retry)
    };
    assert_widths_match_spec(build, &trace, "crash timer mid-run");
}

/// An engine node that counts its `step_once` and `step_run` calls and
/// the events it advances through `step_run` (macro-steps).
#[derive(Debug)]
struct Counting {
    engine: Engine,
    once_calls: u64,
    run_calls: u64,
    run_events: u64,
}

impl Counting {
    fn new(engine: Engine) -> Counting {
        Counting { engine, once_calls: 0, run_calls: 0, run_events: 0 }
    }
}

impl SimNode for Counting {
    fn push_request(&mut self, req: Request) {
        self.engine.push_request(req);
    }

    fn step_once(&mut self) {
        self.once_calls += 1;
        self.engine.step_once();
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.engine.next_event_time()
    }

    fn outstanding_tokens(&self) -> u64 {
        self.engine.outstanding_tokens()
    }

    fn load(&self) -> NodeLoad {
        self.engine.load()
    }

    fn take_report(&mut self) -> EngineReport {
        self.engine.take_report()
    }

    fn step_run(&mut self, cap: Option<f64>) -> Option<RunAdvance> {
        self.run_calls += 1;
        let run = self.engine.step_run(cap)?;
        self.run_events += run.events;
        Some(run)
    }
}

/// Runs `engines` as a single-threaded fast-path cluster and returns
/// `(events advanced by step_run, report iterations)`.
fn macro_stepped_share(engines: Vec<Engine>, trace: &Trace) -> (u64, u64) {
    let nodes: Vec<Counting> = engines.into_iter().map(Counting::new).collect();
    let mut sim =
        ClusterSim::new(nodes, RoutingKind::JoinShortestOutstanding.policy()).with_threads(1);
    let report = sim.run(trace);
    assert_eq!(report.records().len() + report.rejected().len(), trace.len());
    let run_events = sim.into_nodes().iter().map(|n| n.run_events).sum();
    (run_events, report.iterations())
}

/// Engagement, not just equivalence: the byte-identity properties above
/// pass just as well if `step_run` never engages, and the simperf speed
/// ratios are partly carried by the spec's direct pricing. So count the
/// events each regime actually advances through `step_run`. A
/// burst-then-drain decode cluster must macro-step most of its
/// iterations; a KV-bound chunked-prefill cluster (mixed windows and
/// the admission gate) must macro-step a nonzero share.
#[test]
fn step_run_engages_on_steady_decode_and_kv_bound_prefill() {
    let drain = Trace::with_ids(
        (0..48).map(|i| request(i, 0.001 * i as f64, 200, 600 + (i as u32 % 5))).collect(),
    );
    let (run_events, iterations) = macro_stepped_share(engines_ff(4, 1_000_000, false), &drain);
    assert!(
        run_events * 4 >= iterations * 3,
        "burst-then-drain decode: step_run advanced {run_events} of {iterations} iterations"
    );

    let pressure = Trace::with_ids(
        (0..24).map(|i| request(i, 0.05 * i as f64, 5_000 + 97 * (i as u32 % 7), 300)).collect(),
    );
    let engines = (0..2).map(|_| pressure_engine(24_576, false)).collect();
    let (run_events, iterations) = macro_stepped_share(engines, &pressure);
    assert!(
        run_events > 0,
        "KV-bound chunked prefill: step_run advanced {run_events} of {iterations} iterations"
    );
}

/// Horizon windows fan out only the slots due before the cap. That
/// filter must be exact at the call level, not only in the report:
/// every node sees the same `step_once` and `step_run` calls, and
/// `step_run` advances the same events, at every width — including
/// windows with no slot due, one slot due, or a staggered subset.
#[test]
fn due_slot_fan_out_makes_the_same_node_calls_at_every_width() {
    // Staggered arrivals and lengths leave most windows with few due
    // slots; the tail arrivals land while earlier bursts still decode.
    let trace = Trace::with_ids(
        (0..40)
            .map(|i| {
                let at = 0.002 * i as f64 + if i >= 32 { 1.5 } else { 0.0 };
                request(i, at, 64 + 37 * (i as u32 % 5), 40 + 23 * (i as u32 % 7))
            })
            .collect(),
    );
    let counts = |threads: usize| {
        let nodes: Vec<Counting> =
            engines_ff(6, 1_000_000, false).into_iter().map(Counting::new).collect();
        let mut sim = ClusterSim::new(nodes, RoutingKind::JoinShortestOutstanding.policy())
            .with_threads(threads);
        let report = sim.run(&trace);
        assert_eq!(report.records().len(), trace.len());
        let calls: Vec<(u64, u64, u64)> =
            sim.into_nodes().iter().map(|n| (n.once_calls, n.run_calls, n.run_events)).collect();
        (calls, report.canonical())
    };
    let (base, report) = counts(1);
    assert!(
        base.iter().any(|&(once, runs, _)| once > 0 && runs > 0),
        "both step_once and step_run engaged"
    );
    for threads in [2, 8] {
        let (calls, other) = counts(threads);
        assert_eq!(calls, base, "per-node (step_once, step_run, run events) at width {threads}");
        assert!(other == report, "report diverged at width {threads}");
    }
}
