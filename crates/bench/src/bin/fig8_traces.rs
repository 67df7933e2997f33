//! Figures 2 and 8: the workload traces' shapes (size distributions and
//! arrival patterns).
//!
//! ```text
//! cargo run --release -p sp-bench --bin fig8_traces
//! ```

use shift_core::{Deployment, DeploymentKind, Fleet, RoutingKind};
use sp_bench::harness::{node, print_table};
use sp_metrics::{ClassSlo, Dur, Quantiles};
use sp_model::presets;
use sp_workload::azure::AzureCodeConfig;
use sp_workload::bursty::BurstyConfig;
use sp_workload::mooncake::MooncakeConfig;
use sp_workload::Trace;

fn describe(name: &str, trace: &Trace) {
    let mut input: Quantiles = trace.requests().iter().map(|r| f64::from(r.input_tokens)).collect();
    let mut output: Quantiles =
        trace.requests().iter().map(|r| f64::from(r.output_tokens)).collect();
    let mut rows = Vec::new();
    for p in [0.1, 0.5, 0.9, 0.99] {
        rows.push(vec![
            format!("p{:.0}", p * 100.0),
            format!("{:.0}", input.quantile(p).unwrap()),
            format!("{:.0}", output.quantile(p).unwrap()),
        ]);
    }
    print_table(
        &format!("Figure 8 — {name}: token distributions ({} requests)", trace.len()),
        &["quantile", "input", "output"],
        &rows,
    );

    let hist = trace.arrival_histogram(Dur::from_secs(30.0));
    let rows: Vec<Vec<String>> = hist
        .iter()
        .map(|(t, c)| vec![format!("{:.0}", t.as_secs()), format!("{c}"), "#".repeat(c / 10)])
        .collect();
    print_table(&format!("Figure 8 — {name}: arrivals per 30s"), &["t(s)", "req", ""], &rows);
}

/// How much routing policy matters on a bursty trace: p99 TTFT and
/// per-class SLO attainment across a 2-node fleet for each online policy
/// (the deadline-aware one also enables class-SLO scheduling inside each
/// node). The `static-split` row is the offline greedy split the online
/// routers replaced, replayed at arrival instants.
fn routing_comparison(trace: &Trace) {
    let slo = ClassSlo::default();
    let make_fleet = |class_aware: bool| {
        Fleet::new(2, move || {
            let builder =
                Deployment::builder(node(), presets::qwen_32b()).kind(DeploymentKind::Shift);
            if class_aware {
                builder.class_slo(slo)
            } else {
                builder
            }
        })
        .expect("known-good fleet")
    };

    let mut rows = Vec::new();
    let mut push_row = |label: String, mut report: sp_engine::EngineReport| {
        let to_node0 = report.routing_decisions().iter().filter(|d| d.replica == 0).count();
        let total = report.routing_decisions().len().max(1);
        let class = report.class_slo_report(&slo);
        let m = report.metrics_mut();
        rows.push(vec![
            label,
            format!("{:.0}", m.ttft().median().unwrap_or(0.0) * 1e3),
            format!("{:.0}", m.ttft().p99().unwrap_or(0.0) * 1e3),
            format!("{:.0}%", class.interactive.attainment() * 100.0),
            format!("{:.0}%", class.batch.attainment() * 100.0),
            format!("{:.1}%", 100.0 * to_node0 as f64 / total as f64),
        ]);
    };
    for kind in
        [RoutingKind::JoinShortestOutstanding, RoutingKind::RoundRobin, RoutingKind::StaticSplit]
    {
        let report = make_fleet(false).routing(kind).run(trace);
        push_row(kind.policy().name().to_string(), report);
    }
    let aware = make_fleet(true).routing(RoutingKind::EarliestDeadlineFeasible(slo)).run(trace);
    let activity = format!(
        "earliest-deadline-feasible (+class-SLO engines: {} sheds, {} deferrals)",
        aware.batch_sheds(),
        aware.batch_deferrals()
    );
    push_row(activity, aware);
    print_table(
        "Online routing policies, 2-node Shift fleet on the bursty trace",
        &["router", "TTFT p50(ms)", "TTFT p99(ms)", "Int SLO", "Batch SLO", "to node 0"],
        &rows,
    );
}

fn main() {
    let bursty = BurstyConfig::default().generate();
    describe("bursty synthetic (Fig. 2/7)", &bursty);
    routing_comparison(&bursty);
    describe("Azure LLM Code (Fig. 8a)", &AzureCodeConfig::default().generate());
    describe("Mooncake conversation (Fig. 8b)", &MooncakeConfig::default().generate());
    println!(
        "\nExpected shapes: Azure = bursty arrivals, long inputs, short outputs;\n\
         Mooncake = steady ~9 req / 3 s, medium inputs, long outputs."
    );
}
