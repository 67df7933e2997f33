//! Data-parallel clusters: independent replicas behind a router.
//!
//! The paper's throughput-optimized baseline deploys vLLM with DP: each
//! GPU runs its own engine and a router spreads requests across them. The
//! replicas share nothing (that independence is DP's advantage — zero
//! communication — and its weakness — no intra-request speedup).

use crate::engine::Engine;
use crate::report::EngineReport;
use crate::routing::{ClusterSim, RoutingPolicy, SimNode};
use sp_metrics::{Dur, NodeLoad, SimTime};
use sp_workload::{Request, Trace};

/// N independent engines behind an online router.
///
/// [`DataParallelCluster::run_online`] dispatches each request at its
/// arrival instant to the replica a [`RoutingPolicy`] picks from live
/// load; [`crate::routing::StaticSplit`] reproduces the greedy
/// up-front split by assigned tokens.
///
/// # Examples
///
/// ```
/// use sp_cluster::{GpuSpec, InterconnectSpec, NodeSpec};
/// use sp_engine::{DataParallelCluster, Engine, EngineConfig, RoutingKind};
/// use sp_model::presets;
/// use sp_parallel::{ExecutionModel, ParallelConfig, StaticPolicy};
/// use sp_workload::synthetic;
///
/// let gpu_node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
/// let mut dp = DataParallelCluster::new(8, |_| {
///     let exec = ExecutionModel::new(gpu_node, presets::qwen_32b());
///     Engine::new(
///         exec,
///         Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
///         EngineConfig::default(),
///     )
/// });
/// let trace = synthetic::uniform_batch(16, 512, 4);
/// let report = dp.run_online(&trace, RoutingKind::default().policy());
/// assert_eq!(report.records().len(), 16);
/// ```
#[derive(Debug)]
pub struct DataParallelCluster {
    replicas: Vec<Engine>,
}

impl DataParallelCluster {
    /// Creates `replica_count` engines via `make_engine(replica_index)`.
    ///
    /// # Panics
    ///
    /// Panics if `replica_count` is zero.
    pub fn new(
        replica_count: usize,
        make_engine: impl FnMut(usize) -> Engine,
    ) -> DataParallelCluster {
        assert!(replica_count > 0, "cluster needs at least one replica");
        DataParallelCluster { replicas: (0..replica_count).map(make_engine).collect() }
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Runs `trace` with online routing: replicas advance together in
    /// simulated time and each request is dispatched at its arrival
    /// instant to the replica `policy` picks from live outstanding load.
    /// The merged report carries the decision trail
    /// ([`EngineReport::routing_decisions`]) and per-replica load series.
    pub fn run_online(&mut self, trace: &Trace, policy: Box<dyn RoutingPolicy>) -> EngineReport {
        let bin = self.throughput_bin();
        let replicas = std::mem::take(&mut self.replicas);
        let mut sim = ClusterSim::new(replicas, policy).throughput_bin(bin);
        let report = sim.run(trace);
        self.replicas = sim.into_nodes();
        report
    }

    fn throughput_bin(&self) -> Dur {
        self.replicas.first().map_or(Dur::from_secs(1.0), |e| e.config().throughput_bin)
    }
}

/// A whole DP cluster can itself be a node in a larger co-simulation
/// (e.g. one fleet deployment = one cluster): requests entering the
/// cluster are join-shortest-outstanding routed across its replicas, and
/// the cluster's next event is its earliest replica event.
impl SimNode for DataParallelCluster {
    fn push_request(&mut self, req: Request) {
        let target = (0..self.replicas.len())
            .min_by_key(|&i| self.replicas[i].outstanding_tokens())
            .expect("non-empty cluster");
        self.replicas[target].push_request(req);
    }

    fn step_once(&mut self) {
        let earliest = self
            .replicas
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.next_event_time().map(|t| (i, t)))
            .min_by(|a, b| a.1.as_secs().total_cmp(&b.1.as_secs()))
            .map(|(i, _)| i);
        if let Some(i) = earliest {
            self.replicas[i].step_once();
        }
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.replicas
            .iter()
            .filter_map(Engine::next_event_time)
            .min_by(|a, b| a.as_secs().total_cmp(&b.as_secs()))
    }

    fn outstanding_tokens(&self) -> u64 {
        self.replicas.iter().map(Engine::outstanding_tokens).sum()
    }

    fn load(&self) -> NodeLoad {
        // Capacity-style signals add across replicas; the prefill rate
        // adds because replicas prefill concurrently. `min_kv_free_tokens`
        // is the bottleneck replica's headroom (see `NodeLoad`'s
        // aggregate-semantics docs).
        let seed = NodeLoad { min_kv_free_tokens: u64::MAX, ..NodeLoad::default() };
        self.replicas.iter().map(Engine::load).fold(seed, |acc, l| NodeLoad {
            outstanding_tokens: acc.outstanding_tokens + l.outstanding_tokens,
            queued_prefill_tokens: acc.queued_prefill_tokens + l.queued_prefill_tokens,
            kv_free_tokens: acc.kv_free_tokens + l.kv_free_tokens,
            min_kv_free_tokens: acc.min_kv_free_tokens.min(l.min_kv_free_tokens),
            prefill_tokens_per_sec: acc.prefill_tokens_per_sec + l.prefill_tokens_per_sec,
        })
    }

    fn take_report(&mut self) -> EngineReport {
        let bin = self.throughput_bin();
        let mut merged = EngineReport::new(bin);
        for engine in &mut self.replicas {
            merged.merge(engine.take_report());
        }
        merged
    }

    fn take_unfinished(&mut self) -> crate::fault::SalvagedWork {
        let mut salvaged = crate::fault::SalvagedWork::default();
        for engine in &mut self.replicas {
            let part = engine.take_unfinished();
            salvaged.wasted_prefill_tokens += part.wasted_prefill_tokens;
            salvaged.requests.extend(part.requests);
        }
        salvaged
    }

    fn set_slowdown(&mut self, factor: f64) {
        for engine in &mut self.replicas {
            engine.set_slowdown(factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::routing::RoutingKind;
    use sp_cluster::{GpuSpec, InterconnectSpec, NodeSpec};
    use sp_model::presets;
    use sp_parallel::{ExecutionModel, ParallelConfig, StaticPolicy};
    use sp_workload::synthetic;

    fn make_cluster(replicas: usize) -> DataParallelCluster {
        let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
        DataParallelCluster::new(replicas, |_| {
            Engine::new(
                ExecutionModel::new(node, presets::qwen_32b()),
                Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
                EngineConfig::default(),
            )
        })
    }

    /// Tokens routed to each of `replicas` replicas, from the decision
    /// trail.
    fn routed_tokens(report: &EngineReport, trace: &Trace, replicas: usize) -> Vec<u64> {
        let mut work = vec![0u64; replicas];
        for d in report.routing_decisions() {
            let req = trace.requests().iter().find(|r| r.id == d.request_id).unwrap();
            work[d.replica] += req.total_tokens();
        }
        work
    }

    #[test]
    fn static_split_balances_uniform_load() {
        let trace = synthetic::uniform_batch(100, 1000, 100);
        let report = make_cluster(4).run_online(&trace, RoutingKind::StaticSplit.policy());
        for replica in 0..4 {
            let n = report.routing_decisions().iter().filter(|d| d.replica == replica).count();
            assert_eq!(n, 25);
        }
    }

    #[test]
    fn static_split_balances_skewed_sizes() {
        // Alternating huge and tiny requests.
        let mut reqs = Vec::new();
        for i in 0..40u64 {
            let big = i % 2 == 0;
            reqs.push(sp_workload::Request {
                id: i,
                arrival: sp_metrics::SimTime::from_secs(i as f64 * 0.01),
                input_tokens: if big { 8000 } else { 100 },
                output_tokens: 10,
                class: sp_workload::RequestClass::Batch,
                cached_prefix: 0,
                prefix_group: None,
            });
        }
        let trace = Trace::new(reqs);
        let report = make_cluster(2).run_online(&trace, RoutingKind::StaticSplit.policy());
        let work = routed_tokens(&report, &trace, 2);
        let imbalance = *work.iter().max().unwrap() as f64 / *work.iter().min().unwrap() as f64;
        assert!(imbalance < 1.2, "router imbalance {imbalance}");
    }

    #[test]
    fn all_requests_complete_exactly_once() {
        let mut cluster = make_cluster(8);
        let trace = synthetic::poisson(64, 50.0, 512, 8, 5);
        let report = cluster.run_online(&trace, RoutingKind::default().policy());
        assert_eq!(report.records().len(), 64);
        let mut ids: Vec<u64> = report.records().iter().map(|r| r.request_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 64);
    }

    #[test]
    fn dp_throughput_scales_with_replicas() {
        let trace = synthetic::uniform_batch(64, 2048, 16);
        let one = make_cluster(1).run_online(&trace, RoutingKind::default().policy());
        let eight = make_cluster(8).run_online(&trace, RoutingKind::default().policy());
        let speedup = one.makespan().as_secs() / eight.makespan().as_secs();
        assert!(speedup > 4.0, "8-replica speedup only {speedup:.2}x");
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let _ = make_cluster(0);
    }

    fn make_tight_cluster(replicas: usize, kv: u64) -> DataParallelCluster {
        let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
        DataParallelCluster::new(replicas, |_| {
            Engine::new(
                ExecutionModel::new(node, presets::qwen_32b()),
                Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
                EngineConfig { kv_capacity_tokens: kv, ..EngineConfig::default() },
            )
        })
    }

    /// A bursty Poisson trace with a handful of long-decode "agentic"
    /// requests up front. The long decodes pin KV blocks on whichever
    /// replica admits them for minutes of simulated time — an asymmetry
    /// the static token-count split cannot see, so it keeps sending half
    /// of every burst into the congested replica's admission queue.
    fn bursty_trace_with_long_decodes(seed: u64) -> Trace {
        let mut reqs: Vec<Request> = sp_workload::bursty::BurstyConfig {
            duration: sp_metrics::Dur::from_secs(300.0),
            base_rate: 1.0,
            bursts: 4,
            burst_size: 12,
            burst_window: sp_metrics::Dur::from_secs(10.0),
            seed,
            ..sp_workload::bursty::BurstyConfig::default()
        }
        .generate()
        .requests()
        .to_vec();
        // The lognormal sampler occasionally emits a request larger than
        // the tight KV cap used in these tests; such a request could never
        // admit, so drop it to keep every request completable.
        reqs.retain(|r| r.total_tokens() <= 15_000);
        for (k, at) in [5.0, 9.0, 13.0, 17.0, 21.0].iter().enumerate() {
            reqs.push(Request {
                id: 10_000 + k as u64,
                arrival: sp_metrics::SimTime::from_secs(*at),
                input_tokens: 500,
                output_tokens: 6_000,
                class: sp_workload::RequestClass::Batch,
                cached_prefix: 0,
                prefix_group: None,
            });
        }
        Trace::new(reqs)
    }

    fn p99_ttft(report: &mut EngineReport) -> f64 {
        report.metrics_mut().ttft().quantile(0.99).expect("non-empty")
    }

    #[test]
    fn online_jsq_beats_offline_static_split_on_bursty_p99_ttft() {
        // The tentpole claim: with KV-constrained replicas, requests that
        // cannot admit wait in queue — exactly the load signal
        // join-shortest-outstanding reacts to. The static split keeps
        // feeding the replica whose cache the long decodes pinned, so its
        // admission queue (and the TTFT tail) grows; load-aware routing
        // diverts bursts to the replica that is actually draining.
        let trace = bursty_trace_with_long_decodes(0xB5_257);
        let mut offline_report =
            make_tight_cluster(2, 20_000).run_online(&trace, RoutingKind::StaticSplit.policy());
        let mut online_report = make_tight_cluster(2, 20_000)
            .run_online(&trace, RoutingKind::JoinShortestOutstanding.policy());

        assert_eq!(online_report.records().len(), trace.len());
        assert_eq!(offline_report.records().len(), trace.len());
        let offline = p99_ttft(&mut offline_report);
        let online = p99_ttft(&mut online_report);
        assert!(
            online < offline,
            "online JSQ p99 TTFT {online:.3}s must beat the static split {offline:.3}s"
        );
        // The decision trail shows the diversion: not a 50/50 split.
        let to_first = online_report.routing_decisions().iter().filter(|d| d.replica == 0).count();
        let total = online_report.routing_decisions().len();
        assert!(to_first != total / 2 || total % 2 == 1, "expected a load-skewed split");
    }

    #[test]
    fn online_run_merges_exactly_the_per_replica_work() {
        // Merge correctness: run the same decisions through ClusterSim and
        // compare the merged report against independently-run replicas fed
        // the per-decision shards.
        let trace = synthetic::poisson(48, 30.0, 640, 12, 21);
        let mut cluster = make_cluster(3);
        let report = cluster.run_online(&trace, RoutingKind::JoinShortestOutstanding.policy());

        // Every request completed exactly once, with its original id.
        let mut ids: Vec<u64> = report.records().iter().map(|r| r.request_id).collect();
        ids.sort_unstable();
        let mut expected: Vec<u64> = trace.requests().iter().map(|r| r.id).collect();
        expected.sort_unstable();
        assert_eq!(ids, expected, "merged ids must match the trace without collisions");

        // Rebuild the per-replica shards from the decision trail and run
        // them on fresh engines: merged totals must equal the sums.
        let decisions = report.routing_decisions().to_vec();
        assert_eq!(decisions.len(), trace.len());
        let mut shards: Vec<Vec<Request>> = vec![Vec::new(); 3];
        for d in &decisions {
            let req = trace.requests().iter().find(|r| r.id == d.request_id).unwrap();
            shards[d.replica].push(*req);
        }
        let mut replica_token_sum = 0u64;
        let mut replica_iter_sum = 0u64;
        for shard in shards {
            let fresh = make_cluster(1).replicas.pop().unwrap().run(&Trace::with_ids(shard));
            replica_token_sum += fresh.metrics().total_tokens();
            replica_iter_sum += fresh.iterations();
        }
        assert_eq!(report.metrics().total_tokens(), replica_token_sum);
        assert_eq!(report.iterations(), replica_iter_sum);
        assert_eq!(report.metrics().total_tokens(), trace.total_tokens());
    }
}
