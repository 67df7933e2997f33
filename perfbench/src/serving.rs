//! The modelled serving stack's end-to-end numbers, the output checks,
//! and the canonical report digest.
//!
//! Everything here is simulated time: deterministic for a seed, so any
//! movement between two commits is a model change, not host noise.

use sp_engine::EngineReport;
use sp_metrics::{ClassSlo, Quantiles, RequestClass, RequestRecord};
use sp_workload::Trace;

/// Serving outcome of one run, scored against the requests *sent*.
#[derive(Debug, Clone)]
pub struct Serving {
    pub sent: u64,
    pub completed: u64,
    pub rejected: u64,
    pub failed: u64,
    /// Requests that completed within their class TTFT and TPOT targets.
    pub slo_met: u64,
    /// Prompt + output tokens of completed requests.
    pub served_tokens: u64,
    /// Prompt + output tokens of SLO-meeting requests.
    pub good_tokens: u64,
    pub makespan_s: f64,
    /// TTFT seconds from each request's due arrival in the trace.
    pub ttft: Quantiles,
    /// TPOT seconds of completed requests with more than one output token.
    pub tpot: Quantiles,
}

impl Serving {
    /// Share of requests sent that met their class targets; rejected and
    /// failed requests count as misses.
    pub fn slo_attainment(&self) -> f64 {
        self.slo_met as f64 / self.sent as f64
    }

    pub fn completed_frac(&self) -> f64 {
        self.completed as f64 / self.sent as f64
    }

    pub fn failed_frac(&self) -> f64 {
        (self.rejected + self.failed) as f64 / self.sent as f64
    }

    pub fn throughput_tok_s(&self) -> f64 {
        self.served_tokens as f64 / self.makespan_s
    }

    pub fn goodput_tok_s(&self) -> f64 {
        self.good_tokens as f64 / self.makespan_s
    }
}

/// Scores `report` against the `trace` it served.
///
/// # Errors
///
/// See [`score`].
pub fn evaluate(trace: &Trace, report: &EngineReport, slo: &ClassSlo) -> Result<Serving, String> {
    let failed: Vec<u64> = report.failed().iter().map(|f| f.request_id).collect();
    score(trace, report.records(), report.rejected(), &failed, report.makespan().as_secs(), slo)
}

/// Scores the outcomes of the requests in `trace`.
///
/// # Errors
///
/// Fails the output check when a request of the trace is neither
/// completed, rejected nor terminally failed, when one has two outcomes,
/// or when an outcome names a request the trace never sent.
pub fn score(
    trace: &Trace,
    records: &[RequestRecord],
    rejected: &[u64],
    failed: &[u64],
    makespan_s: f64,
    slo: &ClassSlo,
) -> Result<Serving, String> {
    let requests = trace.requests();
    // Trace ids are 0..n in arrival order (`Trace::new`).
    let mut outcome: Vec<Option<&str>> = vec![None; requests.len()];
    let mut mark = |id: u64, what: &'static str| -> Result<(), String> {
        let slot = usize::try_from(id)
            .ok()
            .and_then(|i| outcome.get_mut(i))
            .ok_or_else(|| format!("request {id} has an outcome but was never sent"))?;
        if let Some(before) = slot.replace(what) {
            return Err(format!("request {id} is both {before} and {what}"));
        }
        Ok(())
    };
    for r in records {
        mark(r.request_id, "completed")?;
    }
    for &id in rejected {
        mark(id, "rejected")?;
    }
    for &id in failed {
        mark(id, "failed")?;
    }
    if let Some(lost) = outcome.iter().position(Option::is_none) {
        return Err(format!("request {lost} was sent but never completed, rejected or failed"));
    }

    let mut s = Serving {
        sent: requests.len() as u64,
        completed: records.len() as u64,
        rejected: rejected.len() as u64,
        failed: failed.len() as u64,
        slo_met: 0,
        served_tokens: 0,
        good_tokens: 0,
        makespan_s,
        ttft: Quantiles::new(),
        tpot: Quantiles::new(),
    };
    for r in records {
        let due = requests[r.request_id as usize].arrival;
        let ttft = r.first_token.since(due);
        let tpot = r.tpot();
        let target = slo.target_for(r.class);
        s.ttft.record(ttft.as_secs());
        if r.output_tokens > 1 {
            s.tpot.record(tpot.as_secs());
        }
        s.served_tokens += r.total_tokens();
        if ttft <= target.ttft && tpot <= target.tpot {
            s.slo_met += 1;
            s.good_tokens += r.total_tokens();
        }
    }
    Ok(s)
}

/// FNV-1a, 64-bit: a stable hash that does not depend on the toolchain.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Canonical digest of a report: every request record (bit-exact times),
/// the rejected and failed requests, the iteration count and the per-
/// configuration iteration counts, each in a fixed order. Two runs of
/// the same workload and seed must produce the same digest whether or
/// not their calls were timed.
pub fn digest(report: &EngineReport) -> u64 {
    let mut h = Fnv::new();
    let mut records: Vec<_> = report.records().to_vec();
    records.sort_by_key(|r| r.request_id);
    h.u64(records.len() as u64);
    for r in &records {
        h.u64(r.request_id);
        h.u64(u64::from(r.class == RequestClass::Batch));
        h.u64(r.arrival.as_secs().to_bits());
        h.u64(r.first_token.as_secs().to_bits());
        h.u64(r.finish.as_secs().to_bits());
        h.u64(u64::from(r.input_tokens));
        h.u64(u64::from(r.output_tokens));
    }
    let mut rejected = report.rejected().to_vec();
    rejected.sort_unstable();
    h.u64(rejected.len() as u64);
    rejected.iter().for_each(|&id| h.u64(id));
    let mut failed: Vec<(u64, u32)> =
        report.failed().iter().map(|f| (f.request_id, f.attempts)).collect();
    failed.sort_unstable();
    h.u64(failed.len() as u64);
    for (id, attempts) in failed {
        h.u64(id);
        h.u64(u64::from(attempts));
    }
    h.u64(report.iterations());
    let mut usage: Vec<_> = report.config_usage().iter().map(|(c, &n)| (*c, n)).collect();
    usage.sort_unstable();
    for (config, n) in usage {
        h.u64(config.sp() as u64);
        h.u64(config.tp() as u64);
        h.u64(n);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_metrics::{ClassSloReport, Dur, SimTime};
    use sp_workload::Request;

    fn request(id: u64, at: f64) -> Request {
        Request {
            id,
            arrival: SimTime::from_secs(at),
            input_tokens: 100,
            output_tokens: 11,
            class: RequestClass::Interactive,
            cached_prefix: 0,
            prefix_group: None,
        }
    }

    fn record(id: u64, at: f64, ttft: f64, tpot: f64) -> RequestRecord {
        let first = SimTime::from_secs(at + ttft);
        RequestRecord {
            request_id: id,
            class: RequestClass::Interactive,
            arrival: SimTime::from_secs(at),
            first_token: first,
            finish: first + Dur::from_secs(tpot * 10.0),
            input_tokens: 100,
            output_tokens: 11,
        }
    }

    /// Four requests sent: one meets the interactive target, one misses
    /// it on TTFT, one is rejected, one fails. Attainment over requests
    /// sent is 1/4; `ClassSloReport::evaluate`, which sees completed
    /// records only, would claim 1/2.
    #[test]
    fn rejected_and_failed_requests_count_as_slo_misses() {
        let trace = Trace::new((0..4).map(|i| request(i, i as f64)).collect());
        let records = [record(0, 0.0, 0.2, 0.02), record(1, 1.0, 3.0, 0.02)];
        let slo = ClassSlo::default();

        let completed_only = ClassSloReport::evaluate(&records, &slo).overall();
        assert_eq!(completed_only.attainment(), 0.5);

        let s = score(&trace, &records, &[2], &[3], 4.0, &slo).unwrap();
        assert_eq!((s.sent, s.completed, s.slo_met), (4, 2, 1));
        assert_eq!(s.slo_attainment(), 0.25);
        assert_eq!(s.failed_frac(), 0.5);
        assert_eq!(s.good_tokens * 2, s.served_tokens);
    }

    #[test]
    fn a_lost_request_fails_the_output_check() {
        let trace = Trace::new((0..3).map(|i| request(i, i as f64)).collect());
        let records = [record(0, 0.0, 0.2, 0.02)];
        let err = score(&trace, &records, &[2], &[], 3.0, &ClassSlo::default()).unwrap_err();
        assert!(err.contains("request 1"), "{err}");
    }

    #[test]
    fn a_request_with_two_outcomes_fails_the_output_check() {
        let trace = Trace::new((0..2).map(|i| request(i, i as f64)).collect());
        let records = [record(0, 0.0, 0.2, 0.02), record(1, 1.0, 0.2, 0.02)];
        let err = score(&trace, &records, &[1], &[], 2.0, &ClassSlo::default()).unwrap_err();
        assert!(err.contains("both completed and rejected"), "{err}");
    }

    #[test]
    fn ttft_counts_from_the_due_arrival() {
        // A redelivered request's record may carry a later arrival; the
        // user waited from the trace's arrival.
        let trace = Trace::new(vec![request(0, 0.0)]);
        let mut r = record(0, 0.0, 0.5, 0.02);
        r.arrival = SimTime::from_secs(0.4);
        let mut s = score(&trace, &[r], &[], &[], 1.0, &ClassSlo::default()).unwrap();
        assert!((s.ttft.median().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn digest_repeats_for_a_rerun_and_sees_a_changed_request() {
        use sp_cluster::NodeSpec;
        use sp_engine::{Engine, EngineConfig};
        use sp_parallel::{ExecutionModel, ParallelConfig, StaticPolicy};
        use sp_workload::synthetic;

        let run = |trace: &Trace| {
            let exec =
                ExecutionModel::new(NodeSpec::p5en_48xlarge(), sp_model::presets::qwen_32b());
            let policy = StaticPolicy::new("TP", ParallelConfig::tensor(8));
            Engine::new(exec, Box::new(policy), EngineConfig::default()).run(trace)
        };
        let trace = synthetic::poisson(16, 8.0, 512, 16, 3);
        let a = digest(&run(&trace));
        assert_eq!(a, digest(&run(&trace)));
        let mut longer = trace.requests().to_vec();
        longer[5].output_tokens += 1;
        assert_ne!(a, digest(&run(&Trace::with_ids(longer))));
    }
}
