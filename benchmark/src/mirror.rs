//! The in-process reference: the plan's requests pushed straight through
//! `tempo_serve::Domain::{ingest, advance}` with the clock readings the
//! daemon takes. The correctness check compares the daemon's decision
//! records with these, bit for bit.

use crate::gen::{Plan, Step};
use bytes::BytesMut;
use std::collections::BTreeMap;
use tempo_serve::codec;
use tempo_serve::proto::Request;
use tempo_serve::{DecisionRecord, Domain, DomainSpec};
use tempo_workload::time::Time;

pub struct Mirror<'a> {
    specs: &'a [DomainSpec],
    domains: BTreeMap<u64, Domain>,
    now: Time,
}

impl<'a> Mirror<'a> {
    pub fn new(specs: &'a [DomainSpec]) -> Self {
        Mirror { specs, domains: BTreeMap::new(), now: 0 }
    }

    /// Builds the domain now, so that a timed caller does not pay for
    /// `Domain::new` inside its first operation on it.
    pub fn ensure(&mut self, id: u64) {
        self.domain(id);
    }

    fn domain(&mut self, id: u64) -> &mut Domain {
        let specs = self.specs;
        self.domains.entry(id).or_insert_with(|| {
            Domain::new(specs[id as usize].clone()).expect("generated spec is valid")
        })
    }

    /// Forgets a domain whose checked prefix is complete.
    pub fn drop_domain(&mut self, id: u64) {
        self.domains.remove(&id);
    }

    /// Applies one step; a decision step returns its record.
    pub fn apply(&mut self, step: &Step) -> Option<DecisionRecord> {
        self.apply_request(step.request.clone())
    }

    /// [`Mirror::apply`] on an owned request, so a timed caller can keep the
    /// clone of the jobs outside its measurement.
    pub fn apply_request(&mut self, request: Request) -> Option<DecisionRecord> {
        let now = self.now;
        match request {
            Request::Tick { micros } => {
                self.now += micros;
                None
            }
            Request::IngestAdvance { domain, jobs, .. } => {
                let d = self.domain(domain);
                d.ingest(now, jobs);
                Some(d.advance(now))
            }
            Request::Ingest { domain, jobs } => {
                self.domain(domain).ingest(now, jobs);
                None
            }
            _ => None,
        }
    }
}

/// The exact bytes of a record, so that `-0.0`, NaN payloads and the last
/// bit of every float take part in the comparison.
pub fn record_bits(record: &DecisionRecord) -> Vec<u8> {
    let mut buf = BytesMut::new();
    codec::encode_binary(record, &mut buf);
    buf.as_slice().to_vec()
}

/// Reference records of the fixed prefix, in stream order: for every
/// decision step (index into warm-up followed by measured) that falls inside
/// its domain's prefix, the record the daemon must return.
pub fn reference_prefix(plan: &Plan) -> Vec<(usize, DecisionRecord)> {
    let mut mirror = Mirror::new(&plan.specs);
    let mut done: BTreeMap<u64, u64> = BTreeMap::new();
    let mut out = Vec::new();
    for (index, step) in plan.warmup.iter().chain(&plan.measured).enumerate() {
        if let Some(domain) = step.domain() {
            if done.get(&domain).copied().unwrap_or(0) >= plan.prefix_len(domain) {
                continue;
            }
        }
        if let Some(record) = mirror.apply(step) {
            let domain = step.domain().expect("decision steps target a domain");
            let count = done.entry(domain).or_insert(0);
            *count += 1;
            if *count >= plan.prefix_len(domain) {
                mirror.drop_domain(domain);
            }
            out.push((index, record));
        }
    }
    out
}

/// Compares the daemon's records (by step index) with the reference.
/// Returns how many records were compared, or the first mismatch.
pub fn check_prefix(
    reference: &[(usize, DecisionRecord)],
    daemon: &BTreeMap<usize, DecisionRecord>,
) -> Result<u64, String> {
    for (index, expected) in reference {
        let Some(got) = daemon.get(index) else {
            return Err(format!("step {index}: the daemon returned no decision record"));
        };
        if record_bits(got) != record_bits(expected) {
            return Err(format!(
                "step {index}: daemon record differs from the reference\n  daemon:    {got:?}\n  reference: {expected:?}"
            ));
        }
    }
    Ok(reference.len() as u64)
}

/// The paper's two outcomes, accumulated over decision records.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Outcome {
    pairs: u64,
    met: u64,
    ajr_sum: f64,
    ajr_n: u64,
}

impl Outcome {
    pub fn add<'r>(
        &mut self,
        specs: &[DomainSpec],
        records: impl Iterator<Item = (u64, &'r DecisionRecord)>,
    ) {
        for (domain, record) in records {
            if record.skipped {
                continue;
            }
            let slos = &specs[domain as usize].slos;
            for (qs, slo) in record.observed_qs.iter().zip(&slos.slos) {
                match slo.weighted_threshold() {
                    Some(bound) => {
                        self.pairs += 1;
                        self.met += u64::from(*qs <= bound);
                    }
                    None if matches!(slo.kind, tempo_qs::QsKind::AvgResponseTime) => {
                        self.ajr_sum += qs;
                        self.ajr_n += 1;
                    }
                    None => {}
                }
            }
        }
    }

    /// Share of (decision, SLO with a bound) pairs whose observed QS meets
    /// the bound.
    pub fn slo_attainment_share(&self) -> f64 {
        self.met as f64 / self.pairs.max(1) as f64
    }

    /// Mean `AvgResponseTime` QS of the tenants without a bound, in seconds.
    pub fn best_effort_ajr_s(&self) -> f64 {
        self.ajr_sum / self.ajr_n.max(1) as f64
    }
}
