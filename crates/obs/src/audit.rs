//! The append-only privacy-budget audit journal.
//!
//! Metrics (how many, how fast) and traces (what happened inside one
//! request) cannot answer the question an auditor or a tenant asks of a
//! differential-privacy service: *where did my ε go, who authorized each
//! spend, and am I on pace to exhaust my quota?* This module is the
//! authoritative record for that question: a typed [`AuditEvent`] stream
//! recorded at every budget decision point, landing in a bounded
//! [`AuditJournal`] ring with an optional JSONL file sink.
//!
//! The contract that makes the journal more than a log: **replaying one
//! tenant's events reconstructs their budget accountant exactly** —
//! [`replay_tenant`] folds the events in sequence order with the same
//! float operations (`spent += granted`, one stage entry per charge) the
//! live `PrivacyBudget` applies, so the replayed spent total, utilization,
//! per-stage ledger and refusal count are bit-for-bit equal to the live
//! snapshot. That property is what makes the journal the seed for
//! multi-node budget replication: ship the events, fold them, and the
//! replica's accountant *is* the primary's.
//!
//! The journal is always on: there is no switch that lets a budget
//! decision go unrecorded. Hot-path contract: a recording claims a
//! sequence number with one `fetch_add` and takes one uncontended
//! per-slot mutex (events carry heap strings, so slots cannot be
//! seqlocked); writers only contend when the ring wraps onto a slot
//! another writer holds, and the journal never back-pressures the
//! pipeline — overwritten events are counted in [`AuditJournal::dropped`],
//! not waited for.
//!
//! Per-tenant event order is the caller's responsibility: the budget
//! ledger records under its per-tenant lock, so one tenant's events carry
//! strictly increasing sequence numbers in spend order (asserted by the
//! serve tier's replay property tests).

use crate::trace::TraceId;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default journal capacity (events retained before wrap-around).
pub const DEFAULT_AUDIT_CAPACITY: usize = 1 << 14;

/// The closed vocabulary of auditable decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditKind {
    /// A tenant account was created; `epsilon_requested` carries the quota.
    TenantRegistered,
    /// A budget check-and-spend succeeded; `epsilon_granted` was charged.
    BudgetCharge,
    /// A budget check-and-spend was refused (quota could not fund it).
    BudgetRefusal,
    /// A graph snapshot version was published to the registry.
    ReleasePublished,
    /// A release scheduler policy fired for a stream.
    SchedulerFire,
    /// Superseded cache entries were invalidated.
    CacheInvalidation,
    /// The serving pool began draining (shutdown).
    Drain,
}

impl AuditKind {
    /// The stable snake_case wire name of this event kind.
    pub fn name(self) -> &'static str {
        match self {
            AuditKind::TenantRegistered => "tenant_registered",
            AuditKind::BudgetCharge => "budget_charge",
            AuditKind::BudgetRefusal => "budget_refusal",
            AuditKind::ReleasePublished => "release_published",
            AuditKind::SchedulerFire => "scheduler_fire",
            AuditKind::CacheInvalidation => "cache_invalidation",
            AuditKind::Drain => "drain",
        }
    }
}

impl std::fmt::Display for AuditKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One auditable decision: who, what, how much ε, and the trace it
/// belongs to.
///
/// Fields that do not apply to a kind are empty strings / zero / `None`
/// (e.g. a [`AuditKind::Drain`] carries no tenant). `seq` and
/// `at_micros` are assigned by [`AuditJournal::record`].
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEvent {
    /// Journal-assigned sequence number (global, strictly increasing).
    pub seq: u64,
    /// Journal-assigned wall-clock microseconds since the Unix epoch.
    pub at_micros: u64,
    /// What happened.
    pub kind: AuditKind,
    /// The tenant the decision concerns (empty when not tenant-scoped).
    pub tenant: String,
    /// The graph id involved (empty when not graph-scoped).
    pub graph: String,
    /// The graph version involved, when versioned.
    pub version: Option<u64>,
    /// The budget stage charged (the accountant's ledger key).
    pub stage: String,
    /// ε asked for (for [`AuditKind::TenantRegistered`]: the quota).
    pub epsilon_requested: f64,
    /// ε actually granted (0 on refusals and non-budget events).
    pub epsilon_granted: f64,
    /// The request trace this decision belongs to, for cross-correlation.
    pub trace: Option<TraceId>,
    /// Free-form human context (refusal reason, policy name).
    pub detail: String,
}

impl AuditEvent {
    /// A blank event of the given kind; fill in the relevant fields.
    pub fn new(kind: AuditKind) -> Self {
        AuditEvent {
            seq: 0,
            at_micros: 0,
            kind,
            tenant: String::new(),
            graph: String::new(),
            version: None,
            stage: String::new(),
            epsilon_requested: 0.0,
            epsilon_granted: 0.0,
            trace: None,
            detail: String::new(),
        }
    }

    /// Builder: the tenant this event concerns.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Builder: the graph (and optionally version) this event concerns.
    pub fn graph(mut self, graph: impl Into<String>, version: Option<u64>) -> Self {
        self.graph = graph.into();
        self.version = version;
        self
    }

    /// Builder: the budget stage charged.
    pub fn stage(mut self, stage: impl Into<String>) -> Self {
        self.stage = stage.into();
        self
    }

    /// Builder: requested and granted ε.
    pub fn epsilon(mut self, requested: f64, granted: f64) -> Self {
        self.epsilon_requested = requested;
        self.epsilon_granted = granted;
        self
    }

    /// Builder: the trace id to cross-correlate with.
    pub fn trace(mut self, trace: Option<TraceId>) -> Self {
        self.trace = trace;
        self
    }

    /// Builder: free-form detail.
    pub fn detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = detail.into();
        self
    }

    /// The event as one JSONL line (no trailing newline).
    ///
    /// ε fields are written with Rust's shortest round-trip float
    /// formatting, so a sink line parses back to the exact bits that were
    /// recorded.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"at_micros\":");
        out.push_str(&self.at_micros.to_string());
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.name());
        out.push_str("\",\"tenant\":\"");
        escape_json_into(&self.tenant, &mut out);
        out.push_str("\",\"graph\":\"");
        escape_json_into(&self.graph, &mut out);
        out.push('"');
        if let Some(version) = self.version {
            out.push_str(",\"version\":");
            out.push_str(&version.to_string());
        }
        out.push_str(",\"stage\":\"");
        escape_json_into(&self.stage, &mut out);
        out.push_str("\",\"epsilon_requested\":");
        out.push_str(&format!("{:?}", self.epsilon_requested));
        out.push_str(",\"epsilon_granted\":");
        out.push_str(&format!("{:?}", self.epsilon_granted));
        if let Some(trace) = self.trace {
            out.push_str(",\"trace\":\"");
            out.push_str(&trace.to_string());
            out.push('"');
        }
        if !self.detail.is_empty() {
            out.push_str(",\"detail\":\"");
            escape_json_into(&self.detail, &mut out);
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// Escapes `s` as JSON string content into `out`: quotes, backslashes, the
/// common short escapes, and other control characters as `\uXXXX`. The one
/// JSON string escaper of the stack: the journal's JSONL lines and the
/// serving tier's `JsonWriter` both call it.
pub fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// The bounded append-only event ring, with an optional JSONL file sink.
///
/// Recording claims a global sequence number and stores the event in slot
/// `seq % capacity`; when the ring wraps, the oldest event is overwritten
/// and counted in [`dropped`](AuditJournal::dropped) — recording never
/// blocks on a reader. The JSONL sink (if set) receives *every* recorded
/// event, including ones the ring later overwrites, so the file is the
/// complete history and the ring is the fast recent window.
pub struct AuditJournal {
    head: AtomicU64,
    slots: Vec<Mutex<Option<AuditEvent>>>,
    sink: Mutex<Option<BufWriter<File>>>,
}

impl AuditJournal {
    /// A journal with [`DEFAULT_AUDIT_CAPACITY`] slots.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_AUDIT_CAPACITY)
    }

    /// A journal retaining at most `capacity` events (min 8).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(8);
        AuditJournal {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            sink: Mutex::new(None),
        }
    }

    /// The ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded over the journal's lifetime.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events overwritten by ring wrap-around (recorded − retained).
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Attaches a JSONL file sink at `path`, creating the file or
    /// appending to it, so re-attaching keeps the lines already written.
    /// Every subsequently recorded event is appended as one JSON line.
    pub fn set_sink_path(&self, path: &str) -> std::io::Result<()> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut sink = self.sink.lock().unwrap_or_else(|p| p.into_inner());
        *sink = Some(BufWriter::new(file));
        Ok(())
    }

    /// Flushes and detaches the JSONL sink, if one is attached.
    pub fn close_sink(&self) {
        let mut sink = self.sink.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(mut writer) = sink.take() {
            let _ = writer.flush();
        }
    }

    /// Records one event, assigning its sequence number and timestamp.
    /// Returns the assigned sequence.
    pub fn record(&self, mut event: AuditEvent) -> u64 {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        event.seq = seq;
        event.at_micros = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        {
            // The sink sees every event, in each writer's claim order; the
            // lock is only held for a buffered line append.
            let mut sink = self.sink.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(writer) = sink.as_mut() {
                let _ = writer.write_all(event.to_jsonl().as_bytes());
                let _ = writer.write_all(b"\n");
            }
        }
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(event);
        seq
    }

    /// Every event currently retained in the ring, in sequence order.
    pub fn snapshot(&self) -> Vec<AuditEvent> {
        let mut events: Vec<AuditEvent> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().unwrap_or_else(|p| p.into_inner()).clone())
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// The retained events concerning one tenant, in sequence order.
    pub fn events_for_tenant(&self, tenant: &str) -> Vec<AuditEvent> {
        let mut events: Vec<AuditEvent> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().unwrap_or_else(|p| p.into_inner()).clone())
            .filter(|e| e.tenant == tenant)
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }
}

impl Default for AuditJournal {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for AuditJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditJournal")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// A tenant's budget accountant as reconstructed from their journal.
///
/// Produced by [`replay_tenant`]; the serve tier compares this against
/// the live ledger snapshot field by field (floats by exact bits).
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetReplay {
    /// The tenant replayed.
    pub tenant: String,
    /// The ε quota, from the [`AuditKind::TenantRegistered`] event.
    pub quota_epsilon: f64,
    /// Total ε granted, folded in sequence order (`spent += granted`).
    pub spent_epsilon: f64,
    /// Number of successful charges.
    pub charges: u64,
    /// Number of budget refusals.
    pub refusals: u64,
    /// One `(stage, ε)` entry per charge, in charge order — the same
    /// shape as `PrivacyBudget::ledger()`.
    pub stages: Vec<(String, f64)>,
}

impl BudgetReplay {
    /// Quota utilization in `[0, 1]`, computed with the same expression
    /// as the live accountant (`(spent / quota).clamp(0, 1)`).
    pub fn utilization(&self) -> f64 {
        if self.quota_epsilon > 0.0 {
            (self.spent_epsilon / self.quota_epsilon).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

/// Folds one tenant's events (must be in sequence order, as returned by
/// [`AuditJournal::events_for_tenant`]) into their reconstructed budget
/// accountant.
///
/// The fold mirrors `PrivacyBudget::spend` float-op for float-op: each
/// charge does `spent += granted` and appends one `(stage, granted)`
/// entry, so the result is bit-for-bit comparable with the live snapshot.
pub fn replay_tenant(tenant: &str, events: &[AuditEvent]) -> BudgetReplay {
    let mut replay = BudgetReplay {
        tenant: tenant.to_string(),
        quota_epsilon: 0.0,
        spent_epsilon: 0.0,
        charges: 0,
        refusals: 0,
        stages: Vec::new(),
    };
    for event in events {
        if event.tenant != tenant {
            continue;
        }
        match event.kind {
            AuditKind::TenantRegistered => replay.quota_epsilon = event.epsilon_requested,
            AuditKind::BudgetCharge => {
                replay.spent_epsilon += event.epsilon_granted;
                replay
                    .stages
                    .push((event.stage.clone(), event.epsilon_granted));
                replay.charges += 1;
            }
            AuditKind::BudgetRefusal => replay.refusals += 1,
            _ => {}
        }
    }
    replay
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charge(tenant: &str, stage: &str, eps: f64) -> AuditEvent {
        AuditEvent::new(AuditKind::BudgetCharge)
            .tenant(tenant)
            .stage(stage)
            .epsilon(eps, eps)
    }

    #[test]
    fn record_assigns_increasing_seqs_and_snapshot_sorts() {
        let journal = AuditJournal::with_capacity(16);
        for i in 0..5 {
            let seq = journal.record(charge("alpha", &format!("s{i}"), 0.1));
            assert_eq!(seq, i as u64);
        }
        let events = journal.snapshot();
        assert_eq!(events.len(), 5);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(journal.recorded(), 5);
        assert_eq!(journal.dropped(), 0);
    }

    #[test]
    fn ring_wrap_counts_drops_and_keeps_newest() {
        let journal = AuditJournal::with_capacity(8);
        for i in 0..20 {
            journal.record(charge("alpha", &format!("s{i}"), 0.1));
        }
        assert_eq!(journal.recorded(), 20);
        assert_eq!(journal.dropped(), 12);
        let events = journal.snapshot();
        assert_eq!(events.len(), 8);
        // The newest 8 sequence numbers survive.
        assert_eq!(events.first().map(|e| e.seq), Some(12));
        assert_eq!(events.last().map(|e| e.seq), Some(19));
    }

    #[test]
    fn replay_folds_charges_refusals_and_quota() {
        let journal = AuditJournal::with_capacity(32);
        journal.record(
            AuditEvent::new(AuditKind::TenantRegistered)
                .tenant("alpha")
                .epsilon(1.0, 0.0),
        );
        journal.record(charge("alpha", "estimate", 0.25));
        journal.record(charge("beta", "estimate", 0.5)); // other tenant: ignored
        journal.record(charge("alpha", "estimate", 0.25));
        journal.record(AuditEvent::new(AuditKind::BudgetRefusal).tenant("alpha"));
        let replay = replay_tenant("alpha", &journal.events_for_tenant("alpha"));
        assert_eq!(replay.quota_epsilon, 1.0);
        assert_eq!(replay.spent_epsilon, 0.25 + 0.25);
        assert_eq!(replay.charges, 2);
        assert_eq!(replay.refusals, 1);
        assert_eq!(
            replay.stages,
            vec![
                ("estimate".to_string(), 0.25),
                ("estimate".to_string(), 0.25)
            ]
        );
        assert_eq!(replay.utilization(), 0.5);
    }

    #[test]
    fn jsonl_line_escapes_and_round_trips_floats() {
        let event = AuditEvent::new(AuditKind::BudgetRefusal)
            .tenant("al\"pha")
            .graph("g\\0", Some(3))
            .stage("estimate")
            .epsilon(1e-12, 0.0)
            .detail("line\nbreak");
        let line = event.to_jsonl();
        assert!(line.contains("\"kind\":\"budget_refusal\""));
        assert!(line.contains("al\\\"pha"));
        assert!(line.contains("g\\\\0"));
        assert!(line.contains("\"version\":3"));
        assert!(line.contains("line\\nbreak"));
        // The ε survives textual round-trip to the exact bits.
        let needle = "\"epsilon_requested\":";
        let start = line.find(needle).unwrap() + needle.len();
        let rest = &line[start..];
        let end = rest.find(',').unwrap();
        let parsed: f64 = rest[..end].parse().unwrap();
        assert_eq!(parsed.to_bits(), 1e-12f64.to_bits());
    }

    #[test]
    fn sink_receives_every_event_even_after_wrap() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ccdp_audit_sink_{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        let journal = AuditJournal::with_capacity(8);
        journal.set_sink_path(&path).expect("temp sink opens");
        for i in 0..20 {
            journal.record(charge("alpha", &format!("s{i}"), 0.1));
        }
        journal.close_sink();
        let contents = std::fs::read_to_string(&path).expect("sink file readable");
        let _ = std::fs::remove_file(&path);
        assert_eq!(contents.lines().count(), 20);
        assert!(contents
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn reattaching_the_sink_appends_to_the_existing_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ccdp_audit_reattach_{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        let journal = AuditJournal::with_capacity(8);
        journal.set_sink_path(&path).expect("temp sink opens");
        for i in 0..3 {
            journal.record(charge("alpha", &format!("first{i}"), 0.1));
        }
        journal.close_sink();
        journal.set_sink_path(&path).expect("temp sink reopens");
        for i in 0..2 {
            journal.record(charge("alpha", &format!("second{i}"), 0.1));
        }
        journal.close_sink();
        let contents = std::fs::read_to_string(&path).expect("sink file readable");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 5);
        let stages = ["first0", "first1", "first2", "second0", "second1"];
        for (line, stage) in lines.iter().zip(stages) {
            assert!(line.contains(&format!("\"stage\":\"{stage}\"")), "{line}");
        }
    }
}
