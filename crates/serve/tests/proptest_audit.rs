//! Audit-journal replay correctness under concurrency.
//!
//! The tentpole invariant of the audit tier: for every tenant, folding the
//! journaled `budget_charge` / `budget_refusal` events MUST reconstruct the
//! live [`BudgetLedger`] accountant **bit-for-bit** — same quota, same spent
//! ε down to the `f64` bit pattern (the replay applies grants in journal
//! order with the same `+=`, and the journal is written under the same
//! per-tenant lock as the accountant, so the orders agree), same charge and
//! refusal counts. Property-tested here under arbitrary concurrent
//! interleavings of racing spends across many tenants, with quotas sized so
//! refusals genuinely happen.

use ccdp_obs::{replay_tenant, AuditJournal, AuditKind};
use ccdp_serve::{BudgetLedger, ServeError, TenantId};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Racing spends + refusals across many tenants always leave a journal
    /// whose per-tenant replay equals the live ledger snapshot exactly.
    #[test]
    fn concurrent_spends_replay_to_the_exact_ledger_state(
        tenants in 1usize..6,
        threads in 2usize..8,
        spends_per_thread in 1usize..14,
        quota_tenths in 3u64..40,        // quota ε in [0.3, 4.0)
        spend_milli in 50u64..900,       // per-spend ε in [0.05, 0.9)
    ) {
        let ledger = Arc::new(BudgetLedger::new());
        let journal = Arc::new(AuditJournal::with_capacity(1 << 12));
        ledger.set_journal(Arc::clone(&journal));
        let names: Vec<String> = (0..tenants).map(|t| format!("tenant-{t}")).collect();
        for name in &names {
            ledger.register(name.as_str(), quota_tenths as f64 / 10.0).unwrap();
        }
        let eps = spend_milli as f64 / 1000.0;

        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let ledger = Arc::clone(&ledger);
                let barrier = Arc::clone(&barrier);
                let names = names.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..spends_per_thread {
                        // Every worker walks the tenants at its own offset, so
                        // each tenant sees genuinely racing spends.
                        let tenant = TenantId::new(&names[(worker + i) % names.len()]);
                        let stage = format!("g{}@{}", i % 3, worker);
                        match ledger.try_spend(&tenant, &stage, eps) {
                            Ok(_) | Err(ServeError::BudgetExhausted { .. }) => {}
                            Err(other) => panic!("unexpected ledger error: {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // Nothing fell off the ring (it comfortably out-sizes the workload);
        // replay equality is only claimable over a complete journal.
        prop_assert_eq!(journal.dropped(), 0);

        // The ledger's own bitwise verifier accepts its journal...
        let verified = ledger.verify_replay(&journal);
        prop_assert_eq!(verified, Ok(tenants));

        // ...and so does an independent per-tenant fold.
        for name in &names {
            let live = ledger.account_view(&TenantId::new(name)).unwrap();
            let events = journal.events_for_tenant(name);
            let replay = replay_tenant(name, &events);
            prop_assert_eq!(
                replay.quota_epsilon.to_bits(), live.quota_epsilon.to_bits(),
                "{}: replayed quota {} != live {}", name, replay.quota_epsilon, live.quota_epsilon
            );
            prop_assert_eq!(
                replay.spent_epsilon.to_bits(), live.spent_epsilon.to_bits(),
                "{}: replayed spend {} != live {}", name, replay.spent_epsilon, live.spent_epsilon
            );
            prop_assert_eq!(replay.charges, live.grants as u64);
            prop_assert_eq!(replay.refusals, live.refusals);

            // The journal is an ordered history: sequence numbers per tenant
            // are strictly increasing, and every charge was actually funded.
            let mut last_seq = None;
            for event in &events {
                prop_assert!(last_seq.is_none_or(|s| event.seq > s));
                last_seq = Some(event.seq);
                if event.kind == AuditKind::BudgetCharge {
                    prop_assert!(event.epsilon_granted > 0.0);
                }
            }
        }
    }

    /// Attaching the journal mid-flight (after traffic) checkpoints the
    /// existing accounts, so replay equality holds from any attach point.
    #[test]
    fn mid_flight_journal_attach_checkpoints_and_stays_replayable(
        pre_spends in 0usize..8,
        post_spends in 0usize..8,
    ) {
        let ledger = Arc::new(BudgetLedger::new());
        ledger.register("acme", 3.0).unwrap();
        let acme = TenantId::new("acme");
        for i in 0..pre_spends {
            let _ = ledger.try_spend(&acme, &format!("pre{i}"), 0.4);
        }
        let journal = Arc::new(AuditJournal::with_capacity(256));
        ledger.set_journal(Arc::clone(&journal));
        for i in 0..post_spends {
            let _ = ledger.try_spend(&acme, &format!("post{i}"), 0.4);
        }
        prop_assert_eq!(ledger.verify_replay(&journal), Ok(1));
    }
}
