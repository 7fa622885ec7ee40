//! A lock-order cycle that crosses a crate boundary, which no reading of
//! one crate at a time can see: this crate holds its `config` lock while
//! it calls into `drai_provenance` (the ledger takes its own lock), and
//! elsewhere the ledger, holding its lock, drains a params iterator this
//! crate handed it, which takes `config`. Each function takes one lock
//! of its own crate. In a debug build (every `cargo test`) the
//! `parking_lot` shim records both orders as they run and panics on the
//! second, naming the sites on both sides.

#![cfg(debug_assertions)]

use drai_provenance::Ledger;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};

type Params = Vec<(String, String)>;

/// Record `op` with the params as they are now, holding `config` across
/// the call: `config`, then the ledger's lock.
fn record_holding(ledger: &Ledger, config: &Mutex<Params>, op: &str) {
    let params = config.lock();
    ledger.record(op, params.iter().cloned(), vec![], vec![]);
}

/// Record `op` with params read lazily, while the ledger drains them
/// under its lock: the ledger's lock, then `config`.
fn record_lazily(ledger: &Ledger, config: &Mutex<Params>, op: &str) {
    let params = std::iter::once(()).flat_map(|()| config.lock().clone());
    ledger.record(op, params, vec![], vec![]);
}

#[test]
fn a_cycle_through_another_crate_panics_naming_both_sides() {
    let config = Mutex::new(vec![("seed".to_string(), "7".to_string())]);
    let built = format!("{}:{}:", file!(), line!() - 1);
    let ledger = Ledger::new();
    record_holding(&ledger, &config, "ingest");
    let panic = catch_unwind(AssertUnwindSafe(|| {
        record_lazily(&ledger, &config, "regrid")
    }))
    .expect_err("the reverse order must panic");
    let msg = panic.downcast_ref::<String>().expect("a formatted message");
    assert!(msg.starts_with("lock order cycle"), "{msg}");
    // This crate's lock, by construction site, with both of its
    // acquisitions (one per function above) ...
    assert!(msg.contains(&built), "{msg}");
    let here = |f: &str| {
        let src = include_str!("lock_order.rs");
        let line = src.lines().position(|l| l.contains(f)).expect("site") + 1;
        format!("{}:{line}:", file!())
    };
    assert!(msg.contains(&here("let params = config.lock();")), "{msg}");
    assert!(msg.contains(&here("flat_map(|()| config.lock()")), "{msg}");
    // ... and the ledger's, taken inside the other crate, on both sides.
    assert_eq!(
        msg.matches("crates/provenance/src/lib.rs:").count(),
        4,
        "{msg}"
    );
    // The first order was recorded once and still runs.
    record_holding(&ledger, &config, "normalize");
    assert_eq!(ledger.len(), 2);
}
