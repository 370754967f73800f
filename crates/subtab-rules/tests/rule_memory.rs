//! Heap cost of a mined rule set and of the coverage index built over it.
//!
//! A [`subtab_rules::RuleSet`] is one arena: a flat item-id array, a flat
//! column-mask array and one fixed-size record per rule, so a returned
//! rule costs a few dozen bytes and the miner allocates per growth step of
//! the arena, not per rule. `Evaluator::new` builds every rule's matching
//! rows as ANDs of per-item bitmaps into flat word arrays, so its
//! allocation count depends on the table, not on the number of rules.
//!
//! The counting allocator is this test binary's own `#[global_allocator]`,
//! so it measures nothing else; the binary holds this one test, so no other
//! test allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use subtab_binning::{BinnedTable, Binner, BinningConfig};
use subtab_datasets::{benchmark_target_column, DatasetKind, DatasetSize};
use subtab_metrics::Evaluator;
use subtab_rules::{MiningConfig, RuleMiner};

/// The system allocator, counting live bytes and allocation calls.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live bytes a returned rule may keep: ids, mask words and one record
/// come to about 60 bytes on a table of at most 64 columns.
const MAX_BYTES_PER_RULE: usize = 96;

/// Allocation calls `mine_with_targets` may make per returned rule (the
/// frequent-itemset walk included).
const MAX_CALLS_PER_RULE: f64 = 2.0;

/// Live-byte growth and allocation calls of `f`, with its result.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (live, calls) = (LIVE.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed));
    let out = f();
    let grown = LIVE.load(Ordering::Relaxed).saturating_sub(live);
    (out, grown, CALLS.load(Ordering::Relaxed) - calls)
}

/// The 5 000-row flights stand-in and two target columns, which pool
/// several thousand rules at the thresholds below.
fn flights() -> (BinnedTable, Vec<usize>) {
    let dataset = DatasetKind::Flights.build(DatasetSize::Small, 5);
    let binner = Binner::fit(&dataset.table, &BinningConfig::default()).unwrap();
    let binned = binner.apply(&dataset.table).unwrap();
    let targets = [benchmark_target_column(&dataset.table).as_str(), "MONTH"]
        .map(|name| binned.column_index(name).unwrap())
        .to_vec();
    (binned, targets)
}

#[test]
fn rule_sets_are_packed_and_coverage_allocates_per_table_not_per_rule() {
    let (binned, targets) = flights();
    assert!(binned.num_columns() <= 64, "one mask word per rule");
    let config = MiningConfig {
        min_support: 0.2,
        max_rule_size: 3,
        ..Default::default()
    };

    let (rules, bytes, calls) =
        measure(|| RuleMiner::new(config.clone()).mine_with_targets(&binned, &targets));
    let n = rules.len();
    assert!(n >= 1_000, "the planted table must yield many rules ({n})");
    eprintln!(
        "mine_with_targets: {n} rules, {:.1} live bytes and {:.2} allocations per rule",
        bytes as f64 / n as f64,
        calls as f64 / n as f64
    );
    assert!(
        bytes <= MAX_BYTES_PER_RULE * n,
        "{n} rules keep {bytes} live bytes ({:.1} per rule, at most {MAX_BYTES_PER_RULE})",
        bytes as f64 / n as f64
    );
    assert!(
        (calls as f64) < MAX_CALLS_PER_RULE * n as f64,
        "mining {n} rules made {calls} allocations ({:.2} per rule, fewer than \
         {MAX_CALLS_PER_RULE} allowed)",
        calls as f64 / n as f64
    );

    // The same table against a small and a large rule set: the coverage
    // build allocates the same number of times.
    let few = RuleMiner::new(MiningConfig {
        max_rules: 50,
        ..config
    })
    .mine_with_targets(&binned, &targets);
    let mut counts = Vec::new();
    for set in [&few, &rules] {
        let table = binned.clone();
        let (evaluator, _, calls) = measure(|| Evaluator::new(table, set, 0.5));
        assert_eq!(evaluator.coverage_index().num_rules(), set.len());
        counts.push(calls);
    }
    eprintln!(
        "Evaluator::new: {counts:?} allocations for {} and {n} rules",
        few.len()
    );
    assert_eq!(
        counts[0],
        counts[1],
        "Evaluator::new allocated {} times for {} rules and {} times for {n}",
        counts[0],
        few.len(),
        counts[1]
    );
}
