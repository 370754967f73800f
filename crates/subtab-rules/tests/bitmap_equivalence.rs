//! Equivalence suite for the rule miner on all six planted evaluation
//! datasets.
//!
//! * The vertical bitmap engine's frequent levels (itemsets, counts,
//!   order) are pinned identical to the level-wise Apriori oracle in
//!   `apriori_oracle`, on the whole table and on every target partition,
//!   at thread counts {1, 2, 4}; rule generation is one shared function
//!   over those levels.
//! * Every pooled target rule's global support count is pinned to the
//!   oracle's row-scan count.
//! * `tests/golden/rules_ref.txt` pins the mined rule sets end to end
//!   (partitioning, target push, dedup, global recount, `max_rules` cap),
//!   plain and target-partitioned, at thread counts {1, 2, 4}.

mod apriori_oracle;

use subtab_binning::{BinnedTable, Binner, BinningConfig};
use subtab_datasets::{benchmark_target_column, DatasetKind, DatasetSize};
use subtab_rules::bitmap::{frequent_itemsets_bitmap, VerticalIndex};
use subtab_rules::{ItemInterner, MiningConfig, RuleMiner, RuleSet};

const KINDS: [DatasetKind; 6] = [
    DatasetKind::Flights,
    DatasetKind::Cyber,
    DatasetKind::Spotify,
    DatasetKind::CreditCard,
    DatasetKind::UsFunds,
    DatasetKind::BankLoans,
];

/// Mining parameters per dataset: wide schemas (US funds has 298 columns)
/// get a higher support floor so the Apriori oracle's per-candidate row scans
/// stay affordable under the debug test profile. Equivalence must hold at
/// *any* parameters; these only bound oracle runtime.
fn config_for(kind: DatasetKind) -> MiningConfig {
    match kind {
        DatasetKind::UsFunds => MiningConfig {
            min_support: 0.2,
            max_rule_size: 3,
            ..Default::default()
        },
        _ => MiningConfig {
            min_support: 0.2,
            ..Default::default()
        },
    }
}

fn binned_for(kind: DatasetKind) -> (BinnedTable, usize) {
    let dataset = kind.build(DatasetSize::Tiny, 5);
    let binner = Binner::fit(&dataset.table, &BinningConfig::default()).expect("binning fits");
    let binned = binner.apply(&dataset.table).expect("binning applies");
    let target = benchmark_target_column(&dataset.table);
    let target_idx = binned.column_index(&target).expect("target column exists");
    (binned, target_idx)
}

/// The row lists of every non-empty bin of `column`, in bin order — the
/// partitions target mining splits the table into.
fn partitions(binned: &BinnedTable, column: usize) -> Vec<Vec<usize>> {
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); binned.num_bins(column)];
    for (r, &code) in binned.codes(column).iter().enumerate() {
        bins[code as usize].push(r);
    }
    bins.retain(|rows| !rows.is_empty());
    bins
}

/// Asserts the bitmap engine's frequent levels equal the oracle's over
/// `rows` at every thread count; returns the number of itemsets compared.
fn assert_levels_pinned(
    label: &str,
    binned: &BinnedTable,
    cfg: &MiningConfig,
    rows: Option<&[usize]>,
) -> usize {
    let interner = ItemInterner::from_binned(binned);
    let oracle = apriori_oracle::frequent_itemsets(
        binned,
        &interner,
        cfg.min_support,
        cfg.max_rule_size,
        rows,
    );
    for threads in [1, 2, 4] {
        let got = frequent_itemsets_bitmap(
            binned,
            &interner,
            cfg.min_support,
            cfg.max_rule_size,
            rows,
            threads,
        );
        assert_eq!(got, oracle, "{label} t{threads}: frequent levels diverge");
    }
    oracle.iter().map(Vec::len).sum()
}

#[test]
fn plain_mining_is_pinned_to_the_apriori_twin_on_all_datasets() {
    for kind in KINDS {
        let (binned, _) = binned_for(kind);
        let cfg = config_for(kind);
        let itemsets = assert_levels_pinned(&format!("{kind:?} plain"), &binned, &cfg, None);
        assert!(
            itemsets > 0,
            "{kind:?}: planted data must produce itemsets for the comparison to mean anything"
        );
        assert!(
            !RuleMiner::new(cfg).mine(&binned).is_empty(),
            "{kind:?}: planted data must produce rules"
        );
    }
}

#[test]
fn target_mining_is_pinned_to_the_apriori_twin_on_all_datasets() {
    for kind in KINDS {
        let (binned, target) = binned_for(kind);
        let cfg = config_for(kind);
        for (bin, rows) in partitions(&binned, target).iter().enumerate() {
            assert_levels_pinned(
                &format!("{kind:?} target bin {bin}"),
                &binned,
                &cfg,
                Some(rows),
            );
        }
        // The pooled rules' global recount: bitmap AND vs row scan.
        let rules = RuleMiner::new(cfg).mine_with_targets(&binned, &[target]);
        let interner = rules.interner();
        let vertical = VerticalIndex::build(&binned, interner, None);
        let all_rows: Vec<usize> = (0..binned.num_rows()).collect();
        for (i, rule) in rules.iter().enumerate() {
            let items = rule.item_ids();
            let want = apriori_oracle::support_count(&binned, interner, items, &all_rows);
            assert_eq!(
                vertical.support_count(items),
                want,
                "{kind:?}: rule {i} support count"
            );
            assert_eq!(rule.support_count, want, "{kind:?}: rule {i} pooled count");
        }
    }
}

const RULES_FIXTURE: &str = include_str!("golden/rules_ref.txt");

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over every rule in order: antecedent and consequent ids (each
/// prefixed by its length), the support count and the bits of support,
/// confidence and lift.
fn rules_digest(rules: &RuleSet) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for r in rules.iter() {
        for side in [r.antecedent(), r.consequent()] {
            h = fnv1a(h, &(side.len() as u64).to_le_bytes());
            for id in side {
                h = fnv1a(h, &id.to_le_bytes());
            }
        }
        h = fnv1a(h, &(r.support_count as u64).to_le_bytes());
        h = fnv1a(h, &r.support.to_bits().to_le_bytes());
        h = fnv1a(h, &r.confidence.to_bits().to_le_bytes());
        h = fnv1a(h, &r.lift.to_bits().to_le_bytes());
    }
    h
}

/// `(name, config)` of the two pinned settings: the dataset's uncapped
/// config, and a `max_rules` cap that bites on the planted data.
fn pinned_configs(kind: DatasetKind) -> [(&'static str, MiningConfig); 2] {
    [
        ("uncapped", config_for(kind)),
        (
            "capped",
            MiningConfig {
                max_rules: 10,
                min_rule_size: 2,
                ..config_for(kind)
            },
        ),
    ]
}

/// `<dataset> <plain|target> <uncapped|capped> <rule count> <digest>` lines,
/// mined by `mine` (plain) or `mine_with_targets` at the benchmark target
/// column (target) on `threads` workers.
fn rules_entries(threads: usize) -> Vec<String> {
    let mut lines = Vec::new();
    for kind in KINDS {
        let (binned, target) = binned_for(kind);
        for (cap, cfg) in pinned_configs(kind) {
            let miner = RuleMiner::new(cfg.with_threads(threads));
            for (mode, rules) in [
                ("plain", miner.mine(&binned)),
                ("target", miner.mine_with_targets(&binned, &[target])),
            ] {
                lines.push(format!(
                    "{kind:?} {mode} {cap} {} {:016x}",
                    rules.len(),
                    rules_digest(&rules)
                ));
            }
        }
    }
    lines
}

#[test]
fn mined_rules_match_the_fixture() {
    let want: Vec<&str> = RULES_FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect();
    for threads in [1, 2, 4] {
        let got = rules_entries(threads);
        assert_eq!(got.len(), want.len(), "fixture line count");
        for (got, want) in got.iter().zip(&want) {
            assert_eq!(got, want, "mined rules drifted at threads = {threads}");
        }
    }
}

#[test]
#[ignore = "regenerates tests/golden/rules_ref.txt"]
fn regenerate_rules_ref() {
    let lines = rules_entries(1);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/rules_ref.txt");
    let mut out = vec![
        "# <dataset> <plain|target> <uncapped|capped> <rule count> <FNV-1a 64 of the rules>"
            .to_owned(),
    ];
    out.extend(lines);
    std::fs::write(path, out.join("\n") + "\n").unwrap();
}
