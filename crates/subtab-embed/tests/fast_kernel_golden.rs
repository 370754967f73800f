//! Pinned bits of the fast SGNS trainer, per kernel tier.
//!
//! `tests/golden/fast_kernel_digests.txt` holds one FNV-1a digest of the
//! trained weights per (kernel tier, planted dataset, mode). Each digest
//! folds one training run per dimensionality in [`DIMS`], so on the AVX-512
//! tier it covers every width of the const-generic `CHUNKS` kernel (16..64)
//! plus the AVX2+FMA (8) and runtime-dimension (24) fallbacks. Kernel
//! rewrites must keep these bits; a deliberate numerics change regenerates
//! the file with
//!
//! ```text
//! cargo test -p subtab-embed --test fast_kernel_golden -- --ignored
//! SUBTAB_FORCE_SCALAR_KERNELS=1 cargo test -p subtab-embed --test fast_kernel_golden -- --ignored
//! ```
//!
//! which rewrites the entries of the tier the process dispatches to and
//! keeps the others. The `Avx2Fma` entries need a machine (or a build)
//! whose dispatch stops at AVX2+FMA; `Scalar` is checked in CI's
//! forced-scalar step.

use subtab_binning::{BinnedTable, Binner, BinningConfig};
use subtab_datasets::{DatasetKind, DatasetSize};
use subtab_embed::{train_embedding, EmbeddingConfig};

const FIXTURE: &str = include_str!("golden/fast_kernel_digests.txt");

const ALL_KINDS: [DatasetKind; 6] = [
    DatasetKind::Flights,
    DatasetKind::Cyber,
    DatasetKind::Spotify,
    DatasetKind::CreditCard,
    DatasetKind::UsFunds,
    DatasetKind::BankLoans,
];

/// Dimensionalities folded into each digest.
const DIMS: [usize; 6] = [8, 16, 24, 32, 48, 64];

/// `(name, threads, deterministic)`: the two-shard replica-averaging mode
/// and the single-thread fast mode, its one-shard case. Both run the fast
/// kernels, so their bits differ per tier.
const MODES: [(&str, usize, bool); 2] = [("t2-det", 2, true), ("t1-fast", 1, false)];

fn binned(kind: DatasetKind) -> BinnedTable {
    let dataset = kind.build(DatasetSize::Tiny, 7);
    let binner = Binner::fit(&dataset.table, &BinningConfig::default()).unwrap();
    binner.apply(&dataset.table).unwrap()
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn digest(bt: &BinnedTable, threads: usize, deterministic: bool) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for dim in DIMS {
        let emb = train_embedding(
            bt,
            &EmbeddingConfig {
                dim,
                epochs: 2,
                max_sentences: 300,
                seed: 11,
                threads,
                deterministic,
                ..Default::default()
            },
        );
        for token in emb.tokens() {
            h = fnv1a(h, token.as_bytes());
            for x in emb.vector(token).unwrap().iter() {
                h = fnv1a(h, &x.to_bits().to_le_bytes());
            }
        }
    }
    h
}

fn tier() -> String {
    format!("{:?}", subtab_kernels::detect())
}

/// `<tier> <dataset> <mode> <digest>` lines for the dispatched tier.
fn current_entries() -> Vec<String> {
    let tier = tier();
    let mut lines = Vec::new();
    for kind in ALL_KINDS {
        let bt = binned(kind);
        for (mode, threads, deterministic) in MODES {
            let d = digest(&bt, threads, deterministic);
            lines.push(format!("{tier} {kind:?} {mode} {d:016x}"));
        }
    }
    lines
}

#[test]
fn fast_trainer_bits_match_the_fixture_for_the_dispatched_tier() {
    let prefix = format!("{} ", tier());
    let want: Vec<&str> = FIXTURE.lines().filter(|l| l.starts_with(&prefix)).collect();
    assert_eq!(
        want.len(),
        ALL_KINDS.len() * MODES.len(),
        "fixture has no complete entry set for tier {}",
        tier()
    );
    for (got, want) in current_entries().iter().zip(want) {
        assert_eq!(got, want, "fast trainer bits drifted");
    }
}

#[test]
#[ignore = "regenerates tests/golden/fast_kernel_digests.txt for the dispatched tier"]
fn regenerate_fast_kernel_digests() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fast_kernel_digests.txt"
    );
    let prefix = format!("{} ", tier());
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut lines: Vec<String> = existing
        .lines()
        .filter(|l| !l.starts_with(&prefix))
        .map(str::to_owned)
        .collect();
    if lines.is_empty() {
        lines.push("# <tier> <dataset> <mode> <FNV-1a 64 of the trained weights>".into());
    }
    lines.extend(current_entries());
    std::fs::write(path, lines.join("\n") + "\n").unwrap();
}
