//! Equivalence suite for the scaled preprocess pipeline: on the planted
//! datasets, `min_count` pruning must be monotone and surface as
//! `NO_TOKEN`. (The streaming pair builder is pinned to the materialized
//! corpus oracle in `subtab-embed`'s `corpus_equivalence` suite.)

use subtab_binning::Binner;
use subtab_core::SubTabConfig;
use subtab_datasets::{DatasetKind, DatasetSize};
use subtab_embed::{sgns, EmbeddingConfig, NO_TOKEN};

fn binned(kind: DatasetKind) -> subtab_binning::BinnedTable {
    let dataset = kind.build(DatasetSize::Tiny, 7);
    let config = SubTabConfig::fast();
    let binner = Binner::fit(&dataset.table, &config.binning).unwrap();
    binner.apply(&dataset.table).unwrap()
}

#[test]
fn pruning_is_monotone_and_surfaces_as_no_token() {
    let base_config = SubTabConfig::fast().embedding;
    for kind in [DatasetKind::Spotify, DatasetKind::UsFunds] {
        let bt = binned(kind);
        let full = sgns::train_embedding(&bt, &base_config);
        let mut prev_len = usize::MAX;
        for min_count in [0u64, 2, 8, 64] {
            let config = EmbeddingConfig {
                min_count,
                ..base_config.clone()
            };
            let model = sgns::train_embedding(&bt, &config);
            assert!(
                model.len() <= prev_len,
                "{kind:?}: vocab grew at min_count={min_count}"
            );
            prev_len = model.len();
            // Kept tokens are a subset of the unpruned vocabulary...
            for token in model.tokens() {
                assert!(
                    full.token_id(token).is_some(),
                    "{kind:?}: pruned model invented token {token}"
                );
            }
            // ...and pruned cells resolve to the sentinel the selection
            // layer already skips.
            let plane = model.token_plane(&bt);
            let full_plane = full.token_plane(&bt);
            for row in (0..plane.num_rows()).step_by(7) {
                for col in 0..plane.num_cols() {
                    if plane.id(row, col) == NO_TOKEN {
                        continue;
                    }
                    assert_ne!(
                        full_plane.id(row, col),
                        NO_TOKEN,
                        "{kind:?}: cell embedded after pruning but not before"
                    );
                }
            }
        }
    }
}
