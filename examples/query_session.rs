//! Replaying an EDA session: for every query of a generated exploration
//! session over the cyber-security dataset, display the query, the size of
//! its result, and the informative sub-table SubTab produces for it — the
//! interactive loop of Figure 1 (red arrows) in the paper — with the
//! association rules mined once at load time highlighted per displayed row
//! (the coloured-pattern UI of Figures 1–3).
//!
//! The closing segment issues the same nested analyst question three ways —
//! SQL-ish text, the `QueryExpr` AST builder, and a commuted respelling —
//! and shows all three share one canonical selection key.
//!
//! ```bash
//! cargo run --release --example query_session
//! ```

use subtab::core::HighlightIndex;
use subtab::data::{Predicate, Query, QueryExpr, Value};
use subtab::datasets::{cyber, generate_sessions, DatasetSize, SessionConfig};
use subtab::rules::MiningConfig;
use subtab::{SelectionParams, SubTab, SubTabConfig};

fn main() {
    let dataset = cyber(DatasetSize::Small, 11);
    println!(
        "CY stand-in: {} rows x {} columns",
        dataset.table.num_rows(),
        dataset.table.num_columns()
    );

    let sessions = generate_sessions(
        &dataset,
        &SessionConfig {
            num_sessions: 2,
            min_queries: 4,
            max_queries: 5,
            seed: 3,
        },
    );

    let subtab =
        SubTab::preprocess(dataset.table.clone(), SubTabConfig::default()).expect("pre-processing");
    // Rules are mined once when the table is loaded (vertical bitmap
    // engine); every displayed sub-table below reuses them for highlights.
    let rules = subtab.mine_rules(&MiningConfig {
        min_rule_size: 2,
        ..Default::default()
    });
    println!("mined {} association rules at load time", rules.len());
    // A highlight view of the session's rules; each displayed sub-table
    // below is probed against it in one pass over the rules.
    let highlighter = HighlightIndex::build(&rules);
    let params = SelectionParams::new(8, 6);

    for (si, session) in sessions.iter().enumerate() {
        println!(
            "\n================ session {} (investigating pattern {:?}) ================",
            si + 1,
            dataset.archetypes[session.archetype].name
        );
        for (qi, query) in session.queries.iter().enumerate() {
            let result = query.execute(&dataset.table).expect("query executes");
            println!(
                "\n-- query {}: {}\n   result: {} rows x {} columns",
                qi + 1,
                query,
                result.num_rows(),
                result.num_columns()
            );
            match subtab.select_for_query(query, &params) {
                Ok(view) => {
                    let view = subtab.with_highlights_indexed(view, &highlighter);
                    let highlighted = view.highlights.iter().flatten().count();
                    println!(
                        "   SubTab display ({} rows, {} highlighted):",
                        view.sub_table.num_rows(),
                        highlighted
                    );
                    println!("{}", view.render_with_highlights());
                }
                Err(e) => println!("   (no sub-table: {e})"),
            }
        }
    }

    // The SQL-ish frontend: one nested analyst question, three spellings.
    println!("\n================ nested query, three spellings ================");
    let text = "flagged = 1 AND (protocol = 'udp' OR NOT protocol IN ('tcp', 'icmp'))";
    let parsed: Query = text.parse().expect("query text parses");
    let built = Query::expr(QueryExpr::and(vec![
        QueryExpr::leaf(Predicate::eq("flagged", Value::Int(1))),
        QueryExpr::or(vec![
            QueryExpr::leaf(Predicate::eq("protocol", Value::from("udp"))),
            QueryExpr::leaf(Predicate::in_set(
                "protocol",
                vec![Value::from("tcp"), Value::from("icmp")],
            ))
            .negated(),
        ]),
    ]));
    let commuted: Query =
        "(NOT (protocol = 'icmp' OR protocol = 'tcp') OR protocol = 'udp') AND flagged = 1.0"
            .parse()
            .expect("commuted spelling parses");
    println!("text:     {text}");
    println!("AST form: {built}");
    println!("commuted: {commuted}");
    assert_eq!(parsed.selection_key(), built.selection_key());
    assert_eq!(parsed.selection_key(), commuted.selection_key());
    println!("all three share one canonical selection key — one cache entry on the server");
    let view = subtab
        .select_for_query(&parsed, &params)
        .expect("nested query selects");
    println!(
        "SubTab display for the nested query ({} rows x {} columns):\n{}",
        view.sub_table.num_rows(),
        view.sub_table.num_columns(),
        view.sub_table
    );
}
