//! Smoke test: every registered experiment runs at quick profile and
//! produces well-formed, non-empty tables (the same code paths `fjs all`
//! runs).

use fjs_cli::experiments::{all, Profile};

#[test]
fn every_experiment_runs_quick() {
    for exp in all() {
        let tables = (exp.run)(Profile::Quick);
        assert!(!tables.is_empty(), "{} produced no tables", exp.id);
        for (i, t) in tables.iter().enumerate() {
            assert!(!t.headers.is_empty(), "{} table {i} has no headers", exp.id);
            assert!(!t.rows.is_empty(), "{} table {i} has no rows", exp.id);
            for row in &t.rows {
                assert_eq!(row.len(), t.headers.len(), "{} table {i} ragged", exp.id);
            }
            // Rendering round-trips without panicking and contains data.
            let rendered = t.render();
            assert!(
                rendered.lines().count() >= 3,
                "{} table {i} rendering too short",
                exp.id
            );
            let csv = t.to_csv();
            assert_eq!(csv.lines().count(), t.rows.len() + 1);
        }
    }
}

#[test]
fn experiment_ids_cover_design_doc() {
    let ids: Vec<&str> = all().iter().map(|e| e.id).collect();
    for expected in [
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11",
    ] {
        assert!(ids.contains(&expected), "missing experiment {expected}");
    }
}
