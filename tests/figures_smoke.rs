//! Smoke tests: every figure module produces well-formed tables at a
//! quick run count, and the CSV plumbing round-trips.

use bundle_charging::sim::figures::{self, ExpConfig};
use bundle_charging::sim::Table;

fn quick() -> ExpConfig {
    ExpConfig {
        runs: 2,
        base_seed: 1000,
    }
}

fn check_tables(tables: &[Table], expected: &[(&str, usize)]) {
    assert_eq!(tables.len(), expected.len());
    for (t, (name, rows)) in tables.iter().zip(expected) {
        assert_eq!(&t.title, name);
        assert_eq!(t.rows.len(), *rows, "{name} row count");
        for row in &t.rows {
            assert_eq!(row.len(), t.headers.len(), "{name} ragged row");
            for v in row {
                assert!(v.is_finite(), "{name} contains a non-finite value");
            }
        }
    }
}

#[test]
fn fig6_shape() {
    check_tables(&figures::fig6::tables(&quick()), &[("fig6_tradeoff", 9)]);
}

#[test]
fn fig10_shape() {
    check_tables(
        &figures::fig10::tables(&quick()),
        &[("fig10_configurations", 3)],
    );
}

#[test]
fn fig11_shape() {
    check_tables(
        &figures::fig11::tables(&quick()),
        &[
            ("fig11a_bundles_vs_radius", 6),
            ("fig11b_bundles_vs_sensors", 5),
        ],
    );
}

#[test]
fn fig12_shape() {
    check_tables(
        &figures::fig12::tables(&quick()),
        &[
            ("fig12a_total_energy", 7),
            ("fig12b_tour_length", 7),
            ("fig12c_avg_charge_time", 7),
        ],
    );
}

#[test]
fn fig13_shape() {
    check_tables(
        &figures::fig13::tables(&quick()),
        &[
            ("fig13a_total_energy", 5),
            ("fig13b_tour_length", 5),
            ("fig13c_avg_charge_time", 5),
        ],
    );
}

#[test]
fn fig14_shape() {
    check_tables(
        &figures::fig14::tables(&quick()),
        &[("fig14a_tour_and_time", 10), ("fig14b_total_energy", 10)],
    );
}

#[test]
fn fig16_shape() {
    check_tables(
        &figures::fig16::tables(&quick()),
        &[("fig16a_testbed_energy", 6), ("fig16b_testbed_tour", 6)],
    );
}

#[test]
fn ablations_shape() {
    check_tables(
        &figures::ablations::tables(&quick()),
        &[
            ("ablation_tsp_pipeline", 3),
            ("ablation_dwell_policy", 4),
            ("ablation_tightening", 3),
            ("ablation_sortie_budgets", 4),
        ],
    );
}

#[test]
fn lifetime_table_shape() {
    check_tables(
        &bundle_charging::sim::lifetime::table(&quick()),
        &[("lifetime_24h", 4)],
    );
}

#[test]
fn csv_export_of_a_figure() {
    let tables = figures::fig16::tables(&quick());
    let dir = std::env::temp_dir().join("bc_fig_smoke");
    for t in &tables {
        let path = t.save_csv(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.lines().count() == t.rows.len() + 1);
        let _ = std::fs::remove_file(path);
    }
}
