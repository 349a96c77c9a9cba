//! The per-figure experiment drivers (Section VI of the paper).

use crate::workloads::PreparedWorkload;
use ecfd_detect::{BatchDetector, IncrementalDetector, SemanticDetector};
use std::time::{Duration, Instant};

/// Experiment scale: parameter ranges for the sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small ranges (hundreds to a few thousand tuples) suitable for the
    /// bundled interpretive SQL engine; preserves the paper's shapes.
    Small,
    /// The paper's original ranges (10k–100k tuples, |Tp| up to 500). Slow on
    /// the bundled engine; use `--release` and patience.
    Paper,
}

impl Scale {
    /// Parses the `--full` flag used by the `experiments` binary.
    pub fn from_full_flag(full: bool) -> Self {
        if full {
            Scale::Paper
        } else {
            Scale::Small
        }
    }

    fn d_sizes(self) -> Vec<usize> {
        match self {
            Scale::Small => (1..=10).map(|i| i * 400).collect(),
            Scale::Paper => (1..=10).map(|i| i * 10_000).collect(),
        }
    }

    fn fixed_d(self) -> usize {
        match self {
            Scale::Small => 4_000,
            Scale::Paper => 100_000,
        }
    }

    fn tp_sizes(self) -> Vec<usize> {
        match self {
            Scale::Small => (1..=10).map(|i| i * 20).collect(),
            Scale::Paper => (1..=10).map(|i| i * 50).collect(),
        }
    }

    fn update_sizes(self) -> Vec<usize> {
        match self {
            Scale::Small => vec![80, 160, 240, 320, 400, 480, 800, 1_600, 2_400],
            Scale::Paper => vec![
                2_000, 4_000, 6_000, 8_000, 10_000, 12_000, 20_000, 40_000, 60_000,
            ],
        }
    }

    fn fixed_delta(self) -> usize {
        match self {
            Scale::Small => 400,
            Scale::Paper => 10_000,
        }
    }
}

/// One row of an experiment's output table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Value of the swept parameter (|D|, noise%, |Tp| or |ΔD|).
    pub x: f64,
    /// Human-readable label of the swept parameter.
    pub x_label: &'static str,
    /// Measured series: (series name, value). Times are in milliseconds,
    /// counts are plain numbers.
    pub values: Vec<(&'static str, f64)>,
}

impl Row {
    /// Looks a series value up by name.
    pub fn value(&self, series: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == series)
            .map(|(_, v)| *v)
    }
}

/// Renders rows as an aligned text table (what the `experiments` binary
/// prints).
pub fn render_table(title: &str, rows: &[Row]) -> String {
    let mut out = format!("# {title}\n");
    if rows.is_empty() {
        out.push_str("(no rows)\n");
        return out;
    }
    let mut header = vec![rows[0].x_label.to_string()];
    header.extend(rows[0].values.iter().map(|(n, _)| n.to_string()));
    out.push_str(&header.join("\t"));
    out.push('\n');
    for row in rows {
        let mut cells = vec![format!("{}", row.x)];
        cells.extend(row.values.iter().map(|(_, v)| format!("{v:.2}")));
        out.push_str(&cells.join("\t"));
        out.push('\n');
    }
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1_000.0
}

fn time<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Runs SQL BATCHDETECT on a fresh catalog of the workload, returning the
/// elapsed time and the resulting report.
fn run_batch(workload: &PreparedWorkload) -> (Duration, ecfd_detect::DetectionReport) {
    let detector = BatchDetector::new(&workload.schema, &workload.constraints)
        .expect("workload constraints encode");
    let mut catalog = workload.catalog();
    let (elapsed, report) = time(|| detector.detect(&mut catalog).expect("batch detection runs"));
    (elapsed, report)
}

/// Fig. 5(a): BATCHDETECT scalability in |D| (|Tp| = 10 constraints,
/// noise = 5%).
pub fn fig5a(scale: Scale) -> Vec<Row> {
    scale
        .d_sizes()
        .into_iter()
        .map(|size| {
            let workload = PreparedWorkload::new(size, 5.0, 42);
            let (elapsed, report) = run_batch(&workload);
            Row {
                x: size as f64,
                x_label: "|D|",
                values: vec![
                    ("batchdetect_ms", ms(elapsed)),
                    ("violations", report.num_violations() as f64),
                ],
            }
        })
        .collect()
}

/// Fig. 5(b): BATCHDETECT scalability in noise% (|D| fixed).
pub fn fig5b(scale: Scale) -> Vec<Row> {
    (0..=9)
        .map(|noise| {
            let workload = PreparedWorkload::new(scale.fixed_d(), noise as f64, 42);
            let (elapsed, report) = run_batch(&workload);
            Row {
                x: noise as f64,
                x_label: "noise%",
                values: vec![
                    ("batchdetect_ms", ms(elapsed)),
                    ("violations", report.num_violations() as f64),
                ],
            }
        })
        .collect()
}

/// Fig. 5(c): BATCHDETECT scalability in |Tp| (|D| fixed, noise = 5%).
pub fn fig5c(scale: Scale) -> Vec<Row> {
    scale
        .tp_sizes()
        .into_iter()
        .map(|tp| {
            let workload = PreparedWorkload::with_tableau_size(scale.fixed_d(), 5.0, 42, Some(tp));
            let (elapsed, _) = run_batch(&workload);
            Row {
                x: tp as f64,
                x_label: "|Tp|",
                values: vec![("batchdetect_ms", ms(elapsed))],
            }
        })
        .collect()
}

/// Shared driver for Figs. 6(a)–(c): fixed-size updates, incremental vs batch.
fn inc_vs_batch(
    workload: &PreparedWorkload,
    insertions: usize,
    deletions: usize,
) -> Vec<(&'static str, f64)> {
    // Incremental: initialise on D, then apply ΔD.
    let mut inc_catalog = workload.catalog();
    let mut inc =
        IncrementalDetector::initialize(&workload.schema, &workload.constraints, &mut inc_catalog)
            .expect("incremental initialisation");
    let delta = workload.delta(insertions, deletions, 7);
    let (inc_time, _) = time(|| {
        inc.apply(&mut inc_catalog, &delta)
            .expect("incremental apply")
    });
    let inc_report = inc.maintained_report();

    // Batch: apply the updates first, then detect from scratch (the paper:
    // "BATCHDETECT was applied to the data after database updates are
    // executed").
    let mut updated = workload.data.clone();
    delta.apply(&mut updated).expect("delta applies");
    let mut batch_catalog = ecfd_relation::Catalog::new();
    batch_catalog.create(updated).expect("fresh catalog");
    let detector = BatchDetector::new(&workload.schema, &workload.constraints)
        .expect("workload constraints encode");
    let (batch_time, batch_report) = time(|| {
        detector
            .detect(&mut batch_catalog)
            .expect("batch detection")
    });

    // Sanity: both approaches agree on the violation counts.
    debug_assert_eq!(inc_report.num_sv(), batch_report.num_sv());
    vec![
        ("incdetect_ms", ms(inc_time)),
        ("batchdetect_ms", ms(batch_time)),
        ("violations", batch_report.num_violations() as f64),
    ]
}

/// Fig. 6(a): INCDETECT vs BATCHDETECT while |D| grows (|ΔD⁺| = |ΔD⁻| fixed).
pub fn fig6a(scale: Scale) -> Vec<Row> {
    let delta = scale.fixed_delta();
    scale
        .d_sizes()
        .into_iter()
        .map(|size| {
            let workload = PreparedWorkload::new(size, 5.0, 42);
            Row {
                x: size as f64,
                x_label: "|D|",
                values: inc_vs_batch(&workload, delta, delta),
            }
        })
        .collect()
}

/// Fig. 6(b): INCDETECT vs BATCHDETECT while noise% grows.
pub fn fig6b(scale: Scale) -> Vec<Row> {
    let delta = scale.fixed_delta();
    (0..=9)
        .map(|noise| {
            let workload = PreparedWorkload::new(scale.fixed_d(), noise as f64, 42);
            Row {
                x: noise as f64,
                x_label: "noise%",
                values: inc_vs_batch(&workload, delta, delta),
            }
        })
        .collect()
}

/// Fig. 6(c): INCDETECT vs BATCHDETECT while |Tp| grows.
pub fn fig6c(scale: Scale) -> Vec<Row> {
    let delta = scale.fixed_delta();
    scale
        .tp_sizes()
        .into_iter()
        .map(|tp| {
            let workload = PreparedWorkload::with_tableau_size(scale.fixed_d(), 5.0, 42, Some(tp));
            Row {
                x: tp as f64,
                x_label: "|Tp|",
                values: inc_vs_batch(&workload, delta, delta),
            }
        })
        .collect()
}

/// Fig. 7(a): effect of the update size on INCDETECT vs BATCHDETECT
/// (|D| fixed; |ΔD⁺| = |ΔD⁻| so |D| stays constant). Also reports the native
/// (non-SQL) batch baseline, against which the paper's ~50 % crossover is
/// visible on our substrate.
pub fn fig7a(scale: Scale) -> Vec<Row> {
    let workload = PreparedWorkload::new(scale.fixed_d(), 5.0, 42);
    scale
        .update_sizes()
        .into_iter()
        .map(|delta_size| {
            let mut values = inc_vs_batch(&workload, delta_size, delta_size);
            // Native batch baseline: recompute from scratch without SQL.
            let delta = workload.delta(delta_size, delta_size, 7);
            let mut updated = workload.data.clone();
            delta.apply(&mut updated).expect("delta applies");
            let semantic = SemanticDetector::new(&workload.schema, &workload.constraints)
                .expect("constraints bind");
            let (native_time, _) = time(|| semantic.detect(&updated).expect("native detection"));
            values.push(("native_batch_ms", ms(native_time)));
            Row {
                x: delta_size as f64,
                x_label: "|ΔD⁺|=|ΔD⁻|",
                values,
            }
        })
        .collect()
}

/// Fig. 7(b): growth of the number of single- (DSV) and multi-tuple (DMV)
/// violations before and after updates, as the update size grows.
pub fn fig7b(scale: Scale) -> Vec<Row> {
    let workload = PreparedWorkload::new(scale.fixed_d(), 5.0, 42);
    let semantic =
        SemanticDetector::new(&workload.schema, &workload.constraints).expect("constraints bind");
    let before = semantic.detect(&workload.data).expect("native detection");
    scale
        .update_sizes()
        .into_iter()
        .map(|delta_size| {
            let delta = workload.delta(delta_size, delta_size, 7);
            let mut updated = workload.data.clone();
            delta.apply(&mut updated).expect("delta applies");
            let after = semantic.detect(&updated).expect("native detection");
            Row {
                x: delta_size as f64,
                x_label: "|ΔD⁺|=|ΔD⁻|",
                values: vec![
                    ("DSV_before", before.num_sv() as f64),
                    ("DSV_after", after.num_sv() as f64),
                    ("DMV_before", before.num_mv() as f64),
                    ("DMV_after", after.num_mv() as f64),
                ],
            }
        })
        .collect()
}

/// Ablation: SQL-based BATCHDETECT vs the native semantic detector on the same
/// data (quantifies the cost of the SQL layer on the bundled engine).
pub fn ablation_sql_vs_native(scale: Scale) -> Vec<Row> {
    scale
        .d_sizes()
        .into_iter()
        .take(5)
        .map(|size| {
            let workload = PreparedWorkload::new(size, 5.0, 42);
            let (sql_time, sql_report) = run_batch(&workload);
            let semantic = SemanticDetector::new(&workload.schema, &workload.constraints)
                .expect("constraints bind");
            let (native_time, native_report) =
                time(|| semantic.detect(&workload.data).expect("native detection"));
            assert_eq!(sql_report.num_sv(), native_report.num_sv());
            assert_eq!(sql_report.num_mv(), native_report.num_mv());
            Row {
                x: size as f64,
                x_label: "|D|",
                values: vec![
                    ("sql_batch_ms", ms(sql_time)),
                    ("native_ms", ms(native_time)),
                ],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny scale used only by these tests to keep them fast.
    fn tiny_workload() -> PreparedWorkload {
        PreparedWorkload::new(200, 5.0, 1)
    }

    #[test]
    fn inc_vs_batch_agree_and_report_all_series() {
        let workload = tiny_workload();
        let values = inc_vs_batch(&workload, 20, 20);
        let names: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["incdetect_ms", "batchdetect_ms", "violations"]);
        assert!(values.iter().all(|(_, v)| *v >= 0.0));
    }

    #[test]
    fn rows_and_tables_render() {
        let rows = vec![Row {
            x: 10.0,
            x_label: "|D|",
            values: vec![("a_ms", 1.5), ("b_ms", 2.5)],
        }];
        assert_eq!(rows[0].value("a_ms"), Some(1.5));
        assert_eq!(rows[0].value("missing"), None);
        let table = render_table("demo", &rows);
        assert!(table.contains("# demo"));
        assert!(table.contains("|D|\ta_ms\tb_ms"));
        assert!(table.contains("10\t1.50\t2.50"));
        assert!(render_table("empty", &[]).contains("no rows"));
    }

    #[test]
    fn scales_produce_the_paper_parameter_ranges() {
        assert_eq!(Scale::Paper.d_sizes().first(), Some(&10_000));
        assert_eq!(Scale::Paper.d_sizes().last(), Some(&100_000));
        assert_eq!(Scale::Paper.fixed_d(), 100_000);
        assert_eq!(Scale::Paper.tp_sizes().last(), Some(&500));
        assert_eq!(Scale::Paper.update_sizes().last(), Some(&60_000));
        assert_eq!(Scale::from_full_flag(true), Scale::Paper);
        assert_eq!(Scale::from_full_flag(false), Scale::Small);
        // Small scale keeps the same number of sweep points.
        assert_eq!(Scale::Small.d_sizes().len(), Scale::Paper.d_sizes().len());
    }

    #[test]
    fn fig7b_counts_grow_with_update_size() {
        // Use the tiny workload directly rather than a full Scale sweep.
        let workload = tiny_workload();
        let semantic = SemanticDetector::new(&workload.schema, &workload.constraints).unwrap();
        let before = semantic.detect(&workload.data).unwrap();
        // Insert-only deltas: with deletions the comparison is not monotone
        // (a large ΔD⁻ may remove more noisy tuples than ΔD⁺ introduces).
        let small_delta = workload.delta(10, 0, 7);
        let big_delta = workload.delta(100, 0, 7);
        let mut small_updated = workload.data.clone();
        small_delta.apply(&mut small_updated).unwrap();
        let mut big_updated = workload.data.clone();
        big_delta.apply(&mut big_updated).unwrap();
        let small_after = semantic.detect(&small_updated).unwrap();
        let big_after = semantic.detect(&big_updated).unwrap();
        // Inserting more noisy tuples cannot decrease the number of
        // single-tuple violations relative to a smaller update.
        assert!(big_after.num_sv() >= small_after.num_sv());
        assert!(before.total_rows == workload.data.len());
    }
}
