//! Model-based property test of [`ConflictGraph::greedy_deletions`]: random
//! small relations under two overlapping FDs, random deletion weights and a
//! random must-delete set, against a reference that recomputes every degree
//! once per pick and re-checks every group once per resurrection.
//!
//! Attribute values come from a three-letter alphabet and weights from four
//! values, so rows sit in a group of both FDs, classes of several members
//! and score ties between nodes of different weight all come up often. The
//! count-keeping greedy must return the reference's exact index list; the
//! result must cover, and no single deletion in it may be redundant.

use ecfd_core::{ECfd, ECfdBuilder};
use ecfd_detect::SemanticDetector;
use ecfd_relation::{DataType, Relation, RowId, Schema, Tuple, Value};
use ecfd_repair::{ConflictGraph, CostModel};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

const LETTERS: [&str; 3] = ["a", "b", "c"];
const WEIGHTS: [f64; 4] = [0.5, 1.0, 2.0, 3.0];

fn schema() -> Schema {
    Schema::builder("t")
        .attr("A", DataType::Str)
        .attr("B", DataType::Str)
        .attr("C", DataType::Str)
        .build()
}

/// `A → C` and `B → C`: every row is in one group of each.
fn fds() -> Vec<ECfd> {
    ["A", "B"]
        .into_iter()
        .map(|lhs| {
            ECfdBuilder::new("t")
                .lhs([lhs])
                .fd_rhs(["C"])
                .pattern(|p| p)
                .build()
                .unwrap()
        })
        .collect()
}

/// The tuple numbered `n` of the 27 the alphabet spans.
fn tuple(n: usize) -> Tuple {
    Tuple::from_iter([LETTERS[n % 3], LETTERS[n / 3 % 3], LETTERS[n / 9 % 3]])
}

/// Deletion weights by tuple: `weights[n]` prices tuple number `n`.
struct TableCost {
    weights: Vec<f64>,
}

impl CostModel for TableCost {
    fn deletion_cost(&self, t: &Tuple) -> f64 {
        let digit = |v: &Value| LETTERS.iter().position(|l| v == &Value::str(*l)).unwrap();
        let n = t.values().iter().rev().fold(0, |n, v| n * 3 + digit(v));
        self.weights[n]
    }

    fn change_cost(&self, _attr: &str, _old: &Value, _new: &Value) -> f64 {
        1.0
    }
}

/// The reference cover check: every must-delete node is gone and every
/// group retains at most one surviving class.
fn covers(graph: &ConflictGraph, deleted: &[bool]) -> bool {
    debug_assert_eq!(deleted.len(), graph.nodes().len());
    graph
        .nodes()
        .iter()
        .enumerate()
        .all(|(i, n)| !n.must_delete || deleted[i])
        && graph.groups().iter().all(|g| {
            g.classes
                .iter()
                .filter(|class| class.iter().any(|&i| !deleted[i]))
                .count()
                <= 1
        })
}

/// The reference greedy: every degree rebuilt once per pick, every
/// resurrection checked against every group.
fn reference_greedy(graph: &ConflictGraph) -> Vec<usize> {
    let nodes = graph.nodes();
    let mut deleted: Vec<bool> = nodes.iter().map(|n| n.must_delete).collect();
    loop {
        let mut degree = vec![0usize; nodes.len()];
        let mut open = false;
        for g in graph.groups() {
            let alive: Vec<usize> = g
                .classes
                .iter()
                .map(|class| class.iter().filter(|&&i| !deleted[i]).count())
                .collect();
            let total: usize = alive.iter().sum();
            if alive.iter().filter(|&&c| c > 0).count() <= 1 {
                continue;
            }
            open = true;
            for (k, class) in g.classes.iter().enumerate() {
                let partners = total - alive[k];
                for &i in class {
                    if !deleted[i] {
                        degree[i] += partners;
                    }
                }
            }
        }
        if !open {
            break;
        }
        let best = (0..nodes.len())
            .filter(|&i| !deleted[i] && degree[i] > 0)
            .max_by(|&a, &b| {
                let score = |i: usize| degree[i] as f64 / nodes[i].weight.max(f64::EPSILON);
                score(a)
                    .partial_cmp(&score(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    // Ties: prefer the cheaper node, then the smaller row
                    // id (determinism). `max_by` keeps the *greater*
                    // element, so the comparisons are inverted.
                    .then_with(|| {
                        nodes[b]
                            .weight
                            .partial_cmp(&nodes[a].weight)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .then_with(|| nodes[b].row.cmp(&nodes[a].row))
            })
            .expect("an open group has a node with positive degree");
        deleted[best] = true;
    }
    // Minimalisation: try to resurrect expensive deletions first.
    let mut order: Vec<usize> = (0..nodes.len())
        .filter(|&i| deleted[i] && !nodes[i].must_delete)
        .collect();
    order.sort_by(|&a, &b| {
        nodes[b]
            .weight
            .partial_cmp(&nodes[a].weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| nodes[a].row.cmp(&nodes[b].row))
    });
    for i in order {
        deleted[i] = false;
        if !covers(graph, &deleted) {
            deleted[i] = true;
        }
    }
    (0..nodes.len()).filter(|&i| deleted[i]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn greedy_matches_the_quadratic_reference(
        rows in proptest::collection::vec(0usize..27, 0..16),
        weights in proptest::collection::vec(0usize..4, 27),
        must in proptest::collection::vec(any::<bool>(), 16),
    ) {
        let relation = Relation::with_tuples(schema(), rows.iter().map(|&n| tuple(n))).unwrap();
        let detector = SemanticDetector::new(&schema(), &fds()).unwrap();
        let (_, evidence) = detector.detect_with_evidence(&relation).unwrap();
        let must_delete: BTreeSet<RowId> = relation
            .row_ids()
            .into_iter()
            .zip(&must)
            .filter(|(_, &m)| m)
            .map(|(id, _)| id)
            .collect();
        let cost = TableCost {
            weights: weights.iter().map(|&w| WEIGHTS[w]).collect(),
        };
        let graph = ConflictGraph::build(
            &detector,
            &relation,
            &evidence,
            &must_delete,
            &HashMap::new(),
            &cost,
        )
        .unwrap();

        let greedy = graph.greedy_deletions();
        prop_assert_eq!(&greedy, &reference_greedy(&graph));

        let mut deleted = vec![false; graph.num_nodes()];
        for &i in &greedy {
            deleted[i] = true;
        }
        prop_assert!(covers(&graph, &deleted));
        for &i in &greedy {
            if graph.nodes()[i].must_delete {
                continue;
            }
            deleted[i] = false;
            prop_assert!(!covers(&graph, &deleted), "deleting node {} is redundant", i);
            deleted[i] = true;
        }
    }
}
