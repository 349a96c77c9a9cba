//! The conflict (hyper)graph: which flagged tuples are in conflict, and what
//! a deletion repair must cover.
//!
//! Every violating enforcement group (an
//! [`MvEvidence`](ecfd_detect::evidence::MvEvidence) record) partitions its
//! member rows into *classes* by their `Y` projection; any two members of
//! different classes jointly violate the embedded FD, so a deletion repair
//! must remove all classes but (at most) one per group. Single-tuple
//! violations that value modification cannot (or may not) fix become
//! *must-delete* nodes. Minimising the deleted weight is exactly a weighted
//! vertex cover over the cross-class conflict pairs — the frame of "The
//! Complexity of Computing a Cardinality Repair for Functional Dependencies"
//! (Livshits & Kimelfeld) — which the crate solves greedily, or exactly by
//! enumerating which nodes to keep when the graph has at most 12 nodes.

use crate::cost::CostModel;
use crate::{RepairError, Result};
use ecfd_detect::evidence::{ConstraintRef, EvidenceReport};
use ecfd_detect::SemanticDetector;
use ecfd_relation::{Relation, RowId, Tuple, Value};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet};

/// The largest conflict graph, in nodes, that gets the exact cover: every
/// keep-mask of its nodes is enumerated.
const EXACT_MAX_NODES: usize = 12;

/// One tuple participating in a conflict.
#[derive(Debug, Clone, PartialEq)]
pub struct ConflictNode {
    /// The row in the relation the graph was built from.
    pub row: RowId,
    /// The row's (base) tuple, used to emit deletions by value.
    pub tuple: Tuple,
    /// Deletion cost under the engine's cost model.
    pub weight: f64,
    /// The node must be deleted regardless of the cover (an unrepairable
    /// single-tuple violation).
    pub must_delete: bool,
}

/// One violating enforcement group, partitioned into `Y`-projection classes.
/// Members of different classes are pairwise in conflict.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupConflict {
    /// The violated constraint / pattern tuple.
    pub source: ConstraintRef,
    /// The group's shared `X` projection.
    pub group_key: Vec<Value>,
    /// Node indices, partitioned by `Y` projection in value order (≥ 2).
    pub classes: Vec<Vec<usize>>,
}

impl GroupConflict {
    /// Number of cross-class (conflict) pairs in this group.
    pub fn num_conflicts(&self) -> usize {
        let sizes: Vec<usize> = self.classes.iter().map(Vec::len).collect();
        let total: usize = sizes.iter().sum();
        sizes.iter().map(|s| s * (total - s)).sum::<usize>() / 2
    }
}

/// The conflict graph of one [`EvidenceReport`] against one relation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConflictGraph {
    nodes: Vec<ConflictNode>,
    groups: Vec<GroupConflict>,
}

impl ConflictGraph {
    /// Builds the graph from detection evidence.
    ///
    /// * `must_delete` — rows that have to go no matter what (SV rows the
    ///   planner will not value-modify);
    /// * `patched` — tuples to use *instead of* the stored ones when computing
    ///   `Y` classes (the planner passes the post-modification tuples so that
    ///   a value-repaired row joins the class of its new `Y` projection).
    ///
    /// A group whose class partition equals one already added is skipped:
    /// it demands the same cover, and counting it twice would double its
    /// weight in the greedy's scores. (φ1's two pattern tuples both match
    /// the capital-district cities, so each such conflict arrives as two
    /// evidence records with the same members.)
    pub fn build(
        detector: &SemanticDetector,
        relation: &Relation,
        evidence: &EvidenceReport,
        must_delete: &BTreeSet<RowId>,
        patched: &HashMap<RowId, Tuple>,
        cost: &dyn CostModel,
    ) -> Result<Self> {
        let bounds = detector.bind(relation.schema())?;
        let split_of: HashMap<ConstraintRef, usize> = detector
            .provenance()
            .iter()
            .enumerate()
            .map(|(i, (c, p))| (ConstraintRef::new(*c, *p), i))
            .collect();

        let mut graph = ConflictGraph::default();
        let mut node_of: BTreeMap<RowId, usize> = BTreeMap::new();
        let add_node = |graph: &mut ConflictGraph,
                        node_of: &mut BTreeMap<RowId, usize>,
                        row: RowId|
         -> Result<usize> {
            if let Some(&idx) = node_of.get(&row) {
                return Ok(idx);
            }
            let tuple = relation
                .get(row)
                .ok_or(RepairError::UnknownRow(row))?
                .clone();
            let idx = graph.nodes.len();
            graph.nodes.push(ConflictNode {
                row,
                weight: cost.deletion_cost(&tuple),
                must_delete: must_delete.contains(&row),
                tuple,
            });
            node_of.insert(row, idx);
            Ok(idx)
        };

        for &row in must_delete {
            add_node(&mut graph, &mut node_of, row)?;
        }
        let mut partitions: HashSet<Vec<Vec<usize>>> = HashSet::new();
        for group in &evidence.mv_groups {
            let ci = *split_of
                .get(&group.source)
                .ok_or(RepairError::UnknownConstraint(group.source))?;
            let bound = &bounds[ci];
            // Partition members by their effective `Y` values, in value
            // order: the planner's tie-breaks see classes in that order.
            let mut classes: BTreeMap<Vec<Value>, Vec<usize>> = BTreeMap::new();
            for &row in &group.rows {
                let idx = add_node(&mut graph, &mut node_of, row)?;
                let node = &graph.nodes[idx];
                let effective = patched.get(&row).unwrap_or(&node.tuple);
                classes
                    .entry(bound.fd_rhs_key(effective))
                    .or_default()
                    .push(idx);
            }
            // Patching may have merged all members into one class — then the
            // group no longer conflicts and value modification resolved it.
            if classes.len() > 1 {
                let classes: Vec<Vec<usize>> = classes.into_values().collect();
                if partitions.insert(classes.clone()) {
                    graph.groups.push(GroupConflict {
                        source: group.source,
                        group_key: group.group_key.clone(),
                        classes,
                    });
                }
            }
        }
        Ok(graph)
    }

    /// The nodes of the graph.
    pub fn nodes(&self) -> &[ConflictNode] {
        &self.nodes
    }

    /// The conflicting groups.
    pub fn groups(&self) -> &[GroupConflict] {
        &self.groups
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of conflict pairs across all groups.
    pub fn num_conflicts(&self) -> usize {
        self.groups.iter().map(GroupConflict::num_conflicts).sum()
    }

    /// True when nothing needs deleting.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The trivial upper bound: delete every node (every flagged row).
    pub fn trivial_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Greedy weighted vertex cover over the conflict pairs: repeatedly delete
    /// the node with the highest (uncovered conflicts / weight) ratio, then
    /// prune deletions that turned out redundant (which makes the cover
    /// minimal — on a single group this coincides with the optimum "keep the
    /// heaviest class").
    ///
    /// The state is the alive member count of every (group, class). Deletions
    /// only lower degrees, so the next pick comes from a lazy max-heap: an
    /// entry whose degree went stale is pushed back at its current one.
    pub fn greedy_deletions(&self) -> Vec<usize> {
        let n = self.nodes.len();
        let weight = |i: usize| self.nodes[i].weight;
        let row = |i: usize| self.nodes[i].row;
        let by_weight =
            |a: usize, b: usize| weight(a).partial_cmp(&weight(b)).unwrap_or(Ordering::Equal);
        // Score ties go to the cheaper node, then to the smaller row id:
        // `tie[i]` is node `i`'s place in that order.
        let mut cheapest: Vec<usize> = (0..n).collect();
        cheapest.sort_by(|&a, &b| by_weight(a, b).then_with(|| row(a).cmp(&row(b))));
        let mut tie = vec![0; n];
        for (place, &i) in cheapest.iter().enumerate() {
            tie[i] = place;
        }
        // A score is never negative or NaN, so its bits order like it.
        let entry = |i: usize, degree: usize| {
            let score = degree as f64 / weight(i).max(f64::EPSILON);
            (score.to_bits(), Reverse(tie[i]), i)
        };

        let mut deleted: Vec<bool> = self.nodes.iter().map(|n| n.must_delete).collect();
        let mut counts = ClassCounts::new(self, &deleted);
        let mut heap: BinaryHeap<_> = (0..n)
            .filter(|&i| !deleted[i] && counts.degree(i) > 0)
            .map(|i| entry(i, counts.degree(i)))
            .collect();
        while let Some(top) = heap.pop() {
            let i = top.2;
            let degree = counts.degree(i);
            if degree == 0 {
                continue;
            }
            if entry(i, degree) != top {
                heap.push(entry(i, degree));
                continue;
            }
            deleted[i] = true;
            counts.set_alive(i, false);
        }
        // Minimalisation: try to resurrect expensive deletions first. The
        // deletions cover, so a node may come back exactly when none of its
        // groups keeps another class alive.
        let mut order: Vec<usize> = (0..n)
            .filter(|&i| deleted[i] && !self.nodes[i].must_delete)
            .collect();
        order.sort_by(|&a, &b| by_weight(b, a).then_with(|| row(a).cmp(&row(b))));
        for i in order {
            if counts.degree(i) == 0 {
                deleted[i] = false;
                counts.set_alive(i, true);
            }
        }
        (0..n).filter(|&i| deleted[i]).collect()
    }

    /// Exact cardinality repair: the largest set of nodes that can all be
    /// kept — no must-delete node and no two nodes of different classes of
    /// one group — found by scanning every keep-mask in ascending order and
    /// taking a mask only when it keeps strictly more nodes than the best so
    /// far; the cover is the rest. A graph of more than 12 nodes returns
    /// `None` — the planner falls back to the greedy cover.
    pub fn exact_deletions(&self) -> Option<Vec<usize>> {
        let n = self.nodes.len();
        if n > EXACT_MAX_NODES {
            return None;
        }
        // Bit `i` of a mask keeps node `i`.
        let mut must_delete = 0u32;
        for (i, node) in self.nodes.iter().enumerate() {
            must_delete |= u32::from(node.must_delete) << i;
        }
        let mut conflicts = vec![0u32; n];
        for g in &self.groups {
            let all: u32 = g.classes.iter().flatten().map(|&i| 1u32 << i).sum();
            for class in &g.classes {
                let own: u32 = class.iter().map(|&i| 1u32 << i).sum();
                for &i in class {
                    conflicts[i] |= all & !own;
                }
            }
        }
        let valid = |keep: u32| {
            keep & must_delete == 0
                && (0..n).all(|i| keep >> i & 1 == 0 || keep & conflicts[i] == 0)
        };
        let mut best = 0u32;
        for keep in 1..1u32 << n {
            if keep.count_ones() > best.count_ones() && valid(keep) {
                best = keep;
            }
        }
        Some((0..n).filter(|i| best >> i & 1 == 0).collect())
    }
}

/// The greedy cover's state: how many members of each group and of each
/// (group, class) are still alive.
struct ClassCounts {
    /// Per node, the (group, class) counters it is counted in.
    slots: Vec<Vec<(usize, usize)>>,
    /// Alive members, one counter per group and one per class.
    alive: Vec<usize>,
}

impl ClassCounts {
    fn new(graph: &ConflictGraph, deleted: &[bool]) -> Self {
        let mut counts = ClassCounts {
            slots: vec![Vec::new(); graph.nodes.len()],
            alive: Vec::new(),
        };
        for group in &graph.groups {
            let g = counts.alive.len();
            counts.alive.push(0);
            for class in &group.classes {
                counts.alive.push(0);
                for &i in class {
                    counts.slots[i].push((g, counts.alive.len() - 1));
                }
            }
        }
        for i in (0..graph.nodes.len()).filter(|&i| !deleted[i]) {
            counts.set_alive(i, true);
        }
        counts
    }

    /// Node `i`'s uncovered conflicts: the alive members of the other
    /// classes, over its groups.
    fn degree(&self, i: usize) -> usize {
        self.slots[i]
            .iter()
            .map(|&(g, k)| self.alive[g] - self.alive[k])
            .sum()
    }

    fn set_alive(&mut self, i: usize, alive: bool) {
        for &(g, k) in &self.slots[i] {
            for counter in [g, k] {
                if alive {
                    self.alive[counter] += 1;
                } else {
                    self.alive[counter] -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ConstantCost;
    use ecfd_core::ECfdBuilder;
    use ecfd_relation::{DataType, Schema};

    fn schema() -> Schema {
        Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("AC", DataType::Str)
            .build()
    }

    fn fd() -> ecfd_core::ECfd {
        ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p)
            .build()
            .unwrap()
    }

    fn graph_for(rows: &[(&str, &str)]) -> (ConflictGraph, Relation) {
        let relation = Relation::with_tuples(
            schema(),
            rows.iter().map(|(ct, ac)| Tuple::from_iter([*ct, *ac])),
        )
        .unwrap();
        let detector = SemanticDetector::new(&schema(), &[fd()]).unwrap();
        let (_, evidence) = detector.detect_with_evidence(&relation).unwrap();
        let graph = ConflictGraph::build(
            &detector,
            &relation,
            &evidence,
            &BTreeSet::new(),
            &HashMap::new(),
            &ConstantCost::default(),
        )
        .unwrap();
        (graph, relation)
    }

    #[test]
    fn one_group_two_against_one() {
        // Albany has AC classes {518, 518} vs {718}: the optimum deletes the
        // single 718 row.
        let (graph, _) = graph_for(&[("Albany", "518"), ("Albany", "518"), ("Albany", "718")]);
        assert_eq!(graph.num_nodes(), 3);
        assert_eq!(graph.groups().len(), 1);
        assert_eq!(graph.num_conflicts(), 2);

        let greedy = graph.greedy_deletions();
        let exact = graph.exact_deletions().unwrap();
        assert_eq!(greedy.len(), 1);
        assert_eq!(exact.len(), 1);
        assert_eq!(greedy, exact);
        assert_eq!(
            graph.nodes()[greedy[0]].tuple,
            Tuple::from_iter(["Albany", "718"])
        );
    }

    #[test]
    fn overlapping_groups_stay_optimal_on_small_instances() {
        // Two groups (Albany and Troy) with 2-vs-1 classes each: optimum
        // deletes one row per group.
        let (graph, _) = graph_for(&[
            ("Albany", "518"),
            ("Albany", "518"),
            ("Albany", "718"),
            ("Troy", "518"),
            ("Troy", "212"),
            ("Troy", "518"),
        ]);
        assert_eq!(graph.groups().len(), 2);
        let greedy = graph.greedy_deletions();
        let exact = graph.exact_deletions().unwrap();
        assert_eq!(exact.len(), 2);
        assert_eq!(greedy.len(), exact.len());
    }

    #[test]
    fn must_delete_nodes_are_always_covered() {
        let (graph0, relation) = graph_for(&[("Albany", "518"), ("Albany", "718")]);
        assert_eq!(graph0.num_nodes(), 2);
        let detector = SemanticDetector::new(&schema(), &[fd()]).unwrap();
        let (_, evidence) = detector.detect_with_evidence(&relation).unwrap();
        let must: BTreeSet<RowId> = [relation.row_ids()[0]].into_iter().collect();
        let graph = ConflictGraph::build(
            &detector,
            &relation,
            &evidence,
            &must,
            &HashMap::new(),
            &ConstantCost::default(),
        )
        .unwrap();
        let greedy = graph.greedy_deletions();
        let exact = graph.exact_deletions().unwrap();
        // Deleting row 0 also resolves the group, so both settle for one
        // deletion — the mandatory one.
        assert_eq!(greedy.len(), 1);
        assert_eq!(exact, greedy);
        assert!(graph.nodes()[greedy[0]].must_delete);
    }

    #[test]
    fn weights_steer_the_greedy_cover() {
        struct Biased;
        impl CostModel for Biased {
            fn deletion_cost(&self, tuple: &Tuple) -> f64 {
                // Deleting the 718 row is made very expensive.
                if tuple.values()[1] == Value::str("718") {
                    10.0
                } else {
                    1.0
                }
            }
            fn change_cost(&self, _a: &str, _o: &Value, _n: &Value) -> f64 {
                1.0
            }
        }
        let relation = Relation::with_tuples(
            schema(),
            [
                Tuple::from_iter(["Albany", "518"]),
                Tuple::from_iter(["Albany", "718"]),
            ],
        )
        .unwrap();
        let detector = SemanticDetector::new(&schema(), &[fd()]).unwrap();
        let (_, evidence) = detector.detect_with_evidence(&relation).unwrap();
        let graph = ConflictGraph::build(
            &detector,
            &relation,
            &evidence,
            &BTreeSet::new(),
            &HashMap::new(),
            &Biased,
        )
        .unwrap();
        let greedy = graph.greedy_deletions();
        assert_eq!(greedy.len(), 1);
        assert_eq!(
            graph.nodes()[greedy[0]].tuple,
            Tuple::from_iter(["Albany", "518"])
        );
    }

    #[test]
    fn patched_tuples_can_dissolve_a_group() {
        let relation = Relation::with_tuples(
            schema(),
            [
                Tuple::from_iter(["Albany", "518"]),
                Tuple::from_iter(["Albany", "718"]),
            ],
        )
        .unwrap();
        let detector = SemanticDetector::new(&schema(), &[fd()]).unwrap();
        let (_, evidence) = detector.detect_with_evidence(&relation).unwrap();
        let rows = relation.row_ids();
        let patched: HashMap<RowId, Tuple> = [(rows[1], Tuple::from_iter(["Albany", "518"]))]
            .into_iter()
            .collect();
        let graph = ConflictGraph::build(
            &detector,
            &relation,
            &evidence,
            &BTreeSet::new(),
            &patched,
            &ConstantCost::default(),
        )
        .unwrap();
        assert!(graph.groups().is_empty(), "the patched Y values agree");
        assert!(graph.greedy_deletions().is_empty());
    }

    #[test]
    fn exact_refuses_oversized_instances() {
        let rows: Vec<(String, String)> = (0..14)
            .map(|i| ("Albany".to_string(), format!("{i}")))
            .collect();
        let borrowed: Vec<(&str, &str)> =
            rows.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        let (graph, _) = graph_for(&borrowed);
        assert_eq!(graph.exact_deletions(), None);
        // The greedy cover still handles it: 14 rows, all distinct Y values →
        // keep one class (one row), delete 13.
        assert_eq!(graph.greedy_deletions().len(), 13);
    }
}
