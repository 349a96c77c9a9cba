//! MAXGSAT: maximise the number of satisfied Boolean expressions.
//!
//! The *Maximum Generalized Satisfiability* problem (Papadimitriou,
//! "Computational Complexity", 1994 — reference \[7\] of the paper) asks, given a
//! set `Φ = {φ_1, …, φ_m}` of arbitrary Boolean expressions, for a truth
//! assignment satisfying as many of them as possible. The eCFD MAXSS problem
//! reduces to it (Section IV), so this module provides several solvers:
//!
//! * [`MaxGSatSolver::Exhaustive`] — exact, exponential in the number of
//!   variables; only used for small instances and as a test oracle;
//! * [`MaxGSatSolver::RandomSampling`] — best of `k` uniformly random
//!   assignments. A uniformly random assignment satisfies each formula with
//!   probability ≥ 2^-size in the worst case, but for the formulas produced by
//!   the eCFD reduction the expected fraction is much higher in practice;
//! * [`MaxGSatSolver::GreedyConditional`] — Johnson-style derandomisation by
//!   the method of conditional expectations: variables are fixed one at a time,
//!   choosing the value with the larger estimated expected number of satisfied
//!   formulas (estimated by sampling completions with a fixed seed);
//! * [`MaxGSatSolver::LocalSearch`] — GSAT-flavoured hill climbing with random
//!   restarts: repeatedly flip the variable that yields the largest increase in
//!   satisfied formulas, ties broken by satisfied top-level conjuncts.

use crate::assignment::Assignment;
use crate::expr::{BoolExpr, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A MAXGSAT instance: a number of variables and a list of formulas over them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaxGSatInstance {
    num_vars: usize,
    formulas: Vec<BoolExpr>,
}

/// Which approximation (or exact) algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaxGSatSolver {
    /// Exact exhaustive search (exponential; refuses instances with more than
    /// [`MaxGSatInstance::EXHAUSTIVE_MAX_VARS`] variables).
    Exhaustive,
    /// Best of `samples` uniformly random assignments.
    RandomSampling {
        /// Number of random assignments to draw.
        samples: usize,
    },
    /// Derandomised greedy by conditional expectations, estimating
    /// expectations with `samples` random completions per decision.
    GreedyConditional {
        /// Number of completions sampled per (variable, value) decision.
        samples: usize,
    },
    /// Hill climbing with `restarts` random restarts and at most `max_flips`
    /// flips per restart.
    LocalSearch {
        /// Number of random restarts.
        restarts: usize,
        /// Maximum number of variable flips per restart.
        max_flips: usize,
    },
}

impl Default for MaxGSatSolver {
    fn default() -> Self {
        MaxGSatSolver::LocalSearch {
            restarts: 8,
            max_flips: 200,
        }
    }
}

/// Result of running a MAXGSAT solver.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaxGSatOutcome {
    /// The best assignment found.
    pub assignment: Assignment,
    /// Indices (into the instance's formula list) of the formulas satisfied by
    /// [`MaxGSatOutcome::assignment`].
    pub satisfied: Vec<usize>,
    /// Whether the solver proves this is an optimal solution (only the
    /// exhaustive solver sets this).
    pub proven_optimal: bool,
}

impl MaxGSatOutcome {
    /// Number of satisfied formulas.
    pub fn num_satisfied(&self) -> usize {
        self.satisfied.len()
    }
}

impl MaxGSatInstance {
    /// The most variables [`MaxGSatInstance::solve_exhaustive`] enumerates.
    pub const EXHAUSTIVE_MAX_VARS: usize = 24;

    /// Creates an instance over `num_vars` variables.
    pub fn new(num_vars: usize, formulas: Vec<BoolExpr>) -> Self {
        MaxGSatInstance { num_vars, formulas }
    }

    /// The formulas of the instance.
    pub fn formulas(&self) -> &[BoolExpr] {
        &self.formulas
    }

    /// Number of formulas.
    pub fn len(&self) -> usize {
        self.formulas.len()
    }

    /// True when the instance has no formulas.
    pub fn is_empty(&self) -> bool {
        self.formulas.is_empty()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Indices of the formulas satisfied by `assignment`.
    pub fn satisfied_by(&self, assignment: &Assignment) -> Vec<usize> {
        self.formulas
            .iter()
            .enumerate()
            .filter(|(_, f)| f.eval(assignment))
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of formulas satisfied by `assignment`.
    pub fn count_satisfied(&self, assignment: &Assignment) -> usize {
        self.formulas.iter().filter(|f| f.eval(assignment)).count()
    }

    /// The local search's hill: the number of satisfied formulas, then the
    /// number of satisfied top-level conjuncts summed over all formulas (a
    /// formula that is not a conjunction counts as its own one conjunct).
    ///
    /// Ordered as a pair, it agrees with [`MaxGSatInstance::count_satisfied`]
    /// wherever that count differs, and grades the plateaus where it does
    /// not. A conjunct shared by every formula (MAXSS's `φ_R`) makes such
    /// plateaus the norm: from all-false no single flip satisfies a formula,
    /// and from any satisfying tuple every flip breaks the shared conjunct.
    ///
    /// The search itself keeps this score up to date flip by flip
    /// ([`GradedScore`]); this full rescore is the reference it must equal.
    #[cfg(test)]
    fn graded_score(&self, assignment: &Assignment) -> (usize, usize) {
        self.formulas
            .iter()
            .fold((0, 0), |(formulas, conjuncts), f| match f {
                BoolExpr::And(es) => {
                    let met = es.iter().filter(|e| e.eval(assignment)).count();
                    (formulas + usize::from(met == es.len()), conjuncts + met)
                }
                _ => {
                    let met = usize::from(f.eval(assignment));
                    (formulas + met, conjuncts + met)
                }
            })
    }

    /// Variables that actually occur in some formula.
    pub fn occurring_vars(&self) -> Vec<VarId> {
        let mut set = BTreeSet::new();
        for f in &self.formulas {
            set.extend(f.vars());
        }
        set.into_iter().collect()
    }

    /// Runs the given solver with a deterministic seed.
    pub fn solve(&self, solver: MaxGSatSolver, seed: u64) -> MaxGSatOutcome {
        match solver {
            MaxGSatSolver::Exhaustive => self.solve_exhaustive(),
            MaxGSatSolver::RandomSampling { samples } => self.solve_random(samples, seed),
            MaxGSatSolver::GreedyConditional { samples } => self.solve_greedy(samples, seed),
            MaxGSatSolver::LocalSearch {
                restarts,
                max_flips,
            } => self.solve_local_search(restarts, max_flips, seed),
        }
    }

    fn outcome(&self, assignment: Assignment, proven_optimal: bool) -> MaxGSatOutcome {
        let satisfied = self.satisfied_by(&assignment);
        MaxGSatOutcome {
            assignment,
            satisfied,
            proven_optimal,
        }
    }

    /// Exact exhaustive search. Panics if the instance has more than
    /// [`MaxGSatInstance::EXHAUSTIVE_MAX_VARS`] variables (use an
    /// approximation solver instead).
    pub fn solve_exhaustive(&self) -> MaxGSatOutcome {
        assert!(
            self.num_vars <= Self::EXHAUSTIVE_MAX_VARS,
            "exhaustive MAXGSAT limited to {} variables, instance has {}",
            Self::EXHAUSTIVE_MAX_VARS,
            self.num_vars
        );
        let mut best = Assignment::all_false(self.num_vars);
        let mut best_count = self.count_satisfied(&best);
        for bits in 1..(1u64 << self.num_vars) {
            let asg = Assignment::from_bits(bits, self.num_vars);
            let count = self.count_satisfied(&asg);
            if count > best_count {
                best_count = count;
                best = asg;
                if best_count == self.formulas.len() {
                    break;
                }
            }
        }
        self.outcome(best, true)
    }

    fn random_assignment(&self, rng: &mut StdRng) -> Assignment {
        Assignment::from_vec((0..self.num_vars).map(|_| rng.gen_bool(0.5)).collect())
    }

    fn solve_random(&self, samples: usize, seed: u64) -> MaxGSatOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut best = Assignment::all_false(self.num_vars);
        let mut best_count = self.count_satisfied(&best);
        for _ in 0..samples.max(1) {
            let asg = self.random_assignment(&mut rng);
            let count = self.count_satisfied(&asg);
            if count > best_count {
                best_count = count;
                best = asg;
                if best_count == self.formulas.len() {
                    break;
                }
            }
        }
        self.outcome(best, false)
    }

    /// Estimates E[#satisfied | prefix fixed] by sampling completions.
    fn estimate_expectation(
        &self,
        fixed: &Assignment,
        fixed_upto: usize,
        samples: usize,
        rng: &mut StdRng,
    ) -> f64 {
        if fixed_upto >= self.num_vars {
            return self.count_satisfied(fixed) as f64;
        }
        let mut total = 0usize;
        for _ in 0..samples.max(1) {
            let mut asg = fixed.clone();
            for v in fixed_upto..self.num_vars {
                asg.set(VarId(v), rng.gen_bool(0.5));
            }
            total += self.count_satisfied(&asg);
        }
        total as f64 / samples.max(1) as f64
    }

    fn solve_greedy(&self, samples: usize, seed: u64) -> MaxGSatOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut assignment = Assignment::all_false(self.num_vars);
        for v in 0..self.num_vars {
            let var = VarId(v);
            assignment.set(var, true);
            let with_true = self.estimate_expectation(&assignment, v + 1, samples, &mut rng);
            assignment.set(var, false);
            let with_false = self.estimate_expectation(&assignment, v + 1, samples, &mut rng);
            assignment.set(var, with_true > with_false);
        }
        self.outcome(assignment, false)
    }

    fn solve_local_search(&self, restarts: usize, max_flips: usize, seed: u64) -> MaxGSatOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let vars = self.occurring_vars();
        let mut graded = GradedScore::new(self);
        let mut best: Option<((usize, usize), Assignment)> = None;
        for restart in 0..restarts.max(1) {
            let mut current = if restart == 0 {
                // First restart starts from all-false, a useful baseline for
                // sparse instances; later restarts are random.
                Assignment::all_false(self.num_vars)
            } else {
                self.random_assignment(&mut rng)
            };
            graded.reset(&current);
            for _ in 0..max_flips {
                if graded.score.0 == self.formulas.len() {
                    break;
                }
                // Find the best single flip.
                let mut best_flip: Option<((usize, usize), VarId)> = None;
                for &var in &vars {
                    let score = graded.score_flipped(&mut current, var);
                    if score > graded.score && best_flip.map(|(s, _)| score > s).unwrap_or(true) {
                        best_flip = Some((score, var));
                    }
                }
                match best_flip {
                    Some((_, var)) => graded.flip(&mut current, var),
                    None => break, // local optimum
                }
            }
            if best
                .as_ref()
                .map(|(s, _)| graded.score > *s)
                .unwrap_or(true)
            {
                best = Some((graded.score, current));
            }
            if let Some((s, _)) = &best {
                if s.0 == self.formulas.len() {
                    break;
                }
            }
        }
        let (_, assignment) = best.expect("at least one restart ran");
        self.outcome(assignment, false)
    }
}

/// [`MaxGSatInstance::graded_score`] maintained under single flips: per
/// formula the number of its top-level conjuncts the assignment satisfies,
/// and per variable the conjuncts that mention it, so scoring or taking a
/// flip re-evaluates only the conjuncts of the flipped variable.
struct GradedScore<'a> {
    /// Every top-level conjunct with its formula, formula by formula.
    conjuncts: Vec<(usize, &'a BoolExpr)>,
    /// Per formula, its number of top-level conjuncts.
    sizes: Vec<usize>,
    /// Per conjunct, whether the assignment satisfies it.
    holds: Vec<bool>,
    /// Per formula, its number of satisfied conjuncts.
    met: Vec<usize>,
    /// Per variable, the conjuncts that mention it, in ascending order.
    mentions: Vec<Vec<usize>>,
    /// The graded score of the assignment.
    score: (usize, usize),
}

impl<'a> GradedScore<'a> {
    fn new(instance: &'a MaxGSatInstance) -> Self {
        let mut conjuncts = Vec::new();
        let mut sizes = Vec::with_capacity(instance.formulas.len());
        for (fi, f) in instance.formulas.iter().enumerate() {
            let parts = match f {
                BoolExpr::And(es) => es.as_slice(),
                _ => std::slice::from_ref(f),
            };
            sizes.push(parts.len());
            conjuncts.extend(parts.iter().map(|e| (fi, e)));
        }
        let mut mentions = vec![Vec::new(); instance.num_vars];
        for (ci, (_, e)) in conjuncts.iter().enumerate() {
            for var in e.vars() {
                if mentions.len() <= var.index() {
                    mentions.resize(var.index() + 1, Vec::new());
                }
                mentions[var.index()].push(ci);
            }
        }
        GradedScore {
            holds: vec![false; conjuncts.len()],
            met: vec![0; sizes.len()],
            conjuncts,
            sizes,
            mentions,
            score: (0, 0),
        }
    }

    /// Re-evaluates every conjunct under `assignment`.
    fn reset(&mut self, assignment: &Assignment) {
        self.met.iter_mut().for_each(|m| *m = 0);
        for (ci, (fi, e)) in self.conjuncts.iter().enumerate() {
            self.holds[ci] = e.eval(assignment);
            self.met[*fi] += usize::from(self.holds[ci]);
        }
        let formulas = (self.met.iter().zip(&self.sizes))
            .filter(|(met, size)| met == size)
            .count();
        self.score = (formulas, self.holds.iter().filter(|h| **h).count());
    }

    /// The graded score `assignment` would have with `var` flipped; leaves
    /// `assignment` as it was.
    fn score_flipped(&self, assignment: &mut Assignment, var: VarId) -> (usize, usize) {
        assignment.flip(var);
        let (mut formulas, mut conjuncts) = self.score;
        let mentions = &self.mentions[var.index()];
        let mut i = 0;
        while i < mentions.len() {
            // One formula's conjuncts are adjacent in `mentions`.
            let fi = self.conjuncts[mentions[i]].0;
            let (mut gained, mut lost) = (0, 0);
            while let Some(&ci) = mentions.get(i).filter(|&&ci| self.conjuncts[ci].0 == fi) {
                match (self.holds[ci], self.conjuncts[ci].1.eval(assignment)) {
                    (false, true) => gained += 1,
                    (true, false) => lost += 1,
                    _ => {}
                }
                i += 1;
            }
            let (met, size) = (self.met[fi], self.sizes[fi]);
            let now = met + gained - lost;
            formulas = formulas + usize::from(now == size) - usize::from(met == size);
            conjuncts = conjuncts + gained - lost;
        }
        assignment.flip(var);
        (formulas, conjuncts)
    }

    /// Flips `var` in `assignment` and updates the maintained counts.
    fn flip(&mut self, assignment: &mut Assignment, var: VarId) {
        self.score = self.score_flipped(assignment, var);
        assignment.flip(var);
        for &ci in &self.mentions[var.index()] {
            let (fi, e) = self.conjuncts[ci];
            let now = e.eval(assignment);
            if now != self.holds[ci] {
                self.holds[ci] = now;
                self.met[fi] = self.met[fi] + usize::from(now) - usize::from(!now);
            }
        }
    }
}

/// A MAXGSAT instance assembled from *hard* formulas (which any useful
/// assignment must satisfy) and *soft* formulas (whose satisfied count is to
/// be maximised).
///
/// MAXGSAT has no native notion of weights, so each hard formula is replicated
/// `soft.len() + 1` times in the underlying instance: violating even one hard
/// formula then costs more than satisfying every soft formula can gain, and an
/// optimal assignment satisfies all hard formulas whenever that is possible at
/// all. This is the oracle shape the repair subsystem uses — hard conflict
/// constraints ("these two tuples cannot both be kept") against soft retention
/// goals ("keep this tuple").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HardSoftInstance {
    instance: MaxGSatInstance,
    num_hard: usize,
    num_soft: usize,
    replication: usize,
}

/// Outcome of solving a [`HardSoftInstance`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HardSoftOutcome {
    /// The best assignment found.
    pub assignment: Assignment,
    /// Whether the assignment satisfies *every* hard formula. When the solver
    /// is exact and this is `false`, the hard formulas are jointly
    /// unsatisfiable.
    pub hard_satisfied: bool,
    /// Indices (into the soft formula list) of the satisfied soft formulas.
    pub soft_satisfied: Vec<usize>,
    /// Whether the underlying solver proves optimality (exhaustive only).
    pub proven_optimal: bool,
}

impl HardSoftInstance {
    /// Builds the replicated instance over `num_vars` variables.
    pub fn new(num_vars: usize, hard: Vec<BoolExpr>, soft: Vec<BoolExpr>) -> Self {
        let replication = soft.len() + 1;
        let mut formulas = Vec::with_capacity(hard.len() * replication + soft.len());
        for h in &hard {
            formulas.extend(std::iter::repeat_n(h.clone(), replication));
        }
        formulas.extend(soft.iter().cloned());
        HardSoftInstance {
            num_hard: hard.len(),
            num_soft: soft.len(),
            replication,
            instance: MaxGSatInstance::new(num_vars, formulas),
        }
    }

    /// The underlying (replicated) MAXGSAT instance.
    pub fn instance(&self) -> &MaxGSatInstance {
        &self.instance
    }

    /// Number of hard formulas.
    pub fn num_hard(&self) -> usize {
        self.num_hard
    }

    /// Number of soft formulas.
    pub fn num_soft(&self) -> usize {
        self.num_soft
    }

    /// How many times each hard formula is replicated.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Runs `solver` on the replicated instance and splits the outcome back
    /// into its hard / soft components.
    pub fn solve(&self, solver: MaxGSatSolver, seed: u64) -> HardSoftOutcome {
        let outcome = self.instance.solve(solver, seed);
        let hard_region = self.num_hard * self.replication;
        let hard_satisfied = (0..self.num_hard).all(|h| {
            // Replicas of one hard formula are contiguous; checking the first
            // replica suffices since they are identical.
            self.instance.formulas()[h * self.replication].eval(&outcome.assignment)
        });
        let soft_satisfied = outcome
            .satisfied
            .iter()
            .filter(|&&i| i >= hard_region)
            .map(|&i| i - hard_region)
            .collect();
        HardSoftOutcome {
            assignment: outcome.assignment,
            hard_satisfied,
            soft_satisfied,
            proven_optimal: outcome.proven_optimal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::VarPool;

    /// A small instance where exactly `m - 1` formulas can be satisfied:
    /// {a, ¬a, a ∨ b, b}.
    fn conflicting_instance() -> (MaxGSatInstance, usize) {
        let mut pool = VarPool::new();
        let a = pool.fresh("a");
        let b = pool.fresh("b");
        let formulas = vec![
            BoolExpr::var(a),
            BoolExpr::var(a).not(),
            BoolExpr::or([BoolExpr::var(a), BoolExpr::var(b)]),
            BoolExpr::var(b),
        ];
        (MaxGSatInstance::new(pool.len(), formulas), 3)
    }

    #[test]
    fn exhaustive_finds_optimum() {
        let (inst, opt) = conflicting_instance();
        let outcome = inst.solve_exhaustive();
        assert_eq!(outcome.num_satisfied(), opt);
        assert!(outcome.proven_optimal);
        // The satisfied index list is consistent with the assignment.
        for &i in &outcome.satisfied {
            assert!(inst.formulas()[i].eval(&outcome.assignment));
        }
    }

    #[test]
    fn all_solvers_reach_optimum_on_small_instances() {
        let (inst, opt) = conflicting_instance();
        for solver in [
            MaxGSatSolver::RandomSampling { samples: 64 },
            MaxGSatSolver::GreedyConditional { samples: 32 },
            MaxGSatSolver::LocalSearch {
                restarts: 4,
                max_flips: 50,
            },
        ] {
            let outcome = inst.solve(solver, 7);
            assert_eq!(
                outcome.num_satisfied(),
                opt,
                "solver {solver:?} should reach the optimum on a 2-variable instance"
            );
        }
    }

    #[test]
    fn local_search_climbs_a_plateau_of_shared_conjuncts() {
        // Every formula is `v_i ∧ s`: from all-false no single flip
        // satisfies a formula, so a count of satisfied formulas alone stalls
        // at once. Counting satisfied conjuncts grades the plateau.
        let mut pool = VarPool::new();
        let shared = pool.fresh("s");
        let own: Vec<VarId> = (0..3).map(|i| pool.fresh(format!("v{i}"))).collect();
        let formulas: Vec<BoolExpr> = own
            .iter()
            .map(|&v| BoolExpr::and([BoolExpr::var(v), BoolExpr::var(shared)]))
            .collect();
        let inst = MaxGSatInstance::new(pool.len(), formulas);
        let all_false = Assignment::all_false(inst.num_vars());
        assert_eq!(inst.graded_score(&all_false), (0, 0));
        let solver = MaxGSatSolver::LocalSearch {
            restarts: 1,
            max_flips: 10,
        };
        let outcome = inst.solve(solver, 0);
        assert_eq!(outcome.num_satisfied(), 3);
        assert_eq!(inst.graded_score(&outcome.assignment), (3, 6));
    }

    #[test]
    fn fully_satisfiable_instance_is_fully_satisfied() {
        let mut pool = VarPool::new();
        let vars: Vec<VarId> = (0..6).map(|i| pool.fresh(format!("v{i}"))).collect();
        // Chain of implications plus a few disjunctions — satisfiable by all-true.
        let mut formulas: Vec<BoolExpr> = vars
            .windows(2)
            .map(|w| BoolExpr::var(w[0]).implies(BoolExpr::var(w[1])))
            .collect();
        formulas.push(BoolExpr::or(vars.iter().map(|v| BoolExpr::var(*v))));
        let inst = MaxGSatInstance::new(pool.len(), formulas.clone());

        let exact = inst.solve_exhaustive();
        assert_eq!(exact.num_satisfied(), formulas.len());
        let ls = inst.solve(MaxGSatSolver::default(), 3);
        assert_eq!(ls.num_satisfied(), formulas.len());
    }

    #[test]
    fn approximation_quality_on_random_instances() {
        // On random instances with ≤ 12 variables every approximate solver
        // should satisfy at least half of what the exact optimum satisfies —
        // a loose bound that guards against gross regressions.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..5 {
            let n_vars = 6 + trial;
            let mut formulas = Vec::new();
            for _ in 0..12 {
                let a = VarId(rng.gen_range(0..n_vars));
                let b = VarId(rng.gen_range(0..n_vars));
                let lit_a = if rng.gen_bool(0.5) {
                    BoolExpr::var(a)
                } else {
                    BoolExpr::var(a).not()
                };
                let lit_b = if rng.gen_bool(0.5) {
                    BoolExpr::var(b)
                } else {
                    BoolExpr::var(b).not()
                };
                formulas.push(if rng.gen_bool(0.5) {
                    BoolExpr::and([lit_a, lit_b])
                } else {
                    BoolExpr::or([lit_a, lit_b])
                });
            }
            let inst = MaxGSatInstance::new(n_vars, formulas);
            let opt = inst.solve_exhaustive().num_satisfied();
            for solver in [
                MaxGSatSolver::RandomSampling { samples: 100 },
                MaxGSatSolver::GreedyConditional { samples: 30 },
                MaxGSatSolver::LocalSearch {
                    restarts: 5,
                    max_flips: 100,
                },
            ] {
                let approx = inst.solve(solver, 42 + trial as u64).num_satisfied();
                assert!(
                    approx * 2 >= opt,
                    "solver {solver:?}: {approx} satisfied vs optimum {opt}"
                );
            }
        }
    }

    #[test]
    fn the_maintained_score_equals_a_full_rescore_after_every_flip() {
        // Formulas with several, no, repeated and nested conjuncts: every
        // predicted flip score and the score maintained after the flip equal
        // what `graded_score` recomputes from scratch.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..10 {
            let n_vars = 3 + trial % 4;
            let lit = |rng: &mut StdRng| {
                let v = BoolExpr::var(VarId(rng.gen_range(0..n_vars)));
                if rng.gen_bool(0.5) {
                    v
                } else {
                    v.not()
                }
            };
            let formulas: Vec<BoolExpr> = (0..8)
                .map(|_| match rng.gen_range(0..3) {
                    0 => BoolExpr::And(
                        (0..rng.gen_range(0..4))
                            .map(|_| BoolExpr::Or(vec![lit(&mut rng), lit(&mut rng)]))
                            .collect(),
                    ),
                    1 => BoolExpr::And(vec![lit(&mut rng), lit(&mut rng), lit(&mut rng)]),
                    _ => BoolExpr::Or(vec![lit(&mut rng), lit(&mut rng)]),
                })
                .collect();
            let inst = MaxGSatInstance::new(n_vars, formulas);
            let mut current = inst.random_assignment(&mut rng);
            let mut graded = GradedScore::new(&inst);
            graded.reset(&current);
            assert_eq!(graded.score, inst.graded_score(&current));
            for _ in 0..20 {
                let var = VarId(rng.gen_range(0..n_vars));
                let predicted = graded.score_flipped(&mut current, var);
                graded.flip(&mut current, var);
                assert_eq!(graded.score, predicted);
                assert_eq!(graded.score, inst.graded_score(&current));
            }
        }
    }

    #[test]
    fn empty_instance() {
        let inst = MaxGSatInstance::new(0, vec![]);
        assert!(inst.is_empty());
        let outcome = inst.solve_exhaustive();
        assert_eq!(outcome.num_satisfied(), 0);
    }

    #[test]
    fn solvers_are_deterministic_for_a_fixed_seed() {
        let (inst, _) = conflicting_instance();
        let a = inst.solve(MaxGSatSolver::RandomSampling { samples: 10 }, 99);
        let b = inst.solve(MaxGSatSolver::RandomSampling { samples: 10 }, 99);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "exhaustive MAXGSAT limited")]
    fn exhaustive_rejects_large_instances() {
        let inst = MaxGSatInstance::new(30, vec![BoolExpr::t()]);
        let _ = inst.solve_exhaustive();
    }

    #[test]
    fn hard_formulas_dominate_soft_formulas() {
        // Vertex-cover-flavoured instance: keep as many of {a, b, c} as
        // possible, but a and b conflict. Optimum keeps two variables.
        let mut pool = VarPool::new();
        let a = pool.fresh("a");
        let b = pool.fresh("b");
        let c = pool.fresh("c");
        let hard = vec![BoolExpr::and([BoolExpr::var(a), BoolExpr::var(b)]).not()];
        let soft = vec![BoolExpr::var(a), BoolExpr::var(b), BoolExpr::var(c)];
        let hs = HardSoftInstance::new(pool.len(), hard, soft);
        assert_eq!(hs.num_hard(), 1);
        assert_eq!(hs.num_soft(), 3);
        assert_eq!(hs.replication(), 4);
        assert_eq!(hs.instance().len(), 4 + 3);

        let outcome = hs.solve(MaxGSatSolver::Exhaustive, 0);
        assert!(outcome.proven_optimal);
        assert!(outcome.hard_satisfied);
        assert_eq!(outcome.soft_satisfied.len(), 2);
        // c is unconflicted, so it must always be kept.
        assert!(outcome.soft_satisfied.contains(&2));
    }

    #[test]
    fn unsatisfiable_hard_formulas_are_reported() {
        let mut pool = VarPool::new();
        let a = pool.fresh("a");
        let hard = vec![BoolExpr::var(a), BoolExpr::var(a).not()];
        let hs = HardSoftInstance::new(pool.len(), hard, vec![BoolExpr::var(a)]);
        let outcome = hs.solve(MaxGSatSolver::Exhaustive, 0);
        assert!(!outcome.hard_satisfied);
    }

    #[test]
    fn hard_soft_with_no_soft_formulas_is_plain_satisfiability() {
        let mut pool = VarPool::new();
        let a = pool.fresh("a");
        let hs = HardSoftInstance::new(pool.len(), vec![BoolExpr::var(a)], vec![]);
        assert_eq!(hs.replication(), 1);
        let outcome = hs.solve(MaxGSatSolver::Exhaustive, 0);
        assert!(outcome.hard_satisfied);
        assert!(outcome.soft_satisfied.is_empty());
    }
}
