//! Pluggable repair cost models.
//!
//! A repair is a set of tuple deletions and cell modifications; a
//! [`CostModel`] prices both so that the repair engine can prefer cheap fixes.
//! Three models ship with the crate:
//!
//! * [`ConstantCost`] — every deletion and every change costs the same
//!   (deletion-count minimisation is then exactly the *cardinality repair* of
//!   Livshits & Kimelfeld);
//! * [`PerAttributeCost`] — changes are priced per attribute, modelling
//!   columns with different trustworthiness;
//! * [`EditDistanceCost`] — a change costs the Levenshtein distance between
//!   the old and new rendering, modelling "small typo fixes are cheap".

use ecfd_relation::{Tuple, Value};
use std::collections::BTreeMap;

/// Prices repair operations. Implementations must be deterministic: the
/// repair planners call these methods repeatedly while comparing candidates.
pub trait CostModel {
    /// Cost of deleting `tuple` outright.
    fn deletion_cost(&self, tuple: &Tuple) -> f64;

    /// Cost of changing attribute `attr` from `old` to `new`.
    fn change_cost(&self, attr: &str, old: &Value, new: &Value) -> f64;
}

/// Lets the holders of a shared model (engines, snapshots) derive `Debug`.
impl std::fmt::Debug for dyn CostModel + Send + Sync {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn CostModel")
    }
}

/// Uniform costs: every deletion costs `deletion`, every change costs
/// `change`. With the defaults (1.0 / 1.0) deletion repairs minimise the
/// number of deleted tuples — the cardinality-repair objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantCost {
    /// Cost of one tuple deletion.
    pub deletion: f64,
    /// Cost of one cell change.
    pub change: f64,
}

impl Default for ConstantCost {
    fn default() -> Self {
        ConstantCost {
            deletion: 1.0,
            change: 1.0,
        }
    }
}

impl CostModel for ConstantCost {
    fn deletion_cost(&self, _tuple: &Tuple) -> f64 {
        self.deletion
    }

    fn change_cost(&self, _attr: &str, _old: &Value, _new: &Value) -> f64 {
        self.change
    }
}

/// Per-attribute change pricing: attributes listed in `per_attr` use their own
/// price, everything else uses `default_change`. Deleting a tuple costs
/// `deletion`.
#[derive(Debug, Clone, PartialEq)]
pub struct PerAttributeCost {
    /// Cost of one tuple deletion.
    pub deletion: f64,
    /// Change cost for attributes not listed in `per_attr`.
    pub default_change: f64,
    /// Attribute-specific change costs.
    pub per_attr: BTreeMap<String, f64>,
}

impl PerAttributeCost {
    /// A model with uniform deletion cost 1.0 and the given per-attribute
    /// change costs (default change cost 1.0).
    pub fn new(per_attr: impl IntoIterator<Item = (String, f64)>) -> Self {
        PerAttributeCost {
            deletion: 1.0,
            default_change: 1.0,
            per_attr: per_attr.into_iter().collect(),
        }
    }
}

impl CostModel for PerAttributeCost {
    fn deletion_cost(&self, _tuple: &Tuple) -> f64 {
        self.deletion
    }

    fn change_cost(&self, attr: &str, _old: &Value, _new: &Value) -> f64 {
        self.per_attr
            .get(attr)
            .copied()
            .unwrap_or(self.default_change)
    }
}

/// Edit-distance pricing: a change costs `per_edit` per Levenshtein edit
/// between the display renderings of the old and new value, with a floor of
/// `per_edit` for any actual change. Deleting a tuple costs `deletion`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EditDistanceCost {
    /// Cost of one tuple deletion.
    pub deletion: f64,
    /// Cost per character edit.
    pub per_edit: f64,
}

impl Default for EditDistanceCost {
    fn default() -> Self {
        EditDistanceCost {
            deletion: 4.0,
            per_edit: 1.0,
        }
    }
}

impl CostModel for EditDistanceCost {
    fn deletion_cost(&self, _tuple: &Tuple) -> f64 {
        self.deletion
    }

    fn change_cost(&self, _attr: &str, old: &Value, new: &Value) -> f64 {
        if old == new {
            return 0.0;
        }
        let distance = levenshtein(&render(old), &render(new)).max(1);
        self.per_edit * distance as f64
    }
}

fn render(value: &Value) -> String {
    match value {
        Value::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

/// Classic two-row Levenshtein distance over Unicode scalar values.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            curr[j + 1] = substitute.min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_cost_is_uniform() {
        let model = ConstantCost::default();
        let t = Tuple::from_iter(["a", "b"]);
        assert_eq!(model.deletion_cost(&t), 1.0);
        assert_eq!(
            model.change_cost("CT", &Value::str("x"), &Value::str("y")),
            1.0
        );
    }

    #[test]
    fn per_attribute_cost_prices_listed_attributes() {
        let model = PerAttributeCost::new([("AC".to_string(), 0.5)]);
        assert_eq!(
            model.change_cost("AC", &Value::str("518"), &Value::str("212")),
            0.5
        );
        assert_eq!(
            model.change_cost("CT", &Value::str("a"), &Value::str("b")),
            1.0
        );
    }

    #[test]
    fn edit_distance_cost_scales_with_distance() {
        let model = EditDistanceCost::default();
        assert_eq!(
            model.change_cost("AC", &Value::str("518"), &Value::str("519")),
            1.0
        );
        assert_eq!(
            model.change_cost("AC", &Value::str("518"), &Value::str("212")),
            2.0,
            "5→2 and 8→2 substitute, the middle 1 survives"
        );
        assert_eq!(
            model.change_cost("AC", &Value::str("x"), &Value::str("x")),
            0.0
        );
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "ab"), 2);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("Albany", "Albany"), 0);
    }
}
