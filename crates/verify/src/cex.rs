//! Counterexample extraction and formatting.
//!
//! When the checker finds a satisfiable miter it walks one satisfying path
//! of the BDD ([`Bdd::satisfy_one`]) and decodes the synthetic variables
//! back into *named* input and state words via the checker's variable
//! table. The result is a [`Counterexample`]: a human-readable witness
//! that doubles as a [`VectorAssignment`] for concrete replay on either
//! netlist.

use crate::symb::{VarKind, VarTable};
use oiso_boolex::{Bdd, BddRef};
use oiso_sim::replay::VectorAssignment;
use std::collections::BTreeMap;
use std::fmt;

/// A concrete single-cycle witness of non-equivalence.
///
/// `observable` names the disagreeing bit: `"q[3]"` for bit 3 of primary
/// output `q`, `"q'[3]"` for bit 3 of the *next state* stored into the
/// stateful cell driving net `q`. Variables the satisfying path never
/// branched on are don't-cares and default to 0, matching the replay
/// engine's reset default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The observable bit where the two netlists disagree.
    pub observable: String,
    /// `(primary input name, value)`, sorted by name.
    pub inputs: Vec<(String, u64)>,
    /// `(stateful output net name, current state value)`, sorted by name.
    pub states: Vec<(String, u64)>,
}

impl Counterexample {
    /// Converts the witness into a replayable stimulus vector.
    pub fn to_vector(&self) -> VectorAssignment {
        VectorAssignment {
            inputs: self.inputs.clone(),
            states: self.states.clone(),
        }
    }

    /// The recorded value of input `name`, if mentioned.
    pub fn input(&self, name: &str) -> Option<u64> {
        self.inputs.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The recorded value of state `name`, if mentioned.
    pub fn state(&self, name: &str) -> Option<u64> {
        self.states.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counterexample at observable {}", self.observable)?;
        writeln!(f, "  inputs:")?;
        if self.inputs.is_empty() {
            writeln!(f, "    (none)")?;
        }
        for (name, value) in &self.inputs {
            writeln!(f, "    {name} = {value}")?;
        }
        writeln!(f, "  states:")?;
        if self.states.is_empty() {
            writeln!(f, "    (none)")?;
        }
        for (name, value) in &self.states {
            writeln!(f, "    {name} = {value}")?;
        }
        Ok(())
    }
}

/// Decodes one satisfying path of `witness` into a [`Counterexample`].
///
/// Returns `None` when `witness` is unsatisfiable (FALSE) — callers only
/// invoke this on miters already known non-FALSE.
pub(crate) fn extract(
    bdd: &Bdd,
    table: &VarTable,
    witness: BddRef,
    observable: &str,
) -> Option<Counterexample> {
    let path = bdd.satisfy_one(witness)?;
    let mut inputs: BTreeMap<String, u64> = BTreeMap::new();
    let mut states: BTreeMap<String, u64> = BTreeMap::new();
    for (sig, value) in path {
        let entry = table.decode(sig);
        let word = match entry.kind {
            VarKind::Input => inputs.entry(entry.name.clone()).or_default(),
            VarKind::State => states.entry(entry.name.clone()).or_default(),
            // Cut variables never reach extraction: abstract-check
            // disagreements are re-proved concretely before a witness is
            // reported. Skip defensively rather than fabricate an input.
            VarKind::Cut => continue,
        };
        if value {
            *word |= 1 << entry.bit;
        }
    }
    Some(Counterexample {
        observable: observable.to_string(),
        inputs: inputs.into_iter().collect(),
        states: states.into_iter().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_sorted_and_deterministic() {
        let cex = Counterexample {
            observable: "q'[2]".into(),
            inputs: vec![("a".into(), 5), ("g".into(), 1)],
            states: vec![("q".into(), 9)],
        };
        let text = cex.to_string();
        assert_eq!(
            text,
            "counterexample at observable q'[2]\n  inputs:\n    a = 5\n    g = 1\n  states:\n    q = 9\n"
        );
    }

    #[test]
    fn display_marks_empty_sections() {
        let cex = Counterexample {
            observable: "s[0]".into(),
            inputs: vec![],
            states: vec![],
        };
        assert!(cex.to_string().contains("    (none)"));
    }

    #[test]
    fn to_vector_round_trips() {
        let cex = Counterexample {
            observable: "q[0]".into(),
            inputs: vec![("x".into(), 3)],
            states: vec![("q".into(), 7)],
        };
        let v = cex.to_vector();
        assert_eq!(v.inputs, vec![("x".to_string(), 3)]);
        assert_eq!(v.states, vec![("q".to_string(), 7)]);
        assert_eq!(cex.input("x"), Some(3));
        assert_eq!(cex.state("q"), Some(7));
        assert_eq!(cex.input("y"), None);
    }
}
