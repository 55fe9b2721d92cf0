//! The four mapping scenarios of the paper's evaluation (Sec. VI).
//!
//! Each scenario bundles a source schema (with keys and referential
//! constraints), a nested target schema, the designer's correspondences,
//! and a deterministic synthetic data generator whose *value-diversity
//! profile* mimics the original dataset — the property that drives the
//! "% real Ie" column of Fig. 5 (TPC-H keys are dense and unique, so real
//! differentiating examples are rare; Mondial and Amalgam share many
//! values, so they are common).
//!
//! The original instances (the Mondial download, a scaled-down DBLP dump,
//! `dbgen` output and the Amalgam distribution) are not redistributable
//! here; see DESIGN.md for the substitution rationale.

#![forbid(unsafe_code)]

pub mod amalgam;
pub mod dblp;
pub mod gen;
pub mod mondial;
pub mod synth;
pub mod tpch;

use std::sync::Arc;

use muse_cliogen::{generate, Correspondence, ScenarioSpec};
use muse_mapping::{Mapping, MappingError};
use muse_nr::{Constraints, Instance, Schema};

/// A seeded instance generator: `(schema, scale, seed) -> instance`.
/// Shared (`Arc`) so cloning a scenario never clones a closure's captures.
pub(crate) type GeneratorFn = Arc<dyn Fn(&Schema, f64, u64) -> Instance + Send + Sync>;

/// A complete mapping scenario.
#[derive(Clone)]
pub struct Scenario {
    /// Scenario name (`Mondial`, `DBLP`, `TPCH`, `Amalgam`, or a synthetic
    /// `Synth-<seed>` fleet member).
    pub name: String,
    /// Source schema.
    pub source_schema: Schema,
    /// Source constraints (every nested set has at most one key, as the
    /// paper requires of all four scenarios).
    pub source_constraints: Constraints,
    /// Target schema.
    pub target_schema: Schema,
    /// Target constraints.
    pub target_constraints: Constraints,
    /// The designer's correspondences.
    pub correspondences: Vec<Correspondence>,
    /// Scale at which the generator approximates the paper's instance size
    /// (1 MB / 2.6 MB / 10 MB / 2 MB).
    pub default_scale: f64,
    generator: GeneratorFn,
}

impl Scenario {
    /// The generation spec for `muse_cliogen::generate`.
    pub fn spec(&self) -> ScenarioSpec<'_> {
        ScenarioSpec {
            source_schema: &self.source_schema,
            source_constraints: &self.source_constraints,
            target_schema: &self.target_schema,
            target_constraints: &self.target_constraints,
            correspondences: &self.correspondences,
        }
    }

    /// The Clio-generated candidate mappings of this scenario.
    pub fn mappings(&self) -> Result<Vec<Mapping>, MappingError> {
        generate(&self.spec())
    }

    /// A synthetic source instance at the given scale (1.0 ≈ the paper's
    /// size) and seed. The result satisfies all source constraints.
    pub fn instance(&self, scale: f64, seed: u64) -> Instance {
        (self.generator)(&self.source_schema, scale, seed)
    }

    /// An instance at the paper's size.
    pub fn instance_default(&self, seed: u64) -> Instance {
        self.instance(self.default_scale, seed)
    }

    /// Number of nested target sets (the "Target sets w/ grouping" column).
    pub fn target_sets_with_grouping(&self) -> usize {
        self.target_schema
            .set_paths_bfs()
            .iter()
            .filter(|p| p.depth() > 1)
            .count()
    }
}

/// All four scenarios, in the paper's order.
pub fn all_scenarios() -> Vec<Scenario> {
    vec![
        mondial::scenario(),
        dblp::scenario(),
        tpch::scenario(),
        amalgam::scenario(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_is_well_formed() {
        for s in all_scenarios() {
            assert!(s.source_schema.is_strictly_alternating(), "{}", s.name);
            assert!(s.target_schema.is_strictly_alternating(), "{}", s.name);
            s.source_constraints
                .validate_against_schema(&s.source_schema)
                .unwrap();
            s.target_constraints
                .validate_against_schema(&s.target_schema)
                .unwrap();
            for c in &s.correspondences {
                c.validate(&s.source_schema, &s.target_schema)
                    .unwrap_or_else(|e| panic!("{}: {c}: {e}", s.name));
            }
        }
    }

    #[test]
    fn every_scenario_has_single_keyed_sets() {
        // "In all source schemas, there is at most one key for each nested
        // set" (Sec. VI).
        use std::collections::BTreeMap;
        for s in all_scenarios() {
            let mut count: BTreeMap<String, usize> = BTreeMap::new();
            for k in &s.source_constraints.keys {
                *count.entry(k.set.to_string()).or_default() += 1;
            }
            assert!(count.values().all(|&c| c <= 1), "{}", s.name);
        }
    }

    #[test]
    fn mappings_generate_and_validate() {
        for s in all_scenarios() {
            let ms = s.mappings().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(!ms.is_empty(), "{}", s.name);
            for m in &ms {
                m.validate(&s.source_schema, &s.target_schema)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", s.name, m.name));
            }
        }
    }

    #[test]
    fn small_instances_satisfy_all_constraints() {
        for s in all_scenarios() {
            let inst = s.instance(0.02, 42);
            inst.validate(&s.source_schema)
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
            s.source_constraints
                .validate_instance(&s.source_schema, &inst)
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(inst.total_tuples() > 0, "{}", s.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for s in all_scenarios() {
            let a = s.instance(0.01, 7);
            let b = s.instance(0.01, 7);
            assert_eq!(a.total_tuples(), b.total_tuples(), "{}", s.name);
            assert_eq!(a.approx_bytes(), b.approx_bytes(), "{}", s.name);
        }
    }

    #[test]
    fn schemas_round_trip_through_the_text_format() {
        use muse_nr::text::{parse_schema, print_schema};
        for s in all_scenarios() {
            for (schema, cons) in [
                (&s.source_schema, &s.source_constraints),
                (&s.target_schema, &s.target_constraints),
            ] {
                let text = print_schema(schema, cons);
                let (schema2, cons2) =
                    parse_schema(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", s.name));
                assert_eq!(schema, &schema2, "{}", s.name);
                assert_eq!(cons, &cons2, "{}", s.name);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let s = mondial::scenario();
        let a = s.instance(0.01, 1);
        let b = s.instance(0.01, 2);
        assert_ne!(a.approx_bytes(), b.approx_bytes());
    }
}
