//! Sec. III-C, "Designing grouping functions only for the instance I":
//! when the designer only cares about the current source instance, an
//! attribute whose value is constant across *all* bindings of the mapping's
//! `for` clause can never split any group — its inclusion or exclusion in
//! any grouping function is inconsequential for `I`, so Muse-G need not
//! probe it.

use muse_mapping::Mapping;
use muse_nr::constraints::fdset::{attrs, AttrSet};
use muse_nr::{Instance, Schema, Value};
use muse_obs::Outcome;
use muse_query::EvalReq;

use crate::error::WizardError;
use crate::example::ClassSpace;

/// The poss indices that are inconsequential for `real`: constant across
/// every binding (including the degenerate case of zero bindings, where
/// every attribute is inconsequential). An evaluation cut short (an
/// injected `query.eval` fault) proves nothing constant, so none is
/// pruned — the answer Muse-G uses when the analysis is off.
pub fn inconsequential_attrs(
    m: &Mapping,
    space: &ClassSpace,
    source_schema: &Schema,
    real: &Instance,
) -> Result<AttrSet, WizardError> {
    let Outcome::Complete(bindings) =
        EvalReq::default().run(source_schema, real, &m.source_query())?
    else {
        return Ok(0);
    };
    let mut out: AttrSet = 0;
    for (i, r) in space.poss.iter().enumerate() {
        let idx = source_schema
            .attr_index(&m.source_vars[r.var].set, &r.attr)
            .map_err(WizardError::Nr)?;
        let mut first: Option<&Value> = None;
        let mut constant = true;
        for b in &bindings {
            let v = &b[r.var][idx];
            match first {
                None => first = Some(v),
                Some(f) if f == v => {}
                Some(_) => {
                    constant = false;
                    break;
                }
            }
        }
        if constant {
            out |= attrs([i]);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_mapping::parse_one;
    use muse_nr::{Constraints, Field, InstanceBuilder, Ty};

    fn schema() -> Schema {
        Schema::new(
            "S",
            vec![Field::new(
                "Companies",
                Ty::set_of(vec![
                    Field::new("cid", Ty::Int),
                    Field::new("cname", Ty::Str),
                    Field::new("location", Ty::Str),
                ]),
            )],
        )
        .unwrap()
    }

    fn mapping() -> Mapping {
        parse_one("m: for c in S.Companies exists o in T.Orgs where c.cname = o.oname").unwrap()
    }

    #[test]
    fn constant_attribute_is_inconsequential() {
        let s = schema();
        let mut b = InstanceBuilder::new(&s);
        // All companies share the location; cids and names vary.
        b.push_top(
            "Companies",
            vec![Value::int(1), Value::str("IBM"), Value::str("NY")],
        );
        b.push_top(
            "Companies",
            vec![Value::int(2), Value::str("SBC"), Value::str("NY")],
        );
        let inst = b.finish().unwrap();
        let m = mapping();
        let space = ClassSpace::new(&m, &s, &Constraints::none()).unwrap();
        let inc = inconsequential_attrs(&m, &space, &s, &inst).unwrap();
        let loc = space
            .index_of(&muse_mapping::PathRef::new(0, "location"))
            .unwrap();
        let cid = space
            .index_of(&muse_mapping::PathRef::new(0, "cid"))
            .unwrap();
        assert_ne!(
            inc & attrs([loc]),
            0,
            "constant location is inconsequential"
        );
        assert_eq!(inc & attrs([cid]), 0, "varying cid is not");
    }

    #[test]
    fn empty_instance_makes_everything_inconsequential() {
        let s = schema();
        let inst = Instance::new(&s);
        let m = mapping();
        let space = ClassSpace::new(&m, &s, &Constraints::none()).unwrap();
        let inc = inconsequential_attrs(&m, &space, &s, &inst).unwrap();
        assert_eq!(inc, attrs([0, 1, 2]));
    }
}
