//! Sec. III-C, "Designing grouping functions only for the instance I":
//! when the designer only cares about the current source instance, an
//! attribute whose value is constant across *all* bindings of the mapping's
//! `for` clause can never split any group — its inclusion or exclusion in
//! any grouping function is inconsequential for `I`, so Muse-G need not
//! probe it.

use muse_nr::constraints::fdset::{attrs, AttrSet};

use crate::table::BindingTable;

/// The poss indices that are inconsequential on the instance `table` was
/// built from: those whose id column is constant (including the degenerate
/// case of zero bindings, where every attribute is inconsequential). With
/// no table — its build was cut short, say by an injected `query.eval`
/// fault — nothing is proved constant and nothing is pruned, the answer
/// Muse-G uses when the analysis is off.
pub fn inconsequential_attrs(table: Option<&BindingTable>) -> AttrSet {
    let Some(table) = table else {
        return 0;
    };
    let mut out: AttrSet = 0;
    for c in 0..table.width() {
        let first = (!table.is_empty()).then(|| table.id(0, c));
        if (1..table.len()).all(|r| Some(table.id(r, c)) == first) {
            out |= attrs([c]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::ClassSpace;
    use muse_mapping::{parse_one, Mapping};
    use muse_nr::{Constraints, Field, Instance, InstanceBuilder, Schema, Ty, Value};
    use muse_query::EvalReq;

    fn analyse(m: &Mapping, space: &ClassSpace, s: &Schema, inst: &Instance) -> AttrSet {
        let table = BindingTable::build(m, space, s, inst, &EvalReq::default()).unwrap();
        inconsequential_attrs(table.as_ref())
    }

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
        let inc = analyse(&m, &space, &s, &inst);
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
        let inc = analyse(&m, &space, &s, &inst);
        assert_eq!(inc, attrs([0, 1, 2]));
    }
}
