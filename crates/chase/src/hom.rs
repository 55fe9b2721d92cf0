//! Homomorphisms between instances (Sec. II).
//!
//! `h : J → J'` maps every tuple of `J` into `J'` such that:
//! (i) `h(c) = c` for constants, (ii) `h(D)` is a SetID of the same set type
//! as `D`, and (iii) `h(N)` is a constant or labeled null when `N` is a
//! labeled null. `J` and `J'` are *homomorphically equivalent* when
//! homomorphisms exist both ways, and *isomorphic* when one-to-one
//! homomorphisms exist both ways — the notion Muse-G's differentiating
//! scenarios rely on ("it is always possible to distinguish between such
//! instances, as they are non-isomorphic").

use std::collections::{BTreeMap, BTreeSet};

use muse_nr::{Instance, NullId, SetId, Tuple, Value};
use muse_obs::Metrics;

/// A witness homomorphism from instance `a` to instance `b`.
#[derive(Debug, Clone, Default)]
pub struct Homomorphism {
    /// SetID mapping (total on `a`'s SetIDs).
    pub set_map: BTreeMap<SetId, SetId>,
    /// Labeled-null mapping (total on the nulls reachable in `a`'s tuples).
    pub null_map: BTreeMap<NullId, Value>,
}

/// Find a homomorphism from `a` to `b`, if any.
pub fn find_homomorphism(a: &Instance, b: &Instance) -> Option<Homomorphism> {
    solve(a, b, false)
}

/// Find a one-to-one homomorphism from `a` to `b` (SetIDs injective, nulls
/// map injectively to nulls), if any.
pub fn find_injective_homomorphism(a: &Instance, b: &Instance) -> Option<Homomorphism> {
    solve(a, b, true)
}

/// Homomorphisms exist in both directions.
pub fn homomorphically_equivalent(a: &Instance, b: &Instance) -> bool {
    find_homomorphism(a, b).is_some() && find_homomorphism(b, a).is_some()
}

/// One-to-one homomorphisms exist in both directions. For finite instances
/// with injective value mappings this coincides with isomorphism.
///
/// A fingerprint comparison ([`crate::fingerprint()`]) decides the (common)
/// negative case without any search.
pub fn isomorphic(a: &Instance, b: &Instance) -> bool {
    isomorphic_with(a, b, &Metrics::disabled())
}

/// Like [`isomorphic`], reporting through `metrics`:
///
/// * `iso.checks` — isomorphism checks performed,
/// * `iso.fingerprint_reject` — checks decided negatively by the
///   fingerprint fast path, with no search,
/// * `iso.full_search` — checks that needed the full injective-homomorphism
///   search (both directions),
/// * `iso.search_time` — wall-clock spans of those full searches.
pub fn isomorphic_with(a: &Instance, b: &Instance, metrics: &Metrics) -> bool {
    metrics.incr("iso.checks");
    if crate::fingerprint::fingerprint(a) != crate::fingerprint::fingerprint(b) {
        metrics.incr("iso.fingerprint_reject");
        return false;
    }
    metrics.incr("iso.full_search");
    metrics.timer("iso.search_time").time(|| {
        find_injective_homomorphism(a, b).is_some() && find_injective_homomorphism(b, a).is_some()
    })
}

struct State<'x> {
    a: &'x Instance,
    b: &'x Instance,
    injective: bool,
    set_map: BTreeMap<SetId, SetId>,
    used_sets: BTreeSet<SetId>,
    null_map: BTreeMap<NullId, Value>,
    used_null_images: BTreeSet<Value>,
}

/// The search derives set assignments from tuple matching: roots are forced
/// by label, and whenever a tuple maps onto an image, its set-valued fields
/// force the assignments of the referenced sets (whose tuples then become
/// new obligations). Only per-tuple image choices branch, so chase outputs —
/// trees of many small sets — are matched in near-linear time instead of
/// enumerating every set pairing. Sets unreachable from any tuple fall back
/// to candidate enumeration at the end.
fn solve(a: &Instance, b: &Instance, injective: bool) -> Option<Homomorphism> {
    let mut st = State {
        a,
        b,
        injective,
        set_map: BTreeMap::new(),
        used_sets: BTreeSet::new(),
        null_map: BTreeMap::new(),
        used_null_images: BTreeSet::new(),
    };
    // Roots are anchored by label.
    let mut obls: Vec<(SetId, Tuple)> = Vec::new();
    for (label, ra) in a.roots() {
        let rb = b.root_id(label)?;
        if injective && a.set_len(ra) > b.set_len(rb) {
            return None;
        }
        st.set_map.insert(ra, rb);
        st.used_sets.insert(rb);
        obls.extend(a.tuples(ra).map(|t| (ra, t.clone())));
    }
    if go(&mut st, &mut obls, 0) {
        Some(Homomorphism {
            set_map: st.set_map,
            null_map: st.null_map,
        })
    } else {
        None
    }
}

fn go(st: &mut State<'_>, obls: &mut Vec<(SetId, Tuple)>, i: usize) -> bool {
    if i == obls.len() {
        return assign_leftovers(st, obls, i);
    }
    let (sa, ta) = obls[i].clone();
    let db = st.set_map[&sa];
    let images: Vec<Tuple> = st.b.tuples(db).cloned().collect();
    for tb in &images {
        let saved = obls.len();
        if let Some(undo) = try_match(st, &ta, tb, obls) {
            if go(st, obls, i + 1) {
                return true;
            }
            rollback(st, undo);
            obls.truncate(saved);
        }
    }
    false
}

/// Assign sets no tuple references (rare outside hand-built instances).
fn assign_leftovers(st: &mut State<'_>, obls: &mut Vec<(SetId, Tuple)>, i: usize) -> bool {
    let Some(sa) = st.a.set_ids().find(|id| !st.set_map.contains_key(id)) else {
        return true;
    };
    let path = st.a.store().set_term(sa).set.clone();
    let candidates: Vec<SetId> = st.b.set_ids_of(&path);
    for cand in candidates {
        if st.injective {
            if st.used_sets.contains(&cand) {
                continue;
            }
            if st.a.set_len(sa) > st.b.set_len(cand) {
                continue;
            }
        }
        st.set_map.insert(sa, cand);
        st.used_sets.insert(cand);
        let saved = obls.len();
        obls.extend(st.a.tuples(sa).map(|t| (sa, t.clone())));
        if go(st, obls, i) {
            return true;
        }
        obls.truncate(saved);
        st.set_map.remove(&sa);
        st.used_sets.remove(&cand);
    }
    false
}

/// Undo record for assignments made while matching one tuple.
struct Undo {
    nulls: Vec<NullId>,
    sets: Vec<SetId>,
}

fn rollback(st: &mut State<'_>, undo: Undo) {
    for n in undo.nulls {
        if let Some(v) = st.null_map.remove(&n) {
            st.used_null_images.remove(&v);
        }
    }
    for s in undo.sets {
        if let Some(t) = st.set_map.remove(&s) {
            st.used_sets.remove(&t);
        }
    }
}

fn try_match(
    st: &mut State<'_>,
    ta: &Tuple,
    tb: &Tuple,
    obls: &mut Vec<(SetId, Tuple)>,
) -> Option<Undo> {
    if ta.len() != tb.len() {
        return None;
    }
    let mut undo = Undo {
        nulls: Vec::new(),
        sets: Vec::new(),
    };
    for (va, vb) in ta.iter().zip(tb) {
        if !match_value(st, va, vb, &mut undo, obls) {
            rollback(st, undo);
            return None;
        }
    }
    Some(undo)
}

fn match_value(
    st: &mut State<'_>,
    va: &Value,
    vb: &Value,
    undo: &mut Undo,
    obls: &mut Vec<(SetId, Tuple)>,
) -> bool {
    match (va, vb) {
        (Value::Atom(x), Value::Atom(y)) => x == y,
        (Value::Set(s), Value::Set(t)) => {
            if let Some(mapped) = st.set_map.get(s) {
                return mapped == t;
            }
            // Forced assignment: h(s) must be t.
            if st.a.store().set_term(*s).set != st.b.store().set_term(*t).set {
                return false;
            }
            if st.injective {
                if st.used_sets.contains(t) {
                    return false;
                }
                if st.a.set_len(*s) > st.b.set_len(*t) {
                    return false;
                }
            }
            st.set_map.insert(*s, *t);
            st.used_sets.insert(*t);
            undo.sets.push(*s);
            obls.extend(st.a.tuples(*s).map(|tp| (*s, tp.clone())));
            true
        }
        (Value::Null(n), v) => {
            if let Some(existing) = st.null_map.get(n) {
                return existing == v;
            }
            match v {
                Value::Atom(_) | Value::Null(_) => {
                    if st.injective {
                        if !matches!(v, Value::Null(_)) {
                            return false; // one-to-one: nulls map to nulls
                        }
                        if st.used_null_images.contains(v) {
                            return false;
                        }
                    }
                    st.null_map.insert(*n, v.clone());
                    st.used_null_images.insert(v.clone());
                    undo.nulls.push(*n);
                    true
                }
                _ => false, // nulls never map to SetIDs
            }
        }
        (Value::Choice(la, ia), Value::Choice(lb, ib)) => {
            la == lb && match_value(st, ia, ib, undo, obls)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_nr::{Field, InstanceBuilder, Schema, Ty};

    fn schema() -> Schema {
        Schema::new(
            "T",
            vec![Field::new(
                "Orgs",
                Ty::set_of(vec![
                    Field::new("oname", Ty::Str),
                    Field::new("Projects", Ty::set_of(vec![Field::new("pname", Ty::Str)])),
                ]),
            )],
        )
        .unwrap()
    }

    fn org_instance(groups: &[(&str, &[&str])]) -> Instance {
        let s = schema();
        let mut b = InstanceBuilder::new(&s);
        for (oname, projects) in groups {
            let id = b.group("Orgs.Projects", vec![Value::str(*oname)]);
            for p in *projects {
                b.push(id, vec![Value::str(*p)]);
            }
            b.push_top("Orgs", vec![Value::str(*oname), Value::Set(id)]);
        }
        b.finish().unwrap()
    }

    #[test]
    fn identical_instances_are_isomorphic() {
        let a = org_instance(&[("IBM", &["DB", "Web"]), ("SBC", &["WiFi"])]);
        let b = org_instance(&[("IBM", &["DB", "Web"]), ("SBC", &["WiFi"])]);
        assert!(isomorphic(&a, &b));
        assert!(homomorphically_equivalent(&a, &b));
    }

    #[test]
    fn different_grouping_is_not_isomorphic_but_maps_one_way() {
        // a: both projects in one set; b: projects split per-set under two
        // orgs with the same name — same flat data, different grouping.
        let a = org_instance(&[("IBM", &["DB", "Web"])]);
        let s = schema();
        let mut bb = InstanceBuilder::new(&s);
        let g1 = bb.group("Orgs.Projects", vec![Value::int(1)]);
        let g2 = bb.group("Orgs.Projects", vec![Value::int(2)]);
        bb.push(g1, vec![Value::str("DB")]);
        bb.push(g2, vec![Value::str("Web")]);
        bb.push_top("Orgs", vec![Value::str("IBM"), Value::Set(g1)]);
        bb.push_top("Orgs", vec![Value::str("IBM"), Value::Set(g2)]);
        let b = bb.finish().unwrap();

        assert!(!isomorphic(&a, &b));
        // b → a: each singleton set maps into the big one. a → b: the big
        // set cannot map (its two tuples would need to land in one set).
        assert!(find_homomorphism(&b, &a).is_some());
        assert!(find_homomorphism(&a, &b).is_none());
    }

    #[test]
    fn nulls_rename_under_isomorphism() {
        let s = schema();
        let make = |tag: &str| {
            let mut b = InstanceBuilder::new(&s);
            let g = b.group("Orgs.Projects", vec![]);
            let mut inst_b = b.finish_unchecked();
            let n = inst_b.store_mut().null_id(tag, vec![]);
            let orgs = inst_b.root_id("Orgs").unwrap();
            inst_b.insert(orgs, vec![Value::Null(n), Value::Set(g)]);
            inst_b
        };
        let a = make("n-a");
        let b = make("completely-different-tag");
        assert!(isomorphic(&a, &b));
    }

    #[test]
    fn null_maps_to_constant_in_plain_homomorphism_only() {
        let s = schema();
        // a has (NULL, g); b has ("IBM", g).
        let mut ba = InstanceBuilder::new(&s);
        let ga = ba.group("Orgs.Projects", vec![]);
        let mut a = ba.finish_unchecked();
        let n = a.store_mut().null_id("x", vec![]);
        let orgs = a.root_id("Orgs").unwrap();
        a.insert(orgs, vec![Value::Null(n), Value::Set(ga)]);

        let b = org_instance(&[("IBM", &[])]);
        assert!(find_homomorphism(&a, &b).is_some());
        assert!(find_injective_homomorphism(&a, &b).is_none());
        // And not the other way: IBM is a constant, constants map to
        // themselves, but a has no IBM tuple.
        assert!(find_homomorphism(&b, &a).is_none());
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn two_nulls_cannot_merge_injectively() {
        let s = schema();
        let mut ba = InstanceBuilder::new(&s);
        let g = ba.group("Orgs.Projects", vec![]);
        let mut a = ba.finish_unchecked();
        let n1 = a.store_mut().null_id("n1", vec![]);
        let n2 = a.store_mut().null_id("n2", vec![]);
        let orgs = a.root_id("Orgs").unwrap();
        a.insert(orgs, vec![Value::Null(n1), Value::Set(g)]);
        a.insert(orgs, vec![Value::Null(n2), Value::Set(g)]);

        let mut bb = InstanceBuilder::new(&s);
        let gb = bb.group("Orgs.Projects", vec![]);
        let mut b = bb.finish_unchecked();
        let m1 = b.store_mut().null_id("m1", vec![]);
        let orgsb = b.root_id("Orgs").unwrap();
        b.insert(orgsb, vec![Value::Null(m1), Value::Set(gb)]);

        // a → b collapses n1, n2 onto m1: fine for plain homomorphism.
        assert!(find_homomorphism(&a, &b).is_some());
        // But not one-to-one.
        assert!(find_injective_homomorphism(&a, &b).is_none());
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn empty_instances_are_isomorphic() {
        let s = schema();
        let a = Instance::new(&s);
        let b = Instance::new(&s);
        assert!(isomorphic(&a, &b));
    }

    #[test]
    fn subset_maps_into_superset() {
        let a = org_instance(&[("IBM", &["DB"])]);
        let b = org_instance(&[("IBM", &["DB", "Web"]), ("SBC", &["WiFi"])]);
        assert!(find_homomorphism(&a, &b).is_some());
        assert!(find_homomorphism(&b, &a).is_none());
        assert!(!homomorphically_equivalent(&a, &b));
    }
}
