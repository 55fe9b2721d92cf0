//! The real-example search against its reference: every example a G2
//! session shows over the named scenarios (scale 0.05) is diffed against a
//! B×B nested loop over cloned bindings (`support/example_reference.rs`),
//! and so is every request of hand-built families that cover what the
//! scenarios may not: several probed classes at once, Muse-D `distinct`
//! pairs, a nested `for` clause and an empty B.

#[path = "support/example_reference.rs"]
mod example_reference;

use example_reference::{check_example, check_instance_only, check_session, oracle_for, RefTable};
use muse_obs::Rng;
use muse_suite::cliogen::GroupingStrategy;
use muse_suite::mapping::{parse_one, Mapping};
use muse_suite::nr::constraints::fdset::{all_attrs, attrs, iter_attrs};
use muse_suite::nr::{
    Constraints, Field, Instance, InstanceBuilder, Key, Schema, SetPath, Ty, Value,
};
use muse_suite::wizard::example::{build_example, ClassSpace, ExampleRequest};

#[test]
fn named_scenarios_match_the_reference() {
    for s in muse_suite::scenarios::all_scenarios() {
        let inst = s.instance(s.default_scale * 0.05, 1);
        let (probes, real) = check_session(&s, &inst, oracle_for(&s, GroupingStrategy::G2));
        assert!(probes > 0, "{}: no example was shown", s.name);
        assert!(real > 0, "{}: no real example was found", s.name);
        let unambiguous: Vec<Mapping> = s
            .mappings()
            .unwrap()
            .into_iter()
            .filter(|m| !m.is_ambiguous())
            .collect();
        check_instance_only(&s, &inst, &unambiguous);
    }
}

fn compdb() -> Schema {
    Schema::new(
        "CompDB",
        vec![
            Field::new(
                "Companies",
                Ty::set_of(vec![
                    Field::new("cid", Ty::Int),
                    Field::new("cname", Ty::Str),
                    Field::new("location", Ty::Str),
                ]),
            ),
            Field::new(
                "Projects",
                Ty::set_of(vec![
                    Field::new("pid", Ty::Str),
                    Field::new("pname", Ty::Str),
                    Field::new("cid", Ty::Int),
                    Field::new("manager", Ty::Str),
                ]),
            ),
            Field::new(
                "Employees",
                Ty::set_of(vec![
                    Field::new("eid", Ty::Str),
                    Field::new("ename", Ty::Str),
                    Field::new("contact", Ty::Str),
                ]),
            ),
        ],
    )
    .unwrap()
}

/// Values from small domains, so agreeing, differing and colliding rows
/// all occur; `projects == 0` leaves B empty.
fn compdb_instance(s: &Schema, seed: u64, projects: usize) -> Instance {
    let mut rng = Rng::new(seed);
    let mut b = InstanceBuilder::new(s);
    for cid in 0..6 {
        let name = format!("c{}", rng.below(3));
        let loc = format!("l{}", rng.below(2));
        b.push_top(
            "Companies",
            vec![Value::int(cid), Value::str(name), Value::str(loc)],
        );
    }
    for p in 0..projects {
        let pname = format!("p{}", rng.below(4));
        let cid = rng.range(0, 6);
        let mgr = format!("e{}", rng.below(5));
        b.push_top(
            "Projects",
            vec![
                Value::str(format!("P{p}")),
                Value::str(pname),
                Value::int(cid),
                Value::str(mgr),
            ],
        );
    }
    for e in 0..5 {
        // Some names equal some project names: `distinct` pairs across
        // columns must compare values, not column-local ids.
        let ename = if rng.chance(0.3) {
            format!("p{}", rng.below(4))
        } else {
            format!("n{}", rng.below(3))
        };
        b.push_top(
            "Employees",
            vec![
                Value::str(format!("e{e}")),
                Value::str(ename),
                Value::str(format!("x{}", rng.below(2))),
            ],
        );
    }
    b.finish().unwrap()
}

fn comp_mapping() -> Mapping {
    parse_one(
        "m: for c in CompDB.Companies, p in CompDB.Projects, e in CompDB.Employees
            satisfy p.cid = c.cid and e.eid = p.manager
            exists o in T.Orgs
            where c.cname = o.oname",
    )
    .unwrap()
}

/// Every request of a family over one mapping: each class probed alone and
/// with the next class (several probed classes), against the full, the
/// empty and a random agree set, with and without `distinct` pairs, plus
/// the one-copy (Muse-D) form of each `distinct` set.
fn check_family(s: &Schema, cons: &Constraints, inst: &Instance, m: &Mapping, seed: u64) -> usize {
    let space = ClassSpace::new(m, s, cons).unwrap();
    let reference = RefTable::new(s, inst, m, &space);
    let n = space.len();
    let reps: Vec<usize> = (0..n).filter(|&i| space.rep(i) == i).collect();
    let mut rng = Rng::new(seed);
    let distinct_sets: Vec<Vec<(usize, usize)>> = vec![
        vec![],
        vec![(0, n - 1)],
        vec![(rng.index(n), rng.index(n)), (rng.index(n), rng.index(n))],
    ];
    let mut checked = 0;
    for (k, &a) in reps.iter().enumerate() {
        let b = reps[(k + 1) % reps.len()];
        for differ in [vec![a], vec![a, b]] {
            let probed = attrs(differ.iter().copied());
            let random = attrs((0..n).filter(|_| rng.chance(0.5)));
            for agree in [all_attrs(n), 0, random] {
                // Agree only on classes none of the probed ones share.
                let agree = iter_attrs(agree)
                    .filter(|&i| probed & attrs([space.rep(i)]) == 0)
                    .fold(0, |acc, i| acc | attrs([i]));
                for distinct in &distinct_sets {
                    let req = ExampleRequest {
                        copies: 2,
                        agree,
                        differ: differ.clone(),
                        distinct: distinct.clone(),
                        real_budget: None,
                    };
                    let ex = build_example(m, &space, &req, s, Some(inst)).unwrap();
                    check_example(s, cons, inst, m, &ex, &format!("{req:?}"));
                    checked += 1;
                }
            }
        }
    }
    for distinct in &distinct_sets {
        let req = ExampleRequest {
            copies: 1,
            distinct: distinct.clone(),
            ..ExampleRequest::default()
        };
        let ex = build_example(m, &space, &req, s, Some(inst)).unwrap();
        check_example(s, cons, inst, m, &ex, &format!("{req:?}"));
        assert_eq!(ex.real, reference.pick(&space, &req).is_some());
        checked += 1;
    }
    checked
}

#[test]
fn hand_built_requests_match_the_reference() {
    let s = compdb();
    let m = comp_mapping();
    let keyed = Constraints {
        keys: vec![
            Key::new(SetPath::parse("Companies"), vec!["cid"]),
            Key::new(SetPath::parse("Employees"), vec!["eid"]),
        ],
        fds: vec![],
        fks: vec![],
    };
    let mut checked = 0;
    for seed in 0..12 {
        let inst = compdb_instance(&s, seed, 14);
        for cons in [Constraints::none(), keyed.clone()] {
            checked += check_family(&s, &cons, &inst, &m, seed);
        }
    }
    // An empty B: no project joins anything, so every request is synthetic.
    let empty = compdb_instance(&s, 99, 0);
    let space = ClassSpace::new(&m, &s, &Constraints::none()).unwrap();
    assert_eq!(RefTable::new(&s, &empty, &m, &space).len(), 0);
    checked += check_family(&s, &Constraints::none(), &empty, &m, 99);
    assert!(checked > 1000, "only {checked} requests checked");
}

#[test]
fn nested_for_clause_matches_the_reference() {
    let s = Schema::new(
        "S",
        vec![Field::new(
            "Depts",
            Ty::set_of(vec![
                Field::new("dname", Ty::Str),
                Field::new("budget", Ty::Int),
                Field::new(
                    "Staff",
                    Ty::set_of(vec![
                        Field::new("sname", Ty::Str),
                        Field::new("grade", Ty::Int),
                    ]),
                ),
            ]),
        )],
    )
    .unwrap();
    let m = parse_one(
        "m: for d in S.Depts, t in d.Staff
            exists p in T.People
            where t.sname = p.name",
    )
    .unwrap();
    for seed in 0..12 {
        let mut rng = Rng::new(seed);
        let mut b = InstanceBuilder::new(&s);
        for d in 0..4 {
            let dname = format!("d{d}");
            let staff = b.group("Depts.Staff", vec![Value::str(&dname)]);
            for _ in 0..rng.below(4) {
                let sname = format!("s{}", rng.below(3));
                b.push(staff, vec![Value::str(sname), Value::int(rng.range(0, 2))]);
            }
            b.push_top(
                "Depts",
                vec![
                    Value::str(dname),
                    Value::int(rng.range(0, 2)),
                    Value::Set(staff),
                ],
            );
        }
        let inst = b.finish().unwrap();
        check_family(&s, &Constraints::none(), &inst, &m, seed);
    }
}
