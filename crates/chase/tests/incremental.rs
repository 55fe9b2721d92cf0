//! Incremental-vs-scratch chase differentials (ROADMAP item 2).
//!
//! The [`muse_chase::DeltaStore`] contract is *byte identity*: whatever the
//! scratch chase produces — renderings, `Debug` state, `TermStore` null and
//! SetID numbering — the incremental path must reproduce exactly, across
//! materialization, retract/assert deltas, delete/rederive cycles, restored
//! snapshots and large re-fires. These tests drive all of that over the
//! four paper scenarios plus a hand-built high-volume scenario. The store
//! is reached the way the wizards reach it: through a [`ChaseReq`] whose
//! `delta` field is set.

use muse_chase::{chase_one, ChaseReq, DeltaStore};
use muse_mapping::Mapping;
use muse_nr::{display, Atom, Instance, Schema, Value};
use muse_obs::{Metrics, Outcome, Rng};
use muse_scenarios::{all_scenarios, Scenario};

/// Ambiguity resolved to the first interpretation, groupings defaulted —
/// the same normalization the bench drivers use.
fn ready_mappings(s: &Scenario) -> Vec<Mapping> {
    let mut ms: Vec<Mapping> = s
        .mappings()
        .expect("scenario mappings generate")
        .iter()
        .map(|m| {
            if m.is_ambiguous() {
                let picks = vec![0usize; muse_mapping::ambiguity::or_groups(m).len()];
                muse_mapping::ambiguity::select(m, &picks).expect("first interpretation")
            } else {
                m.clone()
            }
        })
        .collect();
    for m in &mut ms {
        m.ensure_default_groupings(&s.target_schema, &s.source_schema)
            .expect("default groupings");
    }
    ms
}

/// Byte-level identity: full `Debug` state (covers the `TermStore` id
/// numbering) plus the designer-facing rendering.
fn assert_identical(schema: &Schema, scratch: &Instance, incremental: &Instance, what: &str) {
    assert_eq!(
        display::render(schema, scratch),
        display::render(schema, incremental),
        "render mismatch: {what}"
    );
    assert_eq!(
        display::dump(scratch),
        display::dump(incremental),
        "byte mismatch: {what}"
    );
}

fn incremental_chase(
    store: &DeltaStore,
    s: &Scenario,
    inst: &Instance,
    m: &Mapping,
    metrics: &Metrics,
) -> Instance {
    store_chase(store, &s.source_schema, &s.target_schema, inst, m, metrics)
}

fn store_chase(
    store: &DeltaStore,
    source_schema: &Schema,
    target_schema: &Schema,
    inst: &Instance,
    m: &Mapping,
    metrics: &Metrics,
) -> Instance {
    let req = ChaseReq {
        metrics,
        delta: Some(store),
        ..ChaseReq::default()
    };
    match req
        .run(source_schema, target_schema, inst, std::slice::from_ref(m))
        .expect("incremental chase")
    {
        Outcome::Complete(t) => t,
        Outcome::Truncated { .. } => panic!("unlimited budget truncated"),
    }
}

/// Perturb one flat root set: remove a seeded existing tuple and insert a
/// mutated copy of another. Returns false when the instance has no
/// populated root to mutate.
fn perturb(inst: &mut Instance, rng: &mut Rng) -> bool {
    let roots: Vec<_> = inst.roots().map(|(_, id)| id).collect();
    let populated: Vec<_> = roots
        .into_iter()
        .filter(|&id| inst.set_len(id) > 0)
        .collect();
    if populated.is_empty() {
        return false;
    }
    let id = *rng.pick(&populated);
    let tuples: Vec<_> = inst.tuples(id).cloned().collect();
    let victim = rng.pick(&tuples).clone();
    inst.remove(id, &victim);
    let mut mutated = rng.pick(&tuples).clone();
    let salt = rng.below(1 << 20) as i64;
    for v in &mut mutated {
        match v {
            Value::Atom(Atom::Int(i)) => *v = Value::int(*i + salt),
            Value::Atom(Atom::Str(s)) => *v = Value::str(format!("{s}-d{salt}")),
            _ => {}
        }
    }
    inst.insert(id, mutated);
    true
}

/// Every scenario, several seeds: materialize, then a run of retract/assert
/// deltas; after every step the incremental chase must be byte-identical to
/// a scratch chase of the same instance, and the counters must reconcile
/// (`steps + rederived == bindings == scratch steps`).
#[test]
fn incremental_matches_scratch_across_scenarios() {
    for s in all_scenarios() {
        for seed in [0u64, 7] {
            let mut inst = s.instance(0.02 * s.default_scale, seed);
            let store = DeltaStore::new();
            let mut rng = Rng::new(seed ^ 0xD31A);
            let mappings = ready_mappings(&s);
            for step in 0..3 {
                for m in &mappings {
                    let scratch_metrics = Metrics::enabled();
                    let scratch = ChaseReq {
                        metrics: &scratch_metrics,
                        ..ChaseReq::default()
                    }
                    .run(
                        &s.source_schema,
                        &s.target_schema,
                        &inst,
                        std::slice::from_ref(m),
                    )
                    .expect("scratch chase")
                    .into_value();
                    let inc_metrics = Metrics::enabled();
                    let inc = incremental_chase(&store, &s, &inst, m, &inc_metrics);
                    assert_identical(
                        &s.target_schema,
                        &scratch,
                        &inc,
                        &format!("{}/{} seed {seed} step {step}", s.name, m.name),
                    );
                    let ss = scratch_metrics.snapshot();
                    let is = inc_metrics.snapshot();
                    if is.counter("chase.delta_fallbacks") == 0 {
                        assert_eq!(
                            is.counter("chase.steps") + is.counter("chase.rederived"),
                            ss.counter("chase.steps"),
                            "{}/{}: counter reconciliation",
                            s.name,
                            m.name
                        );
                        assert_eq!(is.counter("chase.bindings"), ss.counter("chase.bindings"));
                        assert_eq!(
                            is.counter("chase.tuples_emitted"),
                            ss.counter("chase.tuples_emitted")
                        );
                        assert_eq!(
                            is.counter("chase.dedup_hits"),
                            ss.counter("chase.dedup_hits")
                        );
                    }
                }
                if !perturb(&mut inst, &mut rng) {
                    break;
                }
            }
        }
    }
}

/// Delete/rederive property: retracting tuples and re-asserting the exact
/// same ones must land back on an instance byte-identical to the scratch
/// chase of the original — including `TermStore` null/SetID numbering.
#[test]
fn delete_rederive_roundtrip() {
    for s in all_scenarios() {
        for seed in [3u64] {
            let inst0 = s.instance(0.02 * s.default_scale, seed);
            let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9));
            let mut scenario_retracted = 0u64;
            let mut scenario_fallbacks = 0u64;
            for m in ready_mappings(&s) {
                let store = DeltaStore::new();
                let metrics = Metrics::enabled();
                // Materialize on the original instance.
                let _ = incremental_chase(&store, &s, &inst0, &m, &metrics);
                // Retract a batch of source tuples from the roots the
                // mapping actually ranges over (so retractions can bite).
                let mut shrunk = inst0.clone();
                let mut retracted = Vec::new();
                for _ in 0..3 {
                    let populated: Vec<_> = m
                        .source_vars
                        .iter()
                        .filter(|v| v.parent.is_none())
                        .filter_map(|v| shrunk.root_id(v.set.label()))
                        .filter(|&id| shrunk.set_len(id) > 0)
                        .collect();
                    if populated.is_empty() {
                        break;
                    }
                    let id = *rng.pick(&populated);
                    let victim = rng
                        .pick(&shrunk.tuples(id).cloned().collect::<Vec<_>>())
                        .clone();
                    shrunk.remove(id, &victim);
                    retracted.push((id, victim));
                }
                let after_retract = incremental_chase(&store, &s, &shrunk, &m, &metrics);
                assert_identical(
                    &s.target_schema,
                    &chase_one(&s.source_schema, &s.target_schema, &shrunk, &m)
                        .expect("scratch chase of shrunk instance"),
                    &after_retract,
                    &format!("{}/{} after retract", s.name, m.name),
                );
                // Re-assert the same tuples: back to the original instance.
                let mut restored = shrunk;
                for (id, t) in retracted {
                    restored.insert(id, t);
                }
                let after_reassert = incremental_chase(&store, &s, &restored, &m, &metrics);
                assert_identical(
                    &s.target_schema,
                    &chase_one(&s.source_schema, &s.target_schema, &inst0, &m)
                        .expect("scratch chase of original"),
                    &after_reassert,
                    &format!("{}/{} after re-assert", s.name, m.name),
                );
                let snap = metrics.snapshot();
                scenario_retracted += snap.counter("chase.retracted");
                scenario_fallbacks += snap.counter("chase.delta_fallbacks");
            }
            // A single removed tuple may participate in no binding, but
            // across a scenario's mappings the retraction path must bite
            // (or every mapping legitimately fell back to scratch).
            assert!(
                scenario_retracted > 0 || scenario_fallbacks > 0,
                "{}: retraction path never exercised",
                s.name
            );
        }
    }
}

/// A flat scenario with a large live binding set: a one-tuple delta must
/// re-fire all 600 bindings byte-identically to the scratch chase.
#[test]
fn large_refire_is_byte_identical() {
    use muse_nr::{Field, Ty};
    let source = Schema::new(
        "Src",
        vec![Field::new(
            "items",
            Ty::set_of(vec![
                Field::new("k", Ty::Int),
                Field::new("name", Ty::Str),
                Field::new("grp", Ty::Int),
            ]),
        )],
    )
    .unwrap();
    let target = Schema::new(
        "Tgt",
        vec![Field::new(
            "Groups",
            Ty::set_of(vec![
                Field::new("grp", Ty::Int),
                Field::new(
                    "Items",
                    Ty::set_of(vec![Field::new("k", Ty::Int), Field::new("name", Ty::Str)]),
                ),
            ]),
        )],
    )
    .unwrap();
    let mut ms = muse_mapping::parse(
        "m: for i in Src.items
            exists g in Tgt.Groups, t in g.Items
            where i.grp = g.grp and i.k = t.k and i.name = t.name
            group g.Items by (i.grp)",
    )
    .unwrap();
    let m = ms.remove(0);
    let mut inst = Instance::new(&source);
    let root = inst.root_id("items").unwrap();
    for k in 0..600i64 {
        inst.insert(
            root,
            vec![
                Value::int(k),
                Value::str(format!("item-{k}")),
                Value::int(k % 13),
            ],
        );
    }
    let store = DeltaStore::new();
    let metrics = Metrics::enabled();
    // Materialize, then force a delta so the store re-fires a large live
    // set.
    let _ = store_chase(&store, &source, &target, &inst, &m, &metrics);
    inst.remove(
        root,
        &vec![Value::int(17), Value::str("item-17"), Value::int(17 % 13)],
    );
    inst.insert(
        root,
        vec![Value::int(1000), Value::str("item-1000"), Value::int(5)],
    );
    let inc = store_chase(&store, &source, &target, &inst, &m, &metrics);
    let scratch = chase_one(&source, &target, &inst, &m).unwrap();
    assert_identical(&target, &scratch, &inc, "large refire");
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("chase.delta_hits"), 1);
    assert_eq!(snap.counter("chase.retracted"), 1);
    assert_eq!(snap.counter("chase.delta_facts"), 1);
    assert_eq!(snap.counter("chase.rederived"), 599);
}

/// Export/import roundtrip: a restored store must answer the next chase as
/// a delta over the snapshot (a hit, not a rematerialization) and stay
/// byte-identical; a corrupted blob must be rejected wholesale.
#[test]
fn snapshot_roundtrip_restores_delta_state() {
    let s = all_scenarios().remove(0); // Mondial
    let mut inst = s.instance(0.02 * s.default_scale, 11);
    let m = ready_mappings(&s).remove(0);
    let store = DeltaStore::new();
    let metrics = Metrics::enabled();
    let _ = incremental_chase(&store, &s, &inst, &m, &metrics);
    let blob = store.export_json();

    let restored = DeltaStore::new();
    assert!(restored.import_json(&blob), "roundtrip import");
    assert_eq!(restored.len(), store.len());
    let mut rng = Rng::new(99);
    assert!(perturb(&mut inst, &mut rng));
    let restored_metrics = Metrics::enabled();
    let inc = incremental_chase(&restored, &s, &inst, &m, &restored_metrics);
    let scratch = chase_one(&s.source_schema, &s.target_schema, &inst, &m).unwrap();
    assert_identical(&s.target_schema, &scratch, &inc, "restored store chase");
    let snap = restored_metrics.snapshot();
    assert_eq!(
        snap.counter("chase.delta_hits"),
        1,
        "restored state not reused"
    );
    assert_eq!(snap.counter("chase.delta_misses"), 0);

    // Round-trip through text (what the WAL stores) and reject corruption.
    let reparsed = muse_obs::json::Json::parse(&blob.render()).unwrap();
    assert!(DeltaStore::new().import_json(&reparsed));
    assert!(
        !DeltaStore::new().import_json(&muse_obs::json::Json::obj(vec![(
            "v",
            muse_obs::json::Json::Int(2)
        )]))
    );
}
