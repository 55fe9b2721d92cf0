//! Incremental Muse-G (Sec. III-C): refine an *existing* grouping function
//! without restarting the wizard. "Group more" merges nested sets into
//! bigger ones by probing the current arguments for removal; "group less"
//! splits sets by probing the remaining `poss` attributes for addition.

use muse_mapping::Mapping;
use muse_nr::constraints::fdset::attrs;
use muse_nr::SetPath;

use crate::designer::Designer;
use crate::error::WizardError;
use crate::example::ClassSpace;
use crate::museg::{refs_of, GroupingOutcome, MuseG};

/// "Group more": probe each current argument of `SK` — keeping it keeps the
/// current (finer) grouping, removing it merges groups. Returns the refined
/// outcome; the caller applies it to the mapping.
pub fn group_more(
    g: &MuseG<'_>,
    m: &Mapping,
    sk: &SetPath,
    designer: &mut dyn Designer,
) -> Result<GroupingOutcome, WizardError> {
    refine(g, m, sk, designer, Direction::More)
}

/// "Group less": probe each attribute of `poss(m, SK)` not currently an
/// argument — adding it splits groups. Returns the refined outcome.
pub fn group_less(
    g: &MuseG<'_>,
    m: &Mapping,
    sk: &SetPath,
    designer: &mut dyn Designer,
) -> Result<GroupingOutcome, WizardError> {
    refine(g, m, sk, designer, Direction::Less)
}

enum Direction {
    More,
    Less,
}

fn refine(
    g: &MuseG<'_>,
    m: &Mapping,
    sk: &SetPath,
    designer: &mut dyn Designer,
    dir: Direction,
) -> Result<GroupingOutcome, WizardError> {
    let space = ClassSpace::new(m, g.source_schema, g.source_constraints)?;
    // Current arguments, canonicalized to class representatives.
    let mut current: Vec<usize> = Vec::new();
    for r in m.grouping(sk).map(|gr| gr.args.clone()).unwrap_or_default() {
        if let Some(i) = space.index_of(&r) {
            let rep = space.rep(i);
            if !current.contains(&rep) {
                current.push(rep);
            }
        }
    }
    let current_set = attrs(current.iter().copied());
    let reps: Vec<usize> = (0..space.len()).filter(|&i| space.rep(i) == i).collect();
    let (order, chosen0): (Vec<usize>, _) = match dir {
        // Probe current args, nothing pre-chosen: each kept arg must be
        // re-confirmed, removals merge groups.
        Direction::More => (current, 0),
        // Probe the complement, current args pre-chosen (they stay).
        Direction::Less => (
            reps.into_iter()
                .filter(|i| current_set & attrs([*i]) == 0)
                .collect(),
            current_set,
        ),
    };
    let mut outcome = GroupingOutcome {
        sk: sk.clone(),
        grouping: Vec::new(),
        poss_size: space.len(),
        questions: 0,
        skipped_implied: 0,
        skipped_inconsequential: 0,
        real_examples: 0,
        synthetic_examples: 0,
        real_search_timeouts: 0,
        example_time: std::time::Duration::ZERO,
        multi_key_assumption: false,
        skipped_truncated: 0,
        warnings: Vec::new(),
    };
    let chosen =
        g.with_tables(|g| g.probe_loop(m, sk, &space, order, chosen0, 0, designer, &mut outcome))?;
    outcome.grouping = refs_of(&space, chosen);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designer::OracleDesigner;
    use muse_mapping::{parse_one, Grouping, PathRef};
    use muse_nr::{Constraints, Field, Schema, Ty};

    fn schemas() -> (Schema, Schema) {
        let src = Schema::new(
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
        .unwrap();
        let tgt = Schema::new(
            "T",
            vec![Field::new(
                "Orgs",
                Ty::set_of(vec![
                    Field::new("oname", Ty::Str),
                    Field::new("Projects", Ty::set_of(vec![Field::new("pname", Ty::Str)])),
                ]),
            )],
        )
        .unwrap();
        (src, tgt)
    }

    fn mapping(group_by: &[&str]) -> Mapping {
        let mut m = parse_one(
            "m1: for c in S.Companies exists o in T.Orgs where c.cname = o.oname
             group o.Projects by ()",
        )
        .unwrap();
        let args = group_by.iter().map(|a| PathRef::new(0, *a)).collect();
        m.set_grouping(SetPath::parse("Orgs.Projects"), Grouping::new(args));
        m
    }

    #[test]
    fn group_more_removes_an_argument() {
        let (src, tgt) = schemas();
        let cons = Constraints::none();
        let g = MuseG::new(&src, &tgt, &cons);
        // Currently grouped by (cname, location); the designer now wants
        // only cname (merging the per-location sets).
        let m = mapping(&["cname", "location"]);
        let sk = SetPath::parse("Orgs.Projects");
        let mut oracle = OracleDesigner::new(&src, &tgt);
        oracle.intend_grouping("m1", sk.clone(), vec![PathRef::new(0, "cname")]);
        let out = group_more(&g, &m, &sk, &mut oracle).unwrap();
        assert_eq!(out.grouping, vec![PathRef::new(0, "cname")]);
        // Only the two current args were probed — not cid.
        assert_eq!(out.questions, 2);
    }

    #[test]
    fn group_less_adds_an_argument() {
        let (src, tgt) = schemas();
        let cons = Constraints::none();
        let g = MuseG::new(&src, &tgt, &cons);
        // Currently grouped by (cname); the designer wants (cname, cid).
        let m = mapping(&["cname"]);
        let sk = SetPath::parse("Orgs.Projects");
        let mut oracle = OracleDesigner::new(&src, &tgt);
        oracle.intend_grouping(
            "m1",
            sk.clone(),
            vec![PathRef::new(0, "cid"), PathRef::new(0, "cname")],
        );
        let out = group_less(&g, &m, &sk, &mut oracle).unwrap();
        let names: Vec<String> = out.grouping.iter().map(|r| r.attr.clone()).collect();
        assert_eq!(names, vec!["cid", "cname"]);
        // cname was kept without a question; cid and location were probed.
        assert_eq!(out.questions, 2);
    }
}
