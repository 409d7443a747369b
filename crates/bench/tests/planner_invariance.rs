//! Property test: planning is result-invariant.
//!
//! The statistics-driven planner only permutes conjunct order and
//! bound-variable elimination order — never the denoted relation. This
//! harness generates 128 deterministic random cases across the three
//! evaluators (FO, FO+linear, Datalog) and demands that the planned
//! form evaluates to a relation equivalent to the unplanned one (or
//! fails identically when the unplanned form fails). The FO cases also
//! hold the whole FO pipeline to the bare evaluator, with and without
//! EXPLAIN.

use dco::analysis::stats::DbStats;
use dco::analysis::{plan_formula, plan_rule};
use dco::datalog::{run as run_datalog, Program};
use dco::prelude::*;

/// Deterministic 64-bit LCG (Knuth MMIX constants) — no external RNG
/// crates, and every failure reproduces from the case index alone.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A small random database: `r` holds 2–5 random boxes, `s` holds 1–4
/// random intervals, both over constants in `0..=12`.
fn random_db(rng: &mut Lcg) -> Database {
    let boxes = 2 + rng.below(4) as usize;
    let r = GeneralizedRelation::from_tuples(
        2,
        (0..boxes).filter_map(|_| {
            let (x0, y0) = (rng.below(10) as i128, rng.below(10) as i128);
            let (dx, dy) = (1 + rng.below(3) as i128, 1 + rng.below(3) as i128);
            GeneralizedTuple::from_raw(
                2,
                vec![
                    RawAtom::new(Term::cst(rat(x0, 1)), RawOp::Le, Term::var(0)),
                    RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(x0 + dx, 1))),
                    RawAtom::new(Term::cst(rat(y0, 1)), RawOp::Le, Term::var(1)),
                    RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(y0 + dy, 1))),
                ],
            )
            .pop()
        }),
    );
    let intervals = 1 + rng.below(4) as usize;
    let s = GeneralizedRelation::from_tuples(
        1,
        (0..intervals).filter_map(|_| {
            let lo = rng.below(10) as i128;
            let hi = lo + 1 + rng.below(3) as i128;
            GeneralizedTuple::from_raw(
                1,
                vec![
                    RawAtom::new(Term::cst(rat(lo, 1)), RawOp::Le, Term::var(0)),
                    RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(hi, 1))),
                ],
            )
            .pop()
        }),
    );
    Database::new(Schema::new().with("r", 2).with("s", 1))
        .with("r", r)
        .with("s", s)
}

/// A random fully-parenthesized formula over `x`, `y`, `z`. With
/// `linear` set, the atom pool adds two-variable linear constraints
/// (which only the FO+linear evaluator accepts).
fn random_formula_src(rng: &mut Lcg, depth: u32, linear: bool) -> String {
    let atom = |rng: &mut Lcg| -> String {
        let dense = [
            "r(x, y)".to_string(),
            "r(y, z)".to_string(),
            "r(x, z)".to_string(),
            "s(x)".to_string(),
            "s(y)".to_string(),
            "x < y".to_string(),
            "y <= z".to_string(),
            format!("x < {}", rng.below(12)),
            format!("{} <= y", rng.below(12)),
        ];
        let pick = rng.below(if linear {
            dense.len() as u64 + 2
        } else {
            dense.len() as u64
        });
        match pick as usize {
            i if i < dense.len() => dense[i].clone(),
            i if i == dense.len() => format!("x + y < {}", 2 + rng.below(16)),
            _ => format!("{} <= x + z", rng.below(8)),
        }
    };
    if depth == 0 {
        return atom(rng);
    }
    match rng.below(6) {
        0 | 1 => format!(
            "({}) & ({})",
            random_formula_src(rng, depth - 1, linear),
            random_formula_src(rng, depth - 1, linear)
        ),
        2 => format!(
            "({}) | ({})",
            random_formula_src(rng, depth - 1, linear),
            random_formula_src(rng, depth - 1, linear)
        ),
        3 => format!("not ({})", random_formula_src(rng, depth - 1, linear)),
        4 => format!(
            "exists {} . ({})",
            ["x", "y", "z"][rng.below(3) as usize],
            random_formula_src(rng, depth - 1, linear)
        ),
        _ => atom(rng),
    }
}

#[test]
fn fo_planned_order_is_result_invariant_64_cases() {
    let mut answered = 0;
    for case in 0..64u64 {
        let mut rng = Lcg::new(case + 1);
        let db = random_db(&mut rng);
        let src = random_formula_src(&mut rng, 1 + (case % 3) as u32, false);
        let formula = parse_formula(&src).unwrap_or_else(|e| panic!("case {case} `{src}`: {e}"));
        let planned = plan_formula(&formula, &DbStats::of_database(&db));
        match (eval_fo(&db, &formula), eval_fo(&db, &planned)) {
            (Ok(base), Ok(opt)) => {
                assert!(
                    base.relation.equivalent(&opt.relation),
                    "case {case}: planned result diverges\n  query: {src}\n  planned: {planned}"
                );
                assert_eq!(
                    base.columns, opt.columns,
                    "case {case}: planned columns diverge for {src}"
                );
            }
            (Err(_), Err(_)) => {} // both reject (e.g. linear atom in FO)
            (b, o) => panic!(
                "case {case}: planning changed failure for {src}: base {:?} vs planned {:?}",
                b.is_ok(),
                o.is_ok()
            ),
        }
        answered += usize::from(pipeline_matches_the_oracle(case, &db, &formula));
    }
    assert!(answered >= 48, "only {answered} of 64 cases were answered");
}

/// The FO pipeline against the bare evaluator: explain on ≡ explain off
/// ≡ `fo::eval`, and every node of the explained plan is measured.
/// Returns whether the case was answered (not rejected by all three).
fn pipeline_matches_the_oracle(case: u64, db: &Database, formula: &Formula) -> bool {
    let off = query_fo(db, None, formula, &QueryOptions::default());
    let explained = QueryOptions {
        explain: true,
        ..QueryOptions::default()
    };
    let on = query_fo(db, None, formula, &explained);
    match (eval_fo(db, formula), off, on) {
        (Ok(oracle), Ok(off), Ok(on)) => {
            assert_eq!(off.result.columns, oracle.columns, "case {case}: {formula}");
            assert_eq!(on.result.columns, oracle.columns, "case {case}: {formula}");
            assert!(
                off.result.relation.equivalent(&oracle.relation),
                "case {case}: pipeline diverges from fo::eval for {formula}"
            );
            assert!(
                on.result.relation.equivalent(&oracle.relation),
                "case {case}: explained pipeline diverges from fo::eval for {formula}"
            );
            assert!(
                off.plan.is_none(),
                "case {case}: plan built with explain off"
            );
            let plan = on.plan.expect("explain on returns a plan");
            assert!(
                plan.root.fully_measured(),
                "case {case}: unmeasured node in\n{}",
                plan.render()
            );
            true
        }
        (Err(_), Err(_), Err(_)) => false,
        (oracle, off, on) => panic!(
            "case {case}: pipeline and fo::eval disagree on failure for {formula}: \
             oracle {:?}, explain off {:?}, explain on {:?}",
            oracle.err(),
            off.err(),
            on.err()
        ),
    }
}

#[test]
fn linear_planned_order_is_result_invariant_32_cases() {
    for case in 0..32u64 {
        let mut rng = Lcg::new(1000 + case);
        let db = random_db(&mut rng);
        let src = random_formula_src(&mut rng, 1 + (case % 2) as u32, true);
        let formula = parse_formula(&src).unwrap_or_else(|e| panic!("case {case} `{src}`: {e}"));
        let planned = plan_formula(&formula, &DbStats::of_database(&db));
        match (eval_linear(&db, &formula), eval_linear(&db, &planned)) {
            (Ok(base), Ok(opt)) => assert!(
                base.relation.equivalent(&opt.relation),
                "case {case}: planned linear result diverges\n  query: {src}\n  planned: {planned}"
            ),
            (Err(_), Err(_)) => {}
            (b, o) => panic!(
                "case {case}: planning changed linear failure for {src}: base {:?} vs planned {:?}",
                b.is_ok(),
                o.is_ok()
            ),
        }
    }
}

/// Random Datalog case: a transitive-closure-style program whose rule
/// bodies are randomly shuffled, over a random finite edge relation.
#[test]
fn datalog_planned_rules_are_result_invariant_32_cases() {
    for case in 0..32u64 {
        let mut rng = Lcg::new(2000 + case);
        let n = 3 + rng.below(5) as i128;
        let mut points = Vec::new();
        for i in 1..n {
            if rng.below(4) > 0 {
                points.push(vec![rat(i, 1), rat(i + 1, 1)]);
            }
        }
        points.push(vec![rat(n, 1), rat(1, 1)]); // keep e nonempty, add a cycle
        let e = GeneralizedRelation::from_points(2, points);
        let db = Database::new(Schema::new().with("e", 2)).with("e", e);

        // Shuffle the recursive rule's body; bodies are joins, so literal
        // order is exactly what the planner permutes.
        let bodies = [
            "tc(x, y) :- tc(x, z), e(z, y), x < 9.",
            "tc(x, y) :- e(z, y), x < 9, tc(x, z).",
            "tc(x, y) :- x < 9, tc(x, z), e(z, y).",
        ];
        let src = format!("tc(x, y) :- e(x, y).\n{}\n", bodies[rng.below(3) as usize]);
        let program = parse_program(&src).unwrap_or_else(|e| panic!("case {case}: {e}"));
        let stats = DbStats::of_database(&db);
        let planned_rules: Vec<_> = program.rules.iter().map(|r| plan_rule(r, &stats)).collect();
        let planned = Program::new(planned_rules).expect("planned rules revalidate");

        let base = run_datalog(&program, &db).unwrap_or_else(|e| panic!("case {case}: {e}"));
        let opt = run_datalog(&planned, &db).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert!(
            base.database.equivalent(&opt.database),
            "case {case}: planned fixpoint diverges for program\n{src}"
        );
    }
}
