//! The algebra face of the engine: measured query plans and formula
//! normal forms.
//!
//! \[KKR90\]'s closed-form evaluation theorem is algebraic: every
//! connective maps to an operator of the constraint algebra that preserves
//! finite representability. This example runs a calculus query through
//! the FO pipeline with EXPLAIN on — the plan tree shows each operator
//! with the planner's estimated and the evaluator's actual cardinality —
//! and round-trips a query through NNF and prenex normal form.
//!
//! Run with: `cargo run --example algebra_plans`

use dco::logic::{from_prenex, prenex_rank, to_nnf, to_prenex};
use dco::prelude::*;

fn main() {
    // A small sensor database: readings(station, value), stations(id).
    let readings = GeneralizedRelation::from_raw(
        2,
        vec![
            RawAtom::new(Term::cst(rat(1, 1)), RawOp::Le, Term::var(0)),
            RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(4, 1))),
            RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)), // value ≥ station id
            RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(20, 1))),
        ],
    );
    let stations = GeneralizedRelation::from_points(
        1,
        vec![vec![rat(1, 1)], vec![rat(3, 1)], vec![rat(9, 1)]],
    );
    let db = Database::new(Schema::new().with("readings", 2).with("stations", 1))
        .with("readings", readings)
        .with("stations", stations);

    // ------------------------------------------------------------------
    // 1. Stations that have a reading above 10:
    //    π_s σ_{v > 10}(readings ⋈_{readings.s = stations.s} stations),
    //    written in the calculus and explained as it runs.
    // ------------------------------------------------------------------
    let opts = QueryOptions {
        explain: true,
        ..QueryOptions::default()
    };
    let q = "exists v . (readings(s, v) & stations(s) & v > 10)";
    let out = query_fo(&db, None, q, &opts).unwrap();
    println!("stations with a reading > 10: {}", out.result.relation);
    assert!(out.result.relation.contains_point(&[rat(3, 1)]));
    assert!(!out.result.relation.contains_point(&[rat(9, 1)])); // station 9 not in [1,4]
    let plan = out.plan.expect("explain was requested");
    println!("{}", plan.render());
    assert!(plan.root.fully_measured());

    // ------------------------------------------------------------------
    // 2. The planner reorders conjuncts; semantics are preserved.
    // ------------------------------------------------------------------
    let direct = dco::fo::eval_str(&db, q).unwrap();
    println!(
        "planned evaluation agrees with the bare evaluator: {}",
        direct.relation.equivalent(&out.result.relation)
    );

    // ------------------------------------------------------------------
    // 3. Normal forms: NNF and prenex of a calculus query, evaluated to
    //    the same relation as the original.
    // ------------------------------------------------------------------
    let f = parse_formula("!(exists v . (readings(s, v) & !(v < 10))) -> stations(s)").unwrap();
    let nnf = to_nnf(&f);
    let (prefix, matrix) = to_prenex(&f);
    let prenex = from_prenex(&prefix, &matrix);
    println!("\noriginal: {f}");
    println!("NNF:      {nnf}");
    println!("prenex:   {prenex}   (rank {})", prenex_rank(&prefix));
    let a = dco::fo::eval(&db, &f).unwrap().relation;
    let b = dco::fo::eval(&db, &nnf).unwrap().relation;
    let c = dco::fo::eval(&db, &prenex).unwrap().relation;
    println!(
        "all three evaluate to the same relation: {}",
        a.equivalent(&b) && b.equivalent(&c)
    );

    println!("\nalgebra_plans complete.");
}
