//! Seeded, deterministic input generators.
//!
//! Every input the program sees — relations, formulas, the writer's
//! schedule, Datalog instances — comes from here and depends only on the
//! workload seed. The same seed yields byte-identical inputs (see the
//! tests at the bottom).

use dco::prelude::*;

/// splitmix64: a tiny, well-mixed generator that is enough for input
/// generation and trivially reproducible.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, split by `stream` so independent consumers
    /// (reader, writer, each client thread) never share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// A rational constant kept as `num/den`, so it can be written into
/// formula text and built into tuples without going through `Display`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Q(pub i64, pub i64);

impl Q {
    pub fn rat(self) -> Rational {
        rat(self.0 as i128, self.1 as i128)
    }

    pub fn text(self) -> String {
        if self.1 == 1 {
            self.0.to_string()
        } else {
            format!("{}/{}", self.0, self.1)
        }
    }
}

/// A closed box `x ∈ [x0, x1] ∧ y ∈ [y0, y1]`, optionally cut by the
/// diagonal `x < y`.
pub fn box_tuple(x0: Q, x1: Q, y0: Q, y1: Q, diagonal: bool) -> GeneralizedTuple {
    let mut atoms = vec![
        RawAtom::new(Term::cst(x0.rat()), RawOp::Le, Term::var(0)),
        RawAtom::new(Term::var(0), RawOp::Le, Term::cst(x1.rat())),
        RawAtom::new(Term::cst(y0.rat()), RawOp::Le, Term::var(1)),
        RawAtom::new(Term::var(1), RawOp::Le, Term::cst(y1.rat())),
    ];
    if diagonal {
        atoms.push(RawAtom::new(Term::var(0), RawOp::Lt, Term::var(1)));
    }
    GeneralizedTuple::from_raw(2, atoms)
        .pop()
        .expect("generated boxes are satisfiable")
}

/// `k²` boxes on a jittered `k × k` grid over `[0, 100]²`: box `(i, j)`
/// sits in grid cell `(i, j)` with seeded corners and sides of 3/8 to
/// 5/8 of a cell (endpoints on a grid of eighths), and every third box
/// is also cut by `x < y` where that leaves it satisfiable. The grid
/// keeps the overlap structure — and so the cost of joins and
/// complements — nearly the same from seed to seed, while the constants
/// differ.
pub fn grid_relation(rng: &mut Rng, k: i64) -> GeneralizedRelation {
    let cell = 800 / k; // in eighths
    let tuples = (0..k * k).map(|n| {
        let (i, j) = (n % k, n / k);
        let side = |rng: &mut Rng| rng.range(3 * cell / 8, 5 * cell / 8);
        let (wx, wy) = (side(rng), side(rng));
        let x0 = i * cell + rng.range(cell / 8, cell / 4);
        let y0 = j * cell + rng.range(cell / 8, cell / 4);
        let diagonal = n % 3 == 0 && x0 < y0 + wy;
        box_tuple(Q(x0, 8), Q(x0 + wx, 8), Q(y0, 8), Q(y0 + wy, 8), diagonal)
    });
    GeneralizedRelation::from_tuples(2, tuples)
}

/// A random constant in `[lo, hi]` on a grid of thousandths, so that
/// formulas drawn from one seed are distinct with overwhelming odds.
pub fn constant(rng: &mut Rng, lo: i64, hi: i64) -> Q {
    Q(rng.range(lo * 1000, hi * 1000), 1000)
}

// ---------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------

/// Number of distinct formulas the served reader cycles through. Well
/// under the store's 256-entry prepared cache.
pub const SERVED_FORMULAS: usize = 32;
/// Tuples in the writer's pool; the target relation holds a sliding
/// window of `SERVED_WINDOW` of them at any time.
pub const SERVED_POOL: usize = 8;
pub const SERVED_WINDOW: usize = 4;

/// The served catalog: base relations, the writer's target and its pool.
#[derive(Debug, Clone)]
pub struct ServedCatalog {
    /// `(name, instance)` of every relation, the writer's target last.
    pub relations: Vec<(String, GeneralizedRelation)>,
    /// Name of the relation the writer updates.
    pub target: String,
    /// Pairwise disjoint boxes, all outside every base box of the
    /// target, so an INSERT adds exactly one tuple and a REMOVE of the
    /// same box takes exactly that tuple out again.
    pub pool: Vec<GeneralizedRelation>,
}

/// Relation names that land in pairwise distinct shards of an
/// `nshards`-way store (so the served mix spans several shards).
fn names_in_distinct_shards(count: usize, nshards: usize) -> Vec<String> {
    let mut taken = vec![false; nshards];
    let mut out = Vec::new();
    for i in 0.. {
        let name = format!("r{i}");
        let shard = dco::store::shard_of(&name, nshards);
        if !taken[shard] {
            taken[shard] = true;
            out.push(name);
            if out.len() == count {
                break;
            }
        }
    }
    out
}

pub fn served_catalog(seed: u64, nshards: usize) -> ServedCatalog {
    let mut rng = Rng::new(seed, 1);
    let names = names_in_distinct_shards(5, nshards);
    let relations: Vec<(String, GeneralizedRelation)> = names
        .iter()
        .map(|n| (n.clone(), grid_relation(&mut rng, 4)))
        .collect();
    let target = names.last().expect("five names").clone();
    // Pool boxes live in x ∈ [110, 126), beyond every base box (which
    // stay inside [0, 100]²), with a unit gap between neighbours.
    let pool = (0..SERVED_POOL as i64)
        .map(|i| {
            let y0 = rng.range(0, 90 * 8);
            let t = box_tuple(
                Q(110 + 2 * i, 1),
                Q(111 + 2 * i, 1),
                Q(y0, 8),
                Q(y0 + 40, 8),
                false,
            );
            GeneralizedRelation::from_tuples(2, [t])
        })
        .collect();
    ServedCatalog {
        relations,
        target,
        pool,
    }
}

/// The served reader's formula mix over the catalog's relations. Some
/// read the writer's target (and see its cache epoch move), the others
/// read only untouched shards. Each is selective (a window of width 25
/// on one variable), so answers — and prepared-cache entries — stay
/// small.
pub fn served_formulas(seed: u64, cat: &ServedCatalog) -> Vec<String> {
    let mut rng = Rng::new(seed, 2);
    let names: Vec<&str> = cat.relations.iter().map(|(n, _)| n.as_str()).collect();
    let w = cat.target.as_str();
    (0..SERVED_FORMULAS)
        .map(|i| {
            let a = names[rng.range(0, names.len() as i64 - 2) as usize];
            let b = names[rng.range(0, names.len() as i64 - 2) as usize];
            let lo = constant(&mut rng, 0, 75);
            let (lo, hi) = (lo.text(), Q(lo.0 + 25 * lo.1, lo.1).text());
            let c = constant(&mut rng, 0, 100).text();
            match i % 4 {
                0 => format!("{a}(x, y) & x > {lo} & x < {hi}"),
                1 => format!("exists z . ({a}(x, z) & {b}(z, y) & x > {lo} & x < {hi})"),
                2 => format!("{w}(x, y) & x > 105 & y > {lo} & y < {hi}"),
                _ => format!(
                    "exists y . ({w}(x, y) & x > 105 & y > {c}) | exists y . ({a}(x, y) & x > {lo} & x < {hi})"
                ),
            }
        })
        .collect()
}

/// One operation of the writer's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// INSERT pool tuple `i` into the target.
    Insert(usize),
    /// REMOVE pool tuple `i` from the target.
    Remove(usize),
}

/// The `k`-th write (0-based) after the load: the window of pool tuples
/// `[j, j + WINDOW)` slides forward one tuple every two writes, so the
/// target's size stays within `WINDOW..=WINDOW + 1` pool tuples.
pub fn write_op(k: usize) -> WriteOp {
    let j = k / 2;
    if k.is_multiple_of(2) {
        WriteOp::Insert((j + SERVED_WINDOW) % SERVED_POOL)
    } else {
        WriteOp::Remove(j % SERVED_POOL)
    }
}

// ---------------------------------------------------------------------
// query_cold
// ---------------------------------------------------------------------

/// The cold-query relations hold `COLD_GRID²` = 64 tuples each.
pub const COLD_GRID: i64 = 8;

pub fn cold_database(seed: u64) -> Vec<(String, GeneralizedRelation)> {
    let mut rng = Rng::new(seed, 3);
    ["R", "S", "T"]
        .iter()
        .map(|n| (n.to_string(), grid_relation(&mut rng, COLD_GRID)))
        .collect()
}

/// The `i`-th formula of client thread `thread`: one of three shapes,
/// with fresh seeded constants each time. Each shape restricts one
/// variable to a window of width 12, which bounds its join sizes.
pub fn cold_formula(seed: u64, thread: u64, i: u64) -> String {
    let mut rng = Rng::new(seed ^ (i << 8), 16 + thread);
    let lo = constant(&mut rng, 0, 88);
    // The window's upper end carries a per-query offset of a few
    // millionths, which makes every formula of a run distinct.
    let offset = (2 * i + thread + 1) as i64;
    let (lo, hi) = (
        lo.text(),
        Q(lo.0 * 1000 + 12_000_000 + offset, 1_000_000).text(),
    );
    let c = constant(&mut rng, 10, 90).text();
    match rng.range(0, 2) {
        // join + ∃
        0 => format!("exists z . ((R(x, z) & x > {lo} & x < {hi}) & S(z, y))"),
        // ∃ under negation: a complement
        1 => format!("(T(x, y) & x > {lo} & x < {hi}) & !(exists z . (S(x, z) & z > {c}))"),
        // join + ∃ + negation
        _ => format!(
            "exists z . ((R(x, z) & z > {lo} & z < {hi}) & T(z, y) & !(exists w . (S(z, w) & w > {c})))"
        ),
    }
}

// ---------------------------------------------------------------------
// datalog_tc
// ---------------------------------------------------------------------

/// Edges per chain instance.
pub const CHAIN_EDGES: usize = 14;

pub const TC_PROGRAM: &str = "tc(x, y) :- e(x, y).\ntc(x, y) :- tc(x, z), e(z, y).\n";

/// A chain of `CHAIN_EDGES` genuine boxes `X_i × Y_i` where `Y_i`
/// overlaps `X_{i+1}` and nothing else, with seeded endpoints. Returns
/// the boxes as `(x0, x1, y0, y1)`.
pub fn chain_edges(seed: u64, i: u64) -> Vec<[Q; 4]> {
    let mut rng = Rng::new(seed ^ (i << 8), 32);
    // Interval k covers [10k + a, 10k + 6 + b] with a, b ∈ [0, 2): the
    // neighbours k and k+1 overlap, k and k+2 never do.
    let interval = |rng: &mut Rng, k: i64| {
        (
            Q(80 * k + rng.range(0, 15), 8),
            Q(80 * k + 48 + rng.range(0, 15), 8),
        )
    };
    let xs: Vec<(Q, Q)> = (0..CHAIN_EDGES as i64)
        .map(|k| interval(&mut rng, 2 * k))
        .collect();
    xs.iter()
        .enumerate()
        .map(|(k, &(x0, x1))| {
            // Y_k sits between X_k and X_{k+1} and overlaps the latter.
            let (y0, y1) = interval(&mut rng, 2 * k as i64 + 1);
            let y1 = Q(y1.0 + 64, 8);
            [x0, x1, y0, y1]
        })
        .collect()
}

pub fn chain_database(edges: &[[Q; 4]]) -> Database {
    let tuples = edges
        .iter()
        .map(|&[x0, x1, y0, y1]| box_tuple(x0, x1, y0, y1, false));
    Database::new(Schema::new().with("e", 2)).with("e", GeneralizedRelation::from_tuples(2, tuples))
}

/// The closed form of the chain's transitive closure: `X_i × Y_j` for
/// every `j` reachable from `i` along overlapping `Y_k ∩ X_{k+1}`.
pub fn chain_closure(edges: &[[Q; 4]]) -> GeneralizedRelation {
    let mut tuples = Vec::new();
    for (i, &[x0, x1, ..]) in edges.iter().enumerate() {
        let mut j = i;
        loop {
            let [_, _, y0, y1] = edges[j];
            tuples.push(box_tuple(x0, x1, y0, y1, false));
            let Some(&[nx0, nx1, ..]) = edges.get(j + 1) else {
                break;
            };
            let overlaps = nx0.rat() <= y1.rat() && y0.rat() <= nx1.rat();
            if !overlaps {
                break;
            }
            j += 1;
        }
    }
    GeneralizedRelation::from_tuples(2, tuples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for seed in [0, 1, 42] {
            let a = served_catalog(seed, 8);
            let b = served_catalog(seed, 8);
            assert_eq!(format!("{:?}", a), format!("{:?}", b));
            assert_eq!(served_formulas(seed, &a), served_formulas(seed, &b));
            assert_eq!(
                format!("{:?}", cold_database(seed)),
                format!("{:?}", cold_database(seed))
            );
            for i in 0..50 {
                assert_eq!(cold_formula(seed, 0, i), cold_formula(seed, 0, i));
                assert_eq!(chain_edges(seed, i), chain_edges(seed, i));
            }
        }
        let schedule: Vec<WriteOp> = (0..100).map(write_op).collect();
        assert_eq!(schedule, (0..100).map(write_op).collect::<Vec<_>>());
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            format!("{:?}", cold_database(1)),
            format!("{:?}", cold_database(2))
        );
        assert_ne!(cold_formula(1, 0, 0), cold_formula(2, 0, 0));
        assert_ne!(chain_edges(1, 0), chain_edges(2, 0));
    }

    #[test]
    fn cold_formulas_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for t in 0..2 {
            for i in 0..2000 {
                let f = cold_formula(7, t, i);
                assert!(seen.insert(f.clone()), "duplicate at {t} {i}: {f}");
            }
        }
    }

    #[test]
    fn served_names_span_distinct_shards() {
        let cat = served_catalog(3, 8);
        let mut shards: Vec<usize> = cat
            .relations
            .iter()
            .map(|(n, _)| dco::store::shard_of(n, 8))
            .collect();
        shards.sort();
        shards.dedup();
        assert_eq!(shards.len(), cat.relations.len());
    }

    #[test]
    fn write_schedule_keeps_the_window_bounded() {
        let mut live: std::collections::BTreeSet<usize> = (0..SERVED_WINDOW).collect();
        for k in 0..200 {
            match write_op(k) {
                WriteOp::Insert(i) => assert!(live.insert(i), "insert of a live tuple at {k}"),
                WriteOp::Remove(i) => assert!(live.remove(&i), "remove of a dead tuple at {k}"),
            }
            assert!((SERVED_WINDOW..=SERVED_WINDOW + 1).contains(&live.len()));
        }
    }

    #[test]
    fn chain_closure_matches_the_engine() {
        let edges = chain_edges(5, 0);
        let program = parse_program(TC_PROGRAM).expect("tc parses");
        let out = dco::datalog::run(&program, &chain_database(&edges)).expect("fixpoint");
        let tc = out.database.get("tc").expect("tc relation");
        assert!(tc.equivalent(&chain_closure(&edges)));
    }
}
