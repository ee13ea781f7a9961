//! Property-based tests of the PIC kernels: conservation and consistency
//! invariants that must hold for any particle population and field state.

use proptest::prelude::*;
use xpic::grid::{Fields, Grid, Moments};
use xpic::moments::{deposit, deposit_threads, fold_ghosts_periodic};
use xpic::mover::{boris_push, boris_push_threads, gather};
use xpic::particles::Species;

fn arb_grid() -> impl Strategy<Value = Grid> {
    (2usize..12, 2usize..12).prop_map(|(nx, ny)| Grid::slab(nx, ny, 0, 1))
}

fn arb_species(grid: Grid, n: usize) -> impl Strategy<Value = Species> {
    let nx = grid.nx as f64;
    let ny = grid.ny_local as f64;
    prop::collection::vec(
        (0.0..nx, 0.0..ny, -0.4f64..0.4, -0.4f64..0.4, -0.4f64..0.4),
        1..n,
    )
    .prop_map(move |ps| {
        let mut s = Species {
            qom: -1.0,
            q_per_particle: -0.5,
            ..Species::default()
        };
        for (x, y, vx, vy, vz) in ps {
            s.push_particle(x.min(nx - 1e-9), y.min(ny - 1e-9), vx, vy, vz);
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deposit_conserves_charge_for_any_population(
        (grid, species) in arb_grid().prop_flat_map(|g| arb_species(g, 64).prop_map(move |s| (g, s)))
    ) {
        let mut m = Moments::zeros(&grid);
        deposit(&grid, &species, &mut m);
        fold_ghosts_periodic(&grid, &mut m);
        let total = m.total_charge(&grid);
        prop_assert!(
            (total - species.total_charge()).abs() < 1e-9 * species.len() as f64,
            "{} vs {}", total, species.total_charge()
        );
    }

    #[test]
    fn deposit_current_consistent_with_velocity(
        (grid, species) in arb_grid().prop_flat_map(|g| arb_species(g, 32).prop_map(move |s| (g, s)))
    ) {
        // Σ jx over the grid equals Σ q·vx over the particles.
        let mut m = Moments::zeros(&grid);
        deposit(&grid, &species, &mut m);
        fold_ghosts_periodic(&grid, &mut m);
        let grid_jx: f64 = (0..grid.ny_local as isize)
            .flat_map(|j| (0..grid.nx as isize).map(move |i| (i, j)))
            .map(|(i, j)| m.jx[grid.idx(i, j)])
            .sum();
        let pcl_jx: f64 = species.vx.iter().map(|v| species.q_per_particle * v).sum();
        prop_assert!((grid_jx - pcl_jx).abs() < 1e-9 * species.len() as f64);
    }

    #[test]
    fn gather_bounded_by_field_extremes(
        grid in arb_grid(),
        vals in prop::collection::vec(-10.0f64..10.0, 1..200),
        x in 0.0f64..8.0,
        y in 0.0f64..8.0,
    ) {
        let mut field = vec![0.0; grid.len()];
        for (k, v) in field.iter_mut().enumerate() {
            *v = vals[k % vals.len()];
        }
        let x = x % grid.nx as f64;
        let y = y % grid.ny_local as f64;
        let g = gather(&grid, &field, x, y);
        let lo = field.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = field.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(g >= lo - 1e-12 && g <= hi + 1e-12, "{lo} ≤ {g} ≤ {hi}");
    }

    #[test]
    fn boris_push_conserves_speed_in_pure_magnetic_field(
        grid in arb_grid(),
        bz in -2.0f64..2.0,
        vx in -0.3f64..0.3,
        vy in -0.3f64..0.3,
        dt in 0.001f64..0.1,
    ) {
        let mut fields = Fields::zeros(&grid);
        for v in fields.bz.iter_mut() {
            *v = bz;
        }
        let mut s = Species { qom: -1.0, q_per_particle: -1.0, ..Species::default() };
        s.push_particle(grid.nx as f64 / 2.0, grid.ny_local as f64 / 2.0, vx, vy, 0.1);
        let v0 = (vx * vx + vy * vy + 0.01).sqrt();
        boris_push(&grid, &fields, &mut s, dt);
        let v1 = (s.vx[0] * s.vx[0] + s.vy[0] * s.vy[0] + s.vz[0] * s.vz[0]).sqrt();
        prop_assert!((v1 - v0).abs() < 1e-12, "|v| {v0} → {v1}");
    }

    #[test]
    fn slab_decomposition_partitions_rows(nx in 1usize..16, ny in 1usize..64, nranks in 1usize..8) {
        prop_assume!(ny >= nranks);
        let slabs: Vec<Grid> = (0..nranks).map(|r| Grid::slab(nx, ny, r, nranks)).collect();
        let total: usize = slabs.iter().map(|g| g.ny_local).sum();
        prop_assert_eq!(total, ny);
        // Every global row owned by exactly one slab.
        for gy in 0..ny as isize {
            let owners = slabs.iter().filter(|g| g.owns_row(gy)).count();
            prop_assert_eq!(owners, 1, "row {} owned by {} slabs", gy, owners);
        }
        // Balanced to within one row.
        let min = slabs.iter().map(|g| g.ny_local).min().unwrap();
        let max = slabs.iter().map(|g| g.ny_local).max().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn pack_unpack_identity_for_any_fields(
        grid in arb_grid(),
        seed in any::<u64>(),
    ) {
        let mut f = Fields::zeros(&grid);
        let mut state = seed | 1;
        for comp in f.components_mut() {
            for v in comp.iter_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *v = (state >> 11) as f64 / (1u64 << 53) as f64;
            }
        }
        let packed = f.pack_owned(&grid);
        let mut g = Fields::zeros(&grid);
        g.unpack_owned(&grid, &packed);
        prop_assert_eq!(g.pack_owned(&grid), packed);
    }
}

// Determinism guard for the parallel kernels: populations large enough to
// take the chunked code paths (≥ par::MIN_PAR_PARTICLES particles), so
// fewer cases keep the runtime reasonable.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_kernels_are_thread_count_invariant(
        seed in any::<u64>(),
        ppc in 260usize..330,
        bz in -1.0f64..1.0,
        dt in 0.01f64..0.1,
    ) {
        // 8×8 cells × ~300 ppc ≈ 19k particles: above both the parallel
        // threshold of the mover and the multi-chunk threshold of the
        // deposit reduction.
        let grid = Grid::slab(8, 8, 0, 1);
        let mut fields = Fields::zeros(&grid);
        for v in fields.bz.iter_mut() {
            *v = bz;
        }
        let reference = Species::maxwellian_charged(&grid, ppc, 0.05, -1.0, -1.0, seed);

        // The mover must be bit-exact against serial for every thread count
        // (element-wise kernel: chunking cannot change any arithmetic).
        let mut serial = reference.clone();
        boris_push(&grid, &fields, &mut serial, dt);
        for threads in [1usize, 2, 4, 8] {
            let mut s = reference.clone();
            boris_push_threads(&grid, &fields, &mut s, dt, threads);
            prop_assert_eq!(&s.x, &serial.x, "x at threads={}", threads);
            prop_assert_eq!(&s.y, &serial.y, "y at threads={}", threads);
            prop_assert_eq!(&s.vx, &serial.vx, "vx at threads={}", threads);
            prop_assert_eq!(&s.vy, &serial.vy, "vy at threads={}", threads);
            prop_assert_eq!(&s.vz, &serial.vz, "vz at threads={}", threads);
        }

        // The deposit is a reduction: bit-identical across thread counts
        // (fixed chunk grid + serial merge), and within strict rounding
        // distance of the legacy single-accumulator serial path.
        let mut m1 = Moments::zeros(&grid);
        deposit_threads(&grid, &serial, &mut m1, 1);
        for threads in [2usize, 4, 8] {
            let mut mt = Moments::zeros(&grid);
            deposit_threads(&grid, &serial, &mut mt, threads);
            for (a, b) in mt.components().iter().zip(m1.components().iter()) {
                prop_assert_eq!(*a, *b, "deposit differs at threads={}", threads);
            }
        }
        let mut ms = Moments::zeros(&grid);
        deposit(&grid, &serial, &mut ms);
        for (a, b) in m1.components().iter().zip(ms.components().iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                let tol = 1e-12 * x.abs().max(y.abs()).max(1.0);
                prop_assert!((x - y).abs() <= tol, "{} vs {}", x, y);
            }
        }
    }
}

// Bit-exact oracles for the per-particle stencil: the mover and the
// deposit against references that look every corner up through
// `Grid::idx`, on slabs down to one column wide, with particles at both
// x edges (i0 = −1 and i0 + 1 = nx) and inside the ghost-row band.

/// Bilinear gather with each of the four corners indexed by `Grid::idx`.
fn gather_all_idx(grid: &Grid, field: &[f64], x: f64, y: f64) -> f64 {
    let gx = x - 0.5;
    let gy = y - 0.5;
    let i0 = gx.floor() as isize;
    let j0 = gy.floor() as isize;
    let fx = gx - i0 as f64;
    let fy = gy - j0 as f64;
    let w00 = (1.0 - fx) * (1.0 - fy);
    let w10 = fx * (1.0 - fy);
    let w01 = (1.0 - fx) * fy;
    let w11 = fx * fy;
    w00 * field[grid.idx(i0, j0)]
        + w10 * field[grid.idx(i0 + 1, j0)]
        + w01 * field[grid.idx(i0, j0 + 1)]
        + w11 * field[grid.idx(i0 + 1, j0 + 1)]
}

/// The Boris push built from six `gather_all_idx` calls per particle.
fn push_all_idx(grid: &Grid, fields: &Fields, s: &mut Species, dt: f64) {
    let h = 0.5 * s.qom * dt;
    for p in 0..s.len() {
        let (lx, ly) = (s.x[p], grid.to_local_y(s.y[p]));
        let [ex, ey, ez, bx, by, bz] = fields.components().map(|f| gather_all_idx(grid, f, lx, ly));
        let mut vx = s.vx[p] + h * ex;
        let mut vy = s.vy[p] + h * ey;
        let mut vz = s.vz[p] + h * ez;
        let (tx, ty, tz) = (h * bx, h * by, h * bz);
        let t2 = tx * tx + ty * ty + tz * tz;
        let (sx, sy, sz) = (
            2.0 * tx / (1.0 + t2),
            2.0 * ty / (1.0 + t2),
            2.0 * tz / (1.0 + t2),
        );
        let px = vx + (vy * tz - vz * ty);
        let py = vy + (vz * tx - vx * tz);
        let pz = vz + (vx * ty - vy * tx);
        vx += py * sz - pz * sy;
        vy += pz * sx - px * sz;
        vz += px * sy - py * sx;
        vx += h * ex;
        vy += h * ey;
        vz += h * ez;
        s.vx[p] = vx;
        s.vy[p] = vy;
        s.vz[p] = vz;
        s.x[p] = (s.x[p] + vx * dt).rem_euclid(grid.nx as f64);
        s.y[p] += vy * dt;
    }
}

/// The deposit with each of the four corners indexed by `Grid::idx`.
fn deposit_all_idx(grid: &Grid, s: &Species, m: &mut Moments) {
    let q = s.q_per_particle;
    for p in 0..s.len() {
        let gx = s.x[p] - 0.5;
        let gy = grid.to_local_y(s.y[p]) - 0.5;
        let i0 = gx.floor() as isize;
        let j0 = gy.floor() as isize;
        let fx = gx - i0 as f64;
        let fy = gy - j0 as f64;
        let corners = [
            ((i0, j0), (1.0 - fx) * (1.0 - fy)),
            ((i0 + 1, j0), fx * (1.0 - fy)),
            ((i0, j0 + 1), (1.0 - fx) * fy),
            ((i0 + 1, j0 + 1), fx * fy),
        ];
        for ((i, j), wt) in corners {
            let k = grid.idx(i, j);
            let qw = q * wt;
            m.rho[k] += qw;
            m.jx[k] += qw * s.vx[p];
            m.jy[k] += qw * s.vy[p];
            m.jz[k] += qw * s.vz[p];
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A slab of an `nx × ny` domain (nx from 1: the single-column wrap),
/// possibly not the first one, so local and global y differ.
fn arb_slab() -> impl Strategy<Value = Grid> {
    (1usize..12, 1usize..12, 1usize..4).prop_flat_map(|(nx, ny, nranks)| {
        let nranks = nranks.min(ny);
        (0..nranks).prop_map(move |rank| Grid::slab(nx, ny, rank, nranks))
    })
}

/// Particles over the stencil's whole valid range: x in [0, nx) with a
/// third each just right of 0 (i0 = −1) and just left of nx (i0 + 1 =
/// nx), local y in [−0.5, ny_local + 0.5) with a third each in the upper
/// and the lower ghost band.
fn arb_edge_species(grid: Grid) -> impl Strategy<Value = Species> {
    let nx = grid.nx as f64;
    let ny = grid.ny_local as f64;
    let y0 = grid.y0 as f64;
    prop::collection::vec(
        (
            (0u8..3, 0.0f64..=1.0),
            (0u8..3, 0.0f64..=1.0),
            (-0.4f64..0.4, -0.4f64..0.4, -0.4f64..0.4),
        ),
        1..48,
    )
    .prop_map(move |ps| {
        let mut s = Species {
            qom: -1.0,
            q_per_particle: -0.5,
            ..Species::default()
        };
        for ((xs, xf), (ys, yf), (vx, vy, vz)) in ps {
            let x = match xs {
                0 => 0.5 * xf,
                1 => nx - 0.5 * xf,
                _ => nx * xf,
            };
            let ly = match ys {
                0 => -0.5 + 0.5 * yf,
                1 => ny + 0.5 - 0.5 * yf,
                _ => -0.5 + (ny + 1.0) * yf,
            };
            let x = x.min(nx - 1e-9);
            let ly = ly.min(ny + 0.5 - 1e-9);
            s.push_particle(x, y0 + ly, vx, vy, vz);
        }
        s
    })
}

fn seeded_fields(grid: &Grid, seed: u64) -> Fields {
    let mut f = Fields::zeros(grid);
    let mut state = seed | 1;
    for comp in f.components_mut() {
        for v in comp.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn stencil_kernels_match_all_idx_oracles_bit_for_bit(
        (grid, species) in arb_slab().prop_flat_map(|g| arb_edge_species(g).prop_map(move |s| (g, s))),
        seed in any::<u64>(),
        dt in 0.01f64..0.5,
    ) {
        let fields = seeded_fields(&grid, seed);
        for p in 0..species.len() {
            let (x, ly) = (species.x[p], grid.to_local_y(species.y[p]));
            prop_assert_eq!(
                gather(&grid, &fields.ex, x, ly).to_bits(),
                gather_all_idx(&grid, &fields.ex, x, ly).to_bits(),
                "gather at ({}, {}) on nx={}", x, ly, grid.nx
            );
        }

        let mut pushed = species.clone();
        boris_push(&grid, &fields, &mut pushed, dt);
        let mut oracle = species.clone();
        push_all_idx(&grid, &fields, &mut oracle, dt);
        for (a, b) in [
            (&pushed.x, &oracle.x),
            (&pushed.y, &oracle.y),
            (&pushed.vx, &oracle.vx),
            (&pushed.vy, &oracle.vy),
            (&pushed.vz, &oracle.vz),
        ] {
            prop_assert_eq!(bits(a), bits(b), "push differs on nx={}", grid.nx);
        }

        let mut m = Moments::zeros(&grid);
        deposit(&grid, &species, &mut m);
        let mut mo = Moments::zeros(&grid);
        deposit_all_idx(&grid, &species, &mut mo);
        for (a, b) in m.components().iter().zip(mo.components().iter()) {
            prop_assert_eq!(bits(a), bits(b), "deposit differs on nx={}", grid.nx);
        }
    }
}
