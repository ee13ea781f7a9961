//! Grid storage: a rank's slab of the global domain, with ghost rows.
//!
//! The global domain is `nx × ny` cells, periodic in both directions,
//! decomposed into horizontal slabs (contiguous ranges of rows) over the
//! solver ranks. Each slab stores one ghost row above and below for the
//! stencil and deposit halos. Fields are collocated at cell centers.

use serde::{Deserialize, Serialize};

/// Geometry of one rank's slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Grid {
    /// Global cells in x.
    pub nx: usize,
    /// Global cells in y.
    pub ny: usize,
    /// First global row owned by this slab.
    pub y0: usize,
    /// Rows owned by this slab.
    pub ny_local: usize,
}

impl Grid {
    /// Slab `rank` of `nranks` over an `nx × ny` domain. Rows are divided
    /// as evenly as possible (first `ny % nranks` slabs get one extra).
    pub fn slab(nx: usize, ny: usize, rank: usize, nranks: usize) -> Grid {
        assert!(nranks >= 1 && rank < nranks);
        assert!(ny >= nranks, "need at least one row per rank");
        let base = ny / nranks;
        let extra = ny % nranks;
        let ny_local = base + usize::from(rank < extra);
        let y0 = rank * base + rank.min(extra);
        Grid {
            nx,
            ny,
            y0,
            ny_local,
        }
    }

    /// Cells owned by the slab.
    pub fn cells(&self) -> usize {
        self.nx * self.ny_local
    }

    /// Rows including the two ghost rows.
    pub fn rows_with_ghosts(&self) -> usize {
        self.ny_local + 2
    }

    /// Storage length of one slab array (with ghosts).
    pub fn len(&self) -> usize {
        self.nx * self.rows_with_ghosts()
    }

    /// True if the slab owns no rows (cannot happen via [`Grid::slab`]).
    pub fn is_empty(&self) -> bool {
        self.ny_local == 0
    }

    /// Index into a slab array for local row `j` ∈ [-1, ny_local] (−1 and
    /// ny_local are the ghost rows) and column `i` (periodic in x).
    #[inline]
    pub fn idx(&self, i: isize, j: isize) -> usize {
        debug_assert!(j >= -1 && j <= self.ny_local as isize);
        let i = i.rem_euclid(self.nx as isize) as usize;
        let row = (j + 1) as usize;
        row * self.nx + i
    }

    /// Visit the cells of owned local row `j` in column order, each with
    /// its five-point [`Cross`]. Interior columns take their neighbours as
    /// `k ± 1` and `k ± nx`; only columns 0 and nx − 1 wrap through
    /// [`Grid::idx`]. This is the one place periodic-x neighbour logic
    /// lives for the field stencils.
    #[inline]
    pub fn for_each_cross(&self, j: isize, mut f: impl FnMut(usize, Cross)) {
        debug_assert!(j >= 0 && j < self.ny_local as isize);
        let nx = self.nx;
        let edge = |i: usize| {
            let i = i as isize;
            Cross {
                k: self.idx(i, j),
                xp: self.idx(i + 1, j),
                xm: self.idx(i - 1, j),
                yp: self.idx(i, j + 1),
                ym: self.idx(i, j - 1),
            }
        };
        f(0, edge(0));
        let row = self.idx(0, j);
        for i in 1..nx.saturating_sub(1) {
            let k = row + i;
            f(
                i,
                Cross {
                    k,
                    xp: k + 1,
                    xm: k - 1,
                    yp: k + nx,
                    ym: k - nx,
                },
            );
        }
        if nx > 1 {
            f(nx - 1, edge(nx - 1));
        }
    }

    /// Whether global row `gy` (periodic) belongs to this slab.
    pub fn owns_row(&self, gy: isize) -> bool {
        let gy = gy.rem_euclid(self.ny as isize) as usize;
        gy >= self.y0 && gy < self.y0 + self.ny_local
    }

    /// Convert a global y coordinate (in cell units) to slab-local.
    #[inline]
    pub fn to_local_y(&self, gy: f64) -> f64 {
        gy - self.y0 as f64
    }
}

/// Flat indices of one owned cell and its four periodic neighbours, as
/// handed out by [`Grid::for_each_cross`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cross {
    /// The cell `(i, j)`.
    pub k: usize,
    /// `(i + 1, j)`, wrapped in x.
    pub xp: usize,
    /// `(i − 1, j)`, wrapped in x.
    pub xm: usize,
    /// `(i, j + 1)`.
    pub yp: usize,
    /// `(i, j − 1)`.
    pub ym: usize,
}

/// The bilinear (cloud-in-cell) stencil of one particle: the four cell
/// centers around it and their weights. The mover gathers and the deposit
/// scatters through the same stencil, so both use the same weights (no
/// self-force).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stencil {
    /// Column of the lower-left center, unwrapped.
    pub i0: isize,
    /// Local row of the lower-left center.
    pub j0: isize,
    /// Weights of `(i0, j0)`, `(i0+1, j0)`, `(i0, j0+1)`, `(i0+1, j0+1)`.
    pub w: [f64; 4],
    /// Flat slab indices of the same four centers, wrapped in x.
    pub k: [usize; 4],
}

impl Stencil {
    /// Stencil at `(x, y)` in local cell coordinates. Valid for local
    /// `y ∈ [-0.5, ny_local + 0.5)`, i.e. `j0 ∈ [-1, ny_local - 1]`, so
    /// both rows lie within the slab and its ghost rows; `x` is periodic.
    /// The column wraps once here: `i0 + 1` follows by a compare, the
    /// upper row by `+ nx`.
    #[inline]
    pub fn new(grid: &Grid, x: f64, y: f64) -> Stencil {
        // Cell centers sit at integer+0.5; shift so floor() finds the lower
        // left center.
        let gx = x - 0.5;
        let gy = y - 0.5;
        let i0 = gx.floor() as isize;
        let j0 = gy.floor() as isize;
        debug_assert!(
            j0 >= -1 && j0 < grid.ny_local as isize,
            "stencil outside slab+ghost: y={y}, j0={j0}"
        );
        let fx = gx - i0 as f64;
        let fy = gy - j0 as f64;
        let nx = grid.nx;
        let c0 = i0.rem_euclid(nx as isize) as usize;
        let c1 = if c0 + 1 == nx { 0 } else { c0 + 1 };
        let row = (j0 + 1) as usize * nx;
        Stencil {
            i0,
            j0,
            w: [
                (1.0 - fx) * (1.0 - fy),
                fx * (1.0 - fy),
                (1.0 - fx) * fy,
                fx * fy,
            ],
            k: [row + c0, row + c1, row + nx + c0, row + nx + c1],
        }
    }

    /// Bilinear interpolation of `field` at the stencil's position.
    #[inline]
    pub fn gather(&self, field: &[f64]) -> f64 {
        let [w00, w10, w01, w11] = self.w;
        let [k00, k10, k01, k11] = self.k;
        w00 * field[k00] + w10 * field[k10] + w01 * field[k01] + w11 * field[k11]
    }
}

/// The six electromagnetic field components on one slab.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fields {
    /// Electric field components.
    pub ex: Vec<f64>,
    /// Electric field, y.
    pub ey: Vec<f64>,
    /// Electric field, z.
    pub ez: Vec<f64>,
    /// Magnetic field, x.
    pub bx: Vec<f64>,
    /// Magnetic field, y.
    pub by: Vec<f64>,
    /// Magnetic field, z.
    pub bz: Vec<f64>,
}

impl Fields {
    /// Zero fields on a slab.
    pub fn zeros(grid: &Grid) -> Fields {
        let n = grid.len();
        Fields {
            ex: vec![0.0; n],
            ey: vec![0.0; n],
            ez: vec![0.0; n],
            bx: vec![0.0; n],
            by: vec![0.0; n],
            bz: vec![0.0; n],
        }
    }

    /// All six component arrays, E first.
    pub fn components(&self) -> [&Vec<f64>; 6] {
        [&self.ex, &self.ey, &self.ez, &self.bx, &self.by, &self.bz]
    }

    /// Mutable access to all six component arrays.
    pub fn components_mut(&mut self) -> [&mut Vec<f64>; 6] {
        [
            &mut self.ex,
            &mut self.ey,
            &mut self.ez,
            &mut self.bx,
            &mut self.by,
            &mut self.bz,
        ]
    }

    /// Pack the owned rows (no ghosts) of all components into one vector —
    /// the interface-buffer representation exchanged between the solvers
    /// (cpyToArr_F of Listing 1).
    pub fn pack_owned(&self, grid: &Grid) -> Vec<f64> {
        let mut out = Vec::with_capacity(6 * grid.cells());
        for comp in self.components() {
            for j in 0..grid.ny_local as isize {
                let start = grid.idx(0, j);
                out.extend_from_slice(&comp[start..start + grid.nx]);
            }
        }
        out
    }

    /// Inverse of [`Fields::pack_owned`] (cpyFromArr_F).
    pub fn unpack_owned(&mut self, grid: &Grid, data: &[f64]) {
        assert_eq!(data.len(), 6 * grid.cells());
        let mut it = data.chunks_exact(grid.cells());
        for comp in self.components_mut() {
            let chunk = it.next().expect("six components");
            for j in 0..grid.ny_local as isize {
                let start = grid.idx(0, j);
                comp[start..start + grid.nx]
                    .copy_from_slice(&chunk[j as usize * grid.nx..(j as usize + 1) * grid.nx]);
            }
        }
    }
}

/// The charge/current moments on one slab (with ghost rows used as deposit
/// accumulation buffers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Moments {
    /// Charge density.
    pub rho: Vec<f64>,
    /// Current density, x.
    pub jx: Vec<f64>,
    /// Current density, y.
    pub jy: Vec<f64>,
    /// Current density, z.
    pub jz: Vec<f64>,
}

impl Moments {
    /// Zero moments on a slab.
    pub fn zeros(grid: &Grid) -> Moments {
        let n = grid.len();
        Moments {
            rho: vec![0.0; n],
            jx: vec![0.0; n],
            jy: vec![0.0; n],
            jz: vec![0.0; n],
        }
    }

    /// Reset to zero (start of a deposit pass).
    pub fn clear(&mut self) {
        for c in [&mut self.rho, &mut self.jx, &mut self.jy, &mut self.jz] {
            c.iter_mut().for_each(|x| *x = 0.0);
        }
    }

    /// The four component arrays.
    pub fn components(&self) -> [&Vec<f64>; 4] {
        [&self.rho, &self.jx, &self.jy, &self.jz]
    }

    /// Mutable component arrays.
    pub fn components_mut(&mut self) -> [&mut Vec<f64>; 4] {
        [&mut self.rho, &mut self.jx, &mut self.jy, &mut self.jz]
    }

    /// Pack owned rows into the interface-buffer vector (cpyToArr_M).
    pub fn pack_owned(&self, grid: &Grid) -> Vec<f64> {
        let mut out = Vec::with_capacity(4 * grid.cells());
        for comp in self.components() {
            for j in 0..grid.ny_local as isize {
                let start = grid.idx(0, j);
                out.extend_from_slice(&comp[start..start + grid.nx]);
            }
        }
        out
    }

    /// Inverse of [`Moments::pack_owned`] (cpyFromArr_M).
    pub fn unpack_owned(&mut self, grid: &Grid, data: &[f64]) {
        assert_eq!(data.len(), 4 * grid.cells());
        let mut it = data.chunks_exact(grid.cells());
        for comp in self.components_mut() {
            let chunk = it.next().expect("four components");
            for j in 0..grid.ny_local as isize {
                let start = grid.idx(0, j);
                comp[start..start + grid.nx]
                    .copy_from_slice(&chunk[j as usize * grid.nx..(j as usize + 1) * grid.nx]);
            }
        }
    }

    /// Total charge on the owned rows.
    pub fn total_charge(&self, grid: &Grid) -> f64 {
        (0..grid.ny_local as isize)
            .map(|j| {
                let start = grid.idx(0, j);
                self.rho[start..start + grid.nx].iter().sum::<f64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_partition_covers_domain() {
        let ny = 19;
        for nranks in [1, 2, 3, 4] {
            let slabs: Vec<Grid> = (0..nranks).map(|r| Grid::slab(8, ny, r, nranks)).collect();
            let total: usize = slabs.iter().map(|g| g.ny_local).sum();
            assert_eq!(total, ny);
            let mut y = 0;
            for g in &slabs {
                assert_eq!(g.y0, y, "slabs contiguous");
                assert!(!g.is_empty());
                y += g.ny_local;
            }
        }
    }

    #[test]
    fn idx_periodic_in_x_with_ghost_rows() {
        let g = Grid::slab(8, 16, 0, 2);
        assert_eq!(g.rows_with_ghosts(), 10);
        assert_eq!(g.len(), 80);
        assert_eq!(g.idx(0, -1), 0);
        assert_eq!(g.idx(0, 0), 8);
        assert_eq!(g.idx(-1, 0), 8 + 7, "x wraps");
        assert_eq!(g.idx(8, 0), 8, "x wraps forward");
        assert_eq!(g.idx(0, 8), 8 * 9, "bottom ghost row");
    }

    #[test]
    fn cross_matches_idx_in_column_order() {
        for nx in [1usize, 2, 3, 8] {
            let g = Grid::slab(nx, 4, 0, 1);
            for j in 0..4isize {
                let mut seen = Vec::new();
                g.for_each_cross(j, |i, c| {
                    let ii = i as isize;
                    let want = Cross {
                        k: g.idx(ii, j),
                        xp: g.idx(ii + 1, j),
                        xm: g.idx(ii - 1, j),
                        yp: g.idx(ii, j + 1),
                        ym: g.idx(ii, j - 1),
                    };
                    assert_eq!(c, want, "nx={nx} cell ({i},{j})");
                    seen.push(i);
                });
                assert_eq!(
                    seen,
                    (0..nx).collect::<Vec<_>>(),
                    "nx={nx}: every column once, in order"
                );
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stencil outside slab+ghost")]
    fn stencil_rejects_rows_past_the_ghost_band() {
        // y = ny_local + 0.5 puts j0 + 1 past the lower ghost row.
        let g = Grid::slab(4, 4, 0, 1);
        let _ = Stencil::new(&g, 1.0, 4.5);
    }

    #[test]
    fn owns_row_periodic() {
        let g = Grid::slab(8, 16, 1, 2); // rows 8..16
        assert!(g.owns_row(8));
        assert!(g.owns_row(15));
        assert!(!g.owns_row(0));
        assert!(g.owns_row(-1), "row −1 wraps to 15");
        assert!(!g.owns_row(16), "row 16 wraps to 0");
    }

    #[test]
    fn fields_pack_unpack_roundtrip() {
        let g = Grid::slab(4, 8, 1, 2);
        let mut f = Fields::zeros(&g);
        for (k, comp) in f.components_mut().into_iter().enumerate() {
            for (i, v) in comp.iter_mut().enumerate() {
                *v = (k * 1000 + i) as f64;
            }
        }
        let packed = f.pack_owned(&g);
        assert_eq!(packed.len(), 6 * g.cells());
        let mut f2 = Fields::zeros(&g);
        f2.unpack_owned(&g, &packed);
        // Owned rows match; ghosts in f2 remain zero.
        for j in 0..g.ny_local as isize {
            for i in 0..g.nx as isize {
                assert_eq!(f2.ex[g.idx(i, j)], f.ex[g.idx(i, j)]);
                assert_eq!(f2.bz[g.idx(i, j)], f.bz[g.idx(i, j)]);
            }
        }
        assert_eq!(f2.ex[g.idx(0, -1)], 0.0);
    }

    #[test]
    fn moments_pack_unpack_and_charge() {
        let g = Grid::slab(4, 4, 0, 1);
        let mut m = Moments::zeros(&g);
        for j in 0..4 {
            for i in 0..4 {
                m.rho[g.idx(i, j)] = 1.0;
            }
        }
        m.rho[g.idx(0, -1)] = 99.0; // ghost must not count
        assert_eq!(m.total_charge(&g), 16.0);
        let packed = m.pack_owned(&g);
        let mut m2 = Moments::zeros(&g);
        m2.unpack_owned(&g, &packed);
        assert_eq!(m2.total_charge(&g), 16.0);
        m2.clear();
        assert_eq!(m2.total_charge(&g), 0.0);
    }

    #[test]
    fn to_local_y_offsets() {
        let g = Grid::slab(4, 16, 1, 2);
        assert_eq!(g.to_local_y(8.5), 0.5);
        assert_eq!(g.to_local_y(15.0), 7.0);
    }
}
