//! The implicit field solver (calculateE / calculateB of Listing 1).
//!
//! xPic uses the Implicit Moment Method (Markidis et al. [15]): the
//! electric field at the new time level satisfies an elliptic system whose
//! coefficients involve the plasma moments. We implement the standard
//! reduced form: for each component of E solve
//!
//! ```text
//! (1 + κ) E' − (c Δt θ)² ∇² E' = E + Δt θ (c² ∇×B − J)
//! ```
//!
//! with the implicit susceptibility κ = (ω_p Δt θ / 2)² from the local
//! charge density (this is where the *moments* enter the *field* solve —
//! the defining feature of the method), by conjugate gradients, followed
//! by a divergence-cleaning (Boris correction) step that enforces Gauss's
//! law against the net charge density: solve ∇²φ = ∇·E − ρ_net and take
//! E ← E − ∇φ. Without it, charge separation could never drive an
//! electric field (no plasma oscillations — ρ is a first-class source in
//! Fig. 5's E,B = f(ρ,J)). The CG
//! iteration is exactly the communication pattern the paper describes for
//! the field solver: a halo exchange per stencil application and global
//! reductions for the dot products — "not highly parallel and requires
//! substantial and frequent global communication" (§IV-C). B then follows
//! explicitly from Faraday's law: B' = B − Δt ∇×E'.
//!
//! Communication is abstracted behind [`FieldComm`] so the same solver
//! runs serially (tests), on a psmpi world (Cluster-only / Booster-only
//! modes) or on the spawned field world of the C+B mode.

use crate::grid::{Fields, Grid, Moments};
use crate::par;
use std::ops::Range;

/// The solver's communication needs: ghost-row exchange and global sums.
pub trait FieldComm {
    /// Fill the ghost rows of `arr` from the neighbouring slabs
    /// (periodically in y).
    fn halo_exchange(&mut self, grid: &Grid, arr: &mut [f64]);
    /// Global sum over all solver ranks.
    fn allreduce_sum(&mut self, v: f64) -> f64;
}

/// Single-rank communication: ghosts wrap periodically within the slab.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialComm;

impl FieldComm for SerialComm {
    fn halo_exchange(&mut self, grid: &Grid, arr: &mut [f64]) {
        let nx = grid.nx;
        let last = grid.ny_local as isize - 1;
        for i in 0..nx as isize {
            arr[grid.idx(i, -1)] = arr[grid.idx(i, last)];
            arr[grid.idx(i, grid.ny_local as isize)] = arr[grid.idx(i, 0)];
        }
    }

    fn allreduce_sum(&mut self, v: f64) -> f64 {
        v
    }
}

/// The field solver for one slab.
#[derive(Debug, Clone)]
pub struct FieldSolver {
    /// Slab geometry.
    pub grid: Grid,
    /// Time step.
    pub dt: f64,
    /// Implicitness parameter θ ∈ [0.5, 1].
    pub theta: f64,
    /// CG relative-residual tolerance.
    pub cg_tol: f64,
    /// CG iteration cap.
    pub cg_max_iters: u32,
    /// OS threads for the grid loops (resolved; ≥ 1). Wall-clock only —
    /// the loops are organized so every thread count computes the same
    /// bits (see [`par`]).
    pub threads: usize,
}

impl FieldSolver {
    /// Solver from the run configuration.
    pub fn new(grid: Grid, config: &crate::config::XpicConfig) -> Self {
        FieldSolver {
            grid,
            dt: config.dt,
            theta: config.theta,
            cg_tol: config.cg_tol,
            cg_max_iters: config.cg_max_iters,
            threads: par::resolve_threads(config.threads),
        }
    }

    /// Threads to actually use for a grid pass: stay on the caller below
    /// [`par::MIN_PAR_ROWS`] rows (spawn overhead dominates; results are
    /// unaffected either way).
    fn grid_threads(&self) -> usize {
        if self.grid.ny_local >= par::MIN_PAR_ROWS {
            self.threads
        } else {
            1
        }
    }

    /// Split the owned (non-ghost) region of a slab array into per-task
    /// row-block slices, paired with their local row ranges. The row
    /// blocks come from [`par::chunk_ranges`] over the owned rows, so the
    /// partition is a fixed function of the grid.
    fn owned_row_tasks<'a>(
        &self,
        arr: &'a mut [f64],
        row_ranges: &[Range<usize>],
    ) -> Vec<&'a mut [f64]> {
        let nx = self.grid.nx;
        let owned = &mut arr[nx..nx * (self.grid.ny_local + 1)];
        let elem_ranges: Vec<Range<usize>> = row_ranges
            .iter()
            .map(|r| r.start * nx..r.end * nx)
            .collect();
        par::split_mut(owned, &elem_ranges)
    }

    /// Row-block partition of the owned rows for this solver's thread
    /// count (one block per thread; element-wise loops are bit-exact
    /// under any partition).
    fn row_blocks(&self, threads: usize) -> Vec<Range<usize>> {
        par::chunk_ranges(self.grid.ny_local, threads)
    }

    /// κ field: (ω_p Δt θ / 2)² with ω_p² ≈ |ρ| in normalized units.
    fn kappa(&self, moments: &Moments) -> Vec<f64> {
        let f = (self.dt * self.theta * 0.5).powi(2);
        moments.rho.iter().map(|r| f * r.abs()).collect()
    }

    /// Apply the Helmholtz operator to `x` (ghosts must be current):
    /// `y = (1+κ) x − α ∇² x` over owned cells. Each output cell is an
    /// independent write, so the row-parallel execution is bit-exact.
    fn apply(&self, kappa: &[f64], x: &[f64], y: &mut [f64]) {
        let g = &self.grid;
        let alpha = (self.dt * self.theta).powi(2);
        let nx = g.nx;
        let threads = self.grid_threads();
        let blocks = self.row_blocks(threads);
        let tasks: Vec<(Range<usize>, &mut [f64])> = blocks
            .iter()
            .cloned()
            .zip(self.owned_row_tasks(y, &blocks))
            .collect();
        par::run_tasks(threads, tasks, |(jr, ys)| {
            for j in jr.clone() {
                let out = &mut ys[(j - jr.start) * nx..][..nx];
                g.for_each_cross(j as isize, |i, c| {
                    let lap = x[c.xp] + x[c.xm] + x[c.yp] + x[c.ym] - 4.0 * x[c.k];
                    out[i] = (1.0 + kappa[c.k]) * x[c.k] - alpha * lap;
                });
            }
        });
    }

    /// Dot product over owned cells: per-row partial sums, combined in row
    /// order. The association of the floating-point sums is fixed by the
    /// grid, so the result is identical for every thread count.
    fn dot_local(&self, a: &[f64], b: &[f64]) -> f64 {
        let g = &self.grid;
        let nx = g.nx;
        let mut rows = vec![0.0; g.ny_local];
        let threads = self.grid_threads();
        let blocks = self.row_blocks(threads);
        let tasks: Vec<(Range<usize>, &mut [f64])> = blocks
            .iter()
            .cloned()
            .zip(par::split_mut(&mut rows, &blocks))
            .collect();
        par::run_tasks(threads, tasks, |(jr, out)| {
            for j in jr.clone() {
                let start = g.idx(0, j as isize);
                let mut s = 0.0;
                for i in 0..nx {
                    s += a[start + i] * b[start + i];
                }
                out[j - jr.start] = s;
            }
        });
        rows.iter().sum()
    }

    /// Solve the Helmholtz system for one component, in place. Returns the
    /// CG iterations used.
    pub fn solve_component<C: FieldComm>(
        &self,
        kappa: &[f64],
        rhs: &[f64],
        x: &mut [f64],
        comm: &mut C,
    ) -> u32 {
        let n = self.grid.len();
        let mut r = vec![0.0; n];
        let mut p = vec![0.0; n];
        let mut ap = vec![0.0; n];

        comm.halo_exchange(&self.grid, x);
        self.apply(kappa, x, &mut ap);
        let g = &self.grid;
        for j in 0..g.ny_local as isize {
            for i in 0..g.nx as isize {
                let k = g.idx(i, j);
                r[k] = rhs[k] - ap[k];
                p[k] = r[k];
            }
        }
        let rhs_norm2 = comm.allreduce_sum(self.dot_local(rhs, rhs)).max(1e-300);
        let mut rs = comm.allreduce_sum(self.dot_local(&r, &r));
        let tol2 = self.cg_tol * self.cg_tol * rhs_norm2;
        let mut iters = 0;
        while rs > tol2 && iters < self.cg_max_iters {
            comm.halo_exchange(&self.grid, &mut p);
            self.apply(kappa, &p, &mut ap);
            let p_ap = comm.allreduce_sum(self.dot_local(&p, &ap));
            let alpha = rs / p_ap;
            {
                // x += α p, r −= α A p — element-wise, so the row-parallel
                // execution is bit-exact.
                let threads = self.grid_threads();
                let blocks = self.row_blocks(threads);
                let nx = g.nx;
                let p = &p;
                let ap = &ap;
                let tasks: Vec<(Range<usize>, &mut [f64], &mut [f64])> = blocks
                    .iter()
                    .cloned()
                    .zip(self.owned_row_tasks(x, &blocks))
                    .zip(self.owned_row_tasks(&mut r, &blocks))
                    .map(|((jr, xc), rc)| (jr, xc, rc))
                    .collect();
                par::run_tasks(threads, tasks, |(jr, xc, rc)| {
                    for j in jr.clone() {
                        let start = g.idx(0, j as isize);
                        let off = (j - jr.start) * nx;
                        for i in 0..nx {
                            xc[off + i] += alpha * p[start + i];
                            rc[off + i] -= alpha * ap[start + i];
                        }
                    }
                });
            }
            let rs_new = comm.allreduce_sum(self.dot_local(&r, &r));
            let beta = rs_new / rs;
            rs = rs_new;
            {
                // p = r + β p — element-wise.
                let threads = self.grid_threads();
                let blocks = self.row_blocks(threads);
                let nx = g.nx;
                let r = &r;
                let tasks: Vec<(Range<usize>, &mut [f64])> = blocks
                    .iter()
                    .cloned()
                    .zip(self.owned_row_tasks(&mut p, &blocks))
                    .collect();
                par::run_tasks(threads, tasks, |(jr, pc)| {
                    for j in jr.clone() {
                        let start = g.idx(0, j as isize);
                        let off = (j - jr.start) * nx;
                        for i in 0..nx {
                            pc[off + i] = r[start + i] + beta * pc[off + i];
                        }
                    }
                });
            }
            iters += 1;
        }
        comm.halo_exchange(&self.grid, x);
        iters
    }

    /// Divergence cleaning: solve ∇²φ = ∇·E − ρ_net (ρ_net is the charge
    /// density against the neutralizing background, i.e. made zero-mean
    /// globally) and subtract ∇φ from E. Returns CG iterations used.
    pub fn clean_divergence<C: FieldComm>(
        &self,
        fields: &mut Fields,
        moments: &Moments,
        comm: &mut C,
    ) -> u32 {
        let g = &self.grid;
        let n = g.len();
        comm.halo_exchange(&self.grid, &mut fields.ex);
        comm.halo_exchange(&self.grid, &mut fields.ey);
        // Residual r = ∇·E − ρ_net over owned cells.
        let mut r = vec![0.0; n];
        let mut local_sum = 0.0;
        let mut local_cells = 0.0;
        for j in 0..g.ny_local as isize {
            g.for_each_cross(j, |_, c| {
                let div = 0.5 * (fields.ex[c.xp] - fields.ex[c.xm])
                    + 0.5 * (fields.ey[c.yp] - fields.ey[c.ym]);
                r[c.k] = div - moments.rho[c.k];
                local_sum += r[c.k];
                local_cells += 1.0;
            });
        }
        // Make the RHS zero-mean (periodic Poisson compatibility: the mean
        // of ρ is neutralized by the static background).
        let total = comm.allreduce_sum(local_sum);
        let cells = comm.allreduce_sum(local_cells);
        let mean = total / cells.max(1.0);
        for j in 0..g.ny_local as isize {
            for i in 0..g.nx as isize {
                let k = g.idx(i, j);
                r[k] -= mean;
            }
        }
        // Solve −α∇²φ = −α·r via the Helmholtz machinery with κ ≡ −1
        // (kills the identity term): A(φ) = −α ∇²φ.
        let alpha = (self.dt * self.theta).powi(2);
        let kappa = vec![-1.0; n];
        let mut rhs = vec![0.0; n];
        for j in 0..g.ny_local as isize {
            for i in 0..g.nx as isize {
                let k = g.idx(i, j);
                rhs[k] = -alpha * r[k];
            }
        }
        // Divergence cleaning is a corrector: production PIC codes run it
        // at a much looser tolerance than the field solve (and often only
        // every few steps). Temporarily relax the CG tolerance.
        let cleaner = FieldSolver {
            cg_tol: self.cg_tol.clamp(1e-4, 1e-2),
            ..self.clone()
        };
        let mut phi = vec![0.0; n];
        let iters = cleaner.solve_component(&kappa, &rhs, &mut phi, comm);
        // E ← E − ∇φ.
        for j in 0..g.ny_local as isize {
            g.for_each_cross(j, |_, c| {
                fields.ex[c.k] -= 0.5 * (phi[c.xp] - phi[c.xm]);
                fields.ey[c.k] -= 0.5 * (phi[c.yp] - phi[c.ym]);
            });
        }
        comm.halo_exchange(&self.grid, &mut fields.ex);
        comm.halo_exchange(&self.grid, &mut fields.ey);
        iters
    }

    /// calculateE: advance E implicitly from the moments (Helmholtz solve
    /// per component + divergence cleaning). Returns total CG iterations.
    pub fn calculate_e<C: FieldComm>(
        &self,
        fields: &mut Fields,
        moments: &Moments,
        comm: &mut C,
    ) -> u32 {
        let g = &self.grid;
        let kappa = self.kappa(moments);
        // RHS per component: E + Δtθ (∇×B − J).
        comm.halo_exchange(&self.grid, &mut fields.bx);
        comm.halo_exchange(&self.grid, &mut fields.by);
        comm.halo_exchange(&self.grid, &mut fields.bz);
        let c1 = self.dt * self.theta;
        let n = g.len();
        let mut rhs_x = vec![0.0; n];
        let mut rhs_y = vec![0.0; n];
        let mut rhs_z = vec![0.0; n];
        for j in 0..g.ny_local as isize {
            g.for_each_cross(j, |_, c| {
                let k = c.k;
                // 2-D curls (∂z ≡ 0), central differences, Δx = Δy = 1.
                let curl_bx = 0.5 * (fields.bz[c.yp] - fields.bz[c.ym]);
                let curl_by = -0.5 * (fields.bz[c.xp] - fields.bz[c.xm]);
                let curl_bz = 0.5 * (fields.by[c.xp] - fields.by[c.xm])
                    - 0.5 * (fields.bx[c.yp] - fields.bx[c.ym]);
                rhs_x[k] = fields.ex[k] + c1 * (curl_bx - moments.jx[k]);
                rhs_y[k] = fields.ey[k] + c1 * (curl_by - moments.jy[k]);
                rhs_z[k] = fields.ez[k] + c1 * (curl_bz - moments.jz[k]);
            });
        }
        let mut iters = 0;
        iters += self.solve_component(&kappa, &rhs_x, &mut fields.ex, comm);
        iters += self.solve_component(&kappa, &rhs_y, &mut fields.ey, comm);
        iters += self.solve_component(&kappa, &rhs_z, &mut fields.ez, comm);
        iters += self.clean_divergence(fields, moments, comm);
        iters
    }

    /// calculateB: Faraday's law, B ← B − Δt ∇×E.
    pub fn calculate_b<C: FieldComm>(&self, fields: &mut Fields, comm: &mut C) {
        let g = &self.grid;
        comm.halo_exchange(&self.grid, &mut fields.ex);
        comm.halo_exchange(&self.grid, &mut fields.ey);
        comm.halo_exchange(&self.grid, &mut fields.ez);
        let n = g.len();
        let mut dbx = vec![0.0; n];
        let mut dby = vec![0.0; n];
        let mut dbz = vec![0.0; n];
        for j in 0..g.ny_local as isize {
            g.for_each_cross(j, |_, c| {
                dbx[c.k] = 0.5 * (fields.ez[c.yp] - fields.ez[c.ym]);
                dby[c.k] = -0.5 * (fields.ez[c.xp] - fields.ez[c.xm]);
                dbz[c.k] = 0.5 * (fields.ey[c.xp] - fields.ey[c.xm])
                    - 0.5 * (fields.ex[c.yp] - fields.ex[c.ym]);
            });
        }
        for j in 0..g.ny_local as isize {
            for i in 0..g.nx as isize {
                let k = g.idx(i, j);
                fields.bx[k] -= self.dt * dbx[k];
                fields.by[k] -= self.dt * dby[k];
                fields.bz[k] -= self.dt * dbz[k];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XpicConfig;

    fn solver(nx: usize, ny: usize) -> FieldSolver {
        let g = Grid::slab(nx, ny, 0, 1);
        FieldSolver::new(g, &XpicConfig::test_small())
    }

    #[test]
    fn cg_solves_manufactured_system() {
        let s = solver(16, 16);
        let g = s.grid;
        let kappa = vec![0.3; g.len()];
        // Construct rhs = A x* for a known x*.
        let mut x_star = vec![0.0; g.len()];
        for j in 0..g.ny_local as isize {
            for i in 0..g.nx as isize {
                x_star[g.idx(i, j)] = ((i as f64) * 0.37).sin() + ((j as f64) * 0.21).cos();
            }
        }
        let mut comm = SerialComm;
        comm.halo_exchange(&g, &mut x_star);
        let mut rhs = vec![0.0; g.len()];
        s.apply(&kappa, &x_star, &mut rhs);
        let mut x = vec![0.0; g.len()];
        let iters = s.solve_component(&kappa, &rhs, &mut x, &mut comm);
        assert!(iters > 0 && iters < s.cg_max_iters, "iters {iters}");
        for j in 0..g.ny_local as isize {
            for i in 0..g.nx as isize {
                let k = g.idx(i, j);
                assert!(
                    (x[k] - x_star[k]).abs() < 1e-6,
                    "CG mismatch at ({i},{j}): {} vs {}",
                    x[k],
                    x_star[k]
                );
            }
        }
    }

    /// The Helmholtz operator with every neighbour taken through
    /// `Grid::idx` — the oracle for the edge-only wrap in `apply`.
    fn apply_all_idx(s: &FieldSolver, kappa: &[f64], x: &[f64], y: &mut [f64]) {
        let g = &s.grid;
        let alpha = (s.dt * s.theta).powi(2);
        for j in 0..g.ny_local as isize {
            for i in 0..g.nx as isize {
                let k = g.idx(i, j);
                let lap = x[g.idx(i + 1, j)]
                    + x[g.idx(i - 1, j)]
                    + x[g.idx(i, j + 1)]
                    + x[g.idx(i, j - 1)]
                    - 4.0 * x[k];
                y[k] = (1.0 + kappa[k]) * x[k] - alpha * lap;
            }
        }
    }

    /// `solve_component` rebuilt serially on [`apply_all_idx`], with the
    /// same row-ordered dot products and update order.
    fn solve_all_idx(s: &FieldSolver, kappa: &[f64], rhs: &[f64], x: &mut [f64]) -> u32 {
        let g = &s.grid;
        let owned = |k: &mut dyn FnMut(usize)| {
            for j in 0..g.ny_local as isize {
                for i in 0..g.nx as isize {
                    k(g.idx(i, j));
                }
            }
        };
        let dot = |a: &[f64], b: &[f64]| -> f64 {
            let rows: Vec<f64> = (0..g.ny_local as isize)
                .map(|j| {
                    let start = g.idx(0, j);
                    let mut r = 0.0;
                    for i in 0..g.nx {
                        r += a[start + i] * b[start + i];
                    }
                    r
                })
                .collect();
            rows.iter().sum()
        };
        let n = g.len();
        let (mut r, mut p, mut ap) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut comm = SerialComm;
        comm.halo_exchange(g, x);
        apply_all_idx(s, kappa, x, &mut ap);
        owned(&mut |k| {
            r[k] = rhs[k] - ap[k];
            p[k] = r[k];
        });
        let tol2 = s.cg_tol * s.cg_tol * dot(rhs, rhs).max(1e-300);
        let mut rs = dot(&r, &r);
        let mut iters = 0;
        while rs > tol2 && iters < s.cg_max_iters {
            comm.halo_exchange(g, &mut p);
            apply_all_idx(s, kappa, &p, &mut ap);
            let alpha = rs / dot(&p, &ap);
            owned(&mut |k| {
                x[k] += alpha * p[k];
                r[k] -= alpha * ap[k];
            });
            let rs_new = dot(&r, &r);
            let beta = rs_new / rs;
            rs = rs_new;
            owned(&mut |k| p[k] = r[k] + beta * p[k]);
            iters += 1;
        }
        comm.halo_exchange(g, x);
        iters
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn edge_only_wrap_matches_all_idx_stencil_bit_for_bit() {
        for nx in [1usize, 2, 3, 7, 128] {
            let s = solver(nx, 6);
            let g = s.grid;
            let mut kappa = vec![0.0; g.len()];
            let mut x = vec![0.0; g.len()];
            for j in 0..g.ny_local as isize {
                for i in 0..nx as isize {
                    let k = g.idx(i, j);
                    kappa[k] = 0.1 + 0.03 * ((i * 5 + j * 3) % 7) as f64;
                    x[k] = ((i as f64) * 0.37 + 0.1).sin() * ((j as f64) * 0.21).cos();
                }
            }
            SerialComm.halo_exchange(&g, &mut x);
            let (mut fast, mut oracle) = (vec![0.0; g.len()], vec![0.0; g.len()]);
            s.apply(&kappa, &x, &mut fast);
            apply_all_idx(&s, &kappa, &x, &mut oracle);
            assert_eq!(bits(&fast), bits(&oracle), "apply differs at nx={nx}");

            // The manufactured system of `cg_solves_manufactured_system`:
            // same iteration count, same solution bits.
            let mut rhs = vec![0.0; g.len()];
            apply_all_idx(&s, &kappa, &x, &mut rhs);
            let (mut xf, mut xo) = (vec![0.0; g.len()], vec![0.0; g.len()]);
            let iters = s.solve_component(&kappa, &rhs, &mut xf, &mut SerialComm);
            let iters_oracle = solve_all_idx(&s, &kappa, &rhs, &mut xo);
            assert!(iters > 0, "nx={nx}: the solve must iterate");
            assert_eq!(iters, iters_oracle, "CG iterations differ at nx={nx}");
            assert_eq!(bits(&xf), bits(&xo), "CG solution differs at nx={nx}");
        }
    }

    #[test]
    fn cg_solve_is_thread_count_invariant() {
        // A slab tall enough to cross MIN_PAR_ROWS, solved with several
        // thread counts: every run must produce the same bits (and thus
        // the same iteration count — what virtual time depends on).
        let g = Grid::slab(8, par::MIN_PAR_ROWS, 0, 1);
        let mut reference: Option<(u32, Vec<f64>)> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut cfg = XpicConfig::test_small();
            cfg.threads = threads;
            let s = FieldSolver::new(g, &cfg);
            let mut kappa = vec![0.0; g.len()];
            let mut rhs = vec![0.0; g.len()];
            for j in 0..g.ny_local as isize {
                for i in 0..g.nx as isize {
                    let k = g.idx(i, j);
                    kappa[k] = 0.05 + 0.01 * ((i * 7 + j) % 5) as f64;
                    rhs[k] = ((i as f64) * 0.31).sin() * ((j as f64) * 0.17).cos();
                }
            }
            let mut x = vec![0.0; g.len()];
            let mut comm = SerialComm;
            let iters = s.solve_component(&kappa, &rhs, &mut x, &mut comm);
            match &reference {
                None => reference = Some((iters, x)),
                Some((ri, rx)) => {
                    assert_eq!(iters, *ri, "threads={threads} changed CG iterations");
                    assert_eq!(&x, rx, "threads={threads} changed the solution bits");
                }
            }
        }
    }

    #[test]
    fn zero_sources_keep_zero_fields() {
        let s = solver(8, 8);
        let mut f = Fields::zeros(&s.grid);
        let m = Moments::zeros(&s.grid);
        let mut comm = SerialComm;
        s.calculate_e(&mut f, &m, &mut comm);
        s.calculate_b(&mut f, &mut comm);
        assert!(f.ex.iter().all(|&v| v.abs() < 1e-14));
        assert!(f.bz.iter().all(|&v| v.abs() < 1e-14));
    }

    #[test]
    fn uniform_current_drives_uniform_e() {
        // With J = (j0, 0, 0) uniform and B = 0, E' = −Δtθ j0 / (1+κ),
        // uniform (the Laplacian of a constant vanishes).
        let s = solver(8, 8);
        let mut f = Fields::zeros(&s.grid);
        let mut m = Moments::zeros(&s.grid);
        for v in m.jx.iter_mut() {
            *v = 2.0;
        }
        let mut comm = SerialComm;
        s.calculate_e(&mut f, &m, &mut comm);
        let expect = -s.dt * s.theta * 2.0;
        let g = s.grid;
        for j in 0..g.ny_local as isize {
            for i in 0..g.nx as isize {
                let v = f.ex[g.idx(i, j)];
                assert!((v - expect).abs() < 1e-8, "{v} vs {expect}");
            }
        }
        // Ey, Ez untouched.
        assert!(f.ey.iter().all(|&v| v.abs() < 1e-10));
    }

    #[test]
    fn faraday_uniform_e_keeps_b() {
        let s = solver(8, 8);
        let mut f = Fields::zeros(&s.grid);
        for v in f.ex.iter_mut() {
            *v = 5.0;
        }
        let mut comm = SerialComm;
        s.calculate_b(&mut f, &mut comm);
        assert!(
            f.bx.iter().all(|&v| v.abs() < 1e-14),
            "curl of uniform E is 0"
        );
        assert!(f.bz.iter().all(|&v| v.abs() < 1e-14));
    }

    #[test]
    fn faraday_sheared_e_builds_b() {
        // Ey varying in x gives (∇×E)_z = ∂Ey/∂x ≠ 0 → Bz changes.
        let s = solver(16, 8);
        let g = s.grid;
        let mut f = Fields::zeros(&g);
        for j in -1..=(g.ny_local as isize) {
            for i in 0..g.nx as isize {
                // sin so the periodic wrap stays smooth
                f.ey[g.idx(i, j)] = (2.0 * std::f64::consts::PI * i as f64 / g.nx as f64).sin();
            }
        }
        let mut comm = SerialComm;
        s.calculate_b(&mut f, &mut comm);
        let magnitude: f64 = f.bz.iter().map(|v| v.abs()).sum();
        assert!(magnitude > 1e-3, "Bz must respond to sheared Ey");
        assert!(f.bx.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn kappa_uses_charge_density() {
        let s = solver(4, 4);
        let mut m = Moments::zeros(&s.grid);
        m.rho[s.grid.idx(1, 1)] = -8.0;
        let kappa = s.kappa(&m);
        let f = (s.dt * s.theta * 0.5).powi(2);
        assert_eq!(kappa[s.grid.idx(1, 1)], 8.0 * f);
        assert_eq!(kappa[s.grid.idx(0, 0)], 0.0);
    }

    #[test]
    fn serial_halo_wraps_periodically() {
        let s = solver(4, 4);
        let g = s.grid;
        let mut arr = vec![0.0; g.len()];
        for j in 0..4isize {
            for i in 0..4isize {
                arr[g.idx(i, j)] = (j * 10 + i) as f64;
            }
        }
        SerialComm.halo_exchange(&g, &mut arr);
        assert_eq!(arr[g.idx(2, -1)], arr[g.idx(2, 3)]);
        assert_eq!(arr[g.idx(1, 4)], arr[g.idx(1, 0)]);
    }
}
