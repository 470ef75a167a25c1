//! The Jacobi relaxation kernel.

/// Outcome of one sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepResult {
    /// Largest absolute cell change in this sweep.
    pub max_delta: f64,
}

/// Interior cells per chunk: one independent max accumulator per lane,
/// so the chunk loop carries no serial dependency and vectorizes.
const LANES: usize = 8;

/// The Jacobi update of one cell; the sum's order is fixed, so every
/// formulation of the sweep produces the same bits.
#[inline(always)]
fn relax(left: f64, right: f64, up: f64, down: f64) -> f64 {
    0.25 * (left + right + up + down)
}

/// `acc` raised to `delta` when larger. A NaN delta leaves `acc` as it
/// is, like `f64::max`, and max is order-independent, so lanes may fold
/// in any order.
#[inline(always)]
fn raise(acc: f64, delta: f64) -> f64 {
    if delta > acc {
        delta
    } else {
        acc
    }
}

/// One Jacobi sweep over the owned rows `1..=rows` of a `(rows+2) × cols`
/// buffer (rows 0 and `rows+1` are halo). Writes into `dst`, reads `src`.
/// Left/right edges use one-sided (insulated) neighborhoods.
///
/// The two edge columns are computed on their own; the interior runs in
/// branch-free chunks of `LANES` cells with one max accumulator per lane.
pub fn jacobi_sweep(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) -> SweepResult {
    assert_eq!(src.len(), (rows + 2) * cols, "src shape");
    assert_eq!(dst.len(), (rows + 2) * cols, "dst shape");
    if cols == 0 {
        return SweepResult { max_delta: 0.0 };
    }
    let mut lanes = [0.0f64; LANES];
    for r in 1..=rows {
        let base = r * cols;
        let up = &src[base - cols..base];
        let row = &src[base..base + cols];
        let down = &src[base + cols..base + 2 * cols];
        let out = &mut dst[base..base + cols];
        let last = cols - 1;
        // Edge columns: the missing neighbour is the cell itself.
        let left_new = relax(row[0], row[1.min(last)], up[0], down[0]);
        lanes[0] = raise(lanes[0], (left_new - row[0]).abs());
        out[0] = left_new;
        if cols == 1 {
            continue;
        }
        let right_new = relax(row[last - 1], row[last], up[last], down[last]);
        lanes[1] = raise(lanes[1], (right_new - row[last]).abs());
        out[last] = right_new;

        // Interior columns 1..last, as aligned views of left/centre/right.
        let n = cols - 2;
        let (l, l_tail) = row[..n].as_chunks::<LANES>();
        let (c, c_tail) = row[1..=n].as_chunks::<LANES>();
        let (rt, rt_tail) = row[2..].as_chunks::<LANES>();
        let (u, u_tail) = up[1..=n].as_chunks::<LANES>();
        let (d, d_tail) = down[1..=n].as_chunks::<LANES>();
        let (o, o_tail) = out[1..=n].as_chunks_mut::<LANES>();
        let chunks = l.iter().zip(c).zip(rt).zip(u).zip(d).zip(o);
        for (((((l, c), rt), u), d), o) in chunks {
            for k in 0..LANES {
                let new = relax(l[k], rt[k], u[k], d[k]);
                lanes[k] = raise(lanes[k], (new - c[k]).abs());
                o[k] = new;
            }
        }
        let tail = l_tail
            .iter()
            .zip(c_tail)
            .zip(rt_tail)
            .zip(u_tail)
            .zip(d_tail);
        for (k, ((((l, c), rt), u), d)) in tail.enumerate() {
            let new = relax(*l, *rt, *u, *d);
            lanes[k] = raise(lanes[k], (new - c).abs());
            o_tail[k] = new;
        }
    }
    let max_delta = lanes.into_iter().fold(0.0, raise);
    SweepResult { max_delta }
}

/// The sweep as first written — one loop, per-cell edge branches, one
/// serial max chain. [`jacobi_sweep`] must match it bit for bit.
#[cfg(test)]
pub(crate) fn jacobi_sweep_reference(
    src: &[f64],
    dst: &mut [f64],
    rows: usize,
    cols: usize,
) -> SweepResult {
    assert_eq!(src.len(), (rows + 2) * cols, "src shape");
    assert_eq!(dst.len(), (rows + 2) * cols, "dst shape");
    let mut max_delta: f64 = 0.0;
    for r in 1..=rows {
        let base = r * cols;
        for c in 0..cols {
            let left = if c == 0 {
                src[base + c]
            } else {
                src[base + c - 1]
            };
            let right = if c == cols - 1 {
                src[base + c]
            } else {
                src[base + c + 1]
            };
            let up = src[base - cols + c];
            let down = src[base + cols + c];
            let new = 0.25 * (left + right + up + down);
            max_delta = max_delta.max((new - src[base + c]).abs());
            dst[base + c] = new;
        }
    }
    SweepResult { max_delta }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sweep_matches_reference_bitwise(
            rows in 1usize..6,
            cols in 1usize..41,
            seed in any::<u64>(),
            ties in any::<bool>(),
        ) {
            // Arbitrary finite values, or — with `ties` — a handful of
            // repeated ones, so equal deltas land in different lanes.
            let mut x = seed;
            let src: Vec<f64> = (0..(rows + 2) * cols)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if ties {
                        ((x >> 61) as f64) * 12.5
                    } else {
                        ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e6
                    }
                })
                .collect();
            let mut want = vec![-1.0; src.len()];
            let mut got = vec![-1.0; src.len()];
            let w = jacobi_sweep_reference(&src, &mut want, rows, cols);
            let g = jacobi_sweep(&src, &mut got, rows, cols);
            prop_assert_eq!(g.max_delta.to_bits(), w.max_delta.to_bits());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    fn grid(rows: usize, cols: usize, v: f64) -> Vec<f64> {
        vec![v; (rows + 2) * cols]
    }

    #[test]
    fn uniform_grid_is_fixed_point() {
        let src = grid(4, 8, 3.5);
        let mut dst = grid(4, 8, 0.0);
        let r = jacobi_sweep(&src, &mut dst, 4, 8);
        assert_eq!(r.max_delta, 0.0);
        for c in 0..8 {
            for row in 1..=4 {
                assert_eq!(dst[row * 8 + c], 3.5);
            }
        }
    }

    #[test]
    fn hot_halo_diffuses_in() {
        let cols = 4;
        let mut src = grid(2, cols, 0.0);
        src[..cols].fill(100.0); // hot upper halo
        let mut dst = grid(2, cols, 0.0);
        let r = jacobi_sweep(&src, &mut dst, 2, cols);
        assert_eq!(r.max_delta, 25.0);
        for c in 0..cols {
            assert_eq!(dst[cols + c], 25.0, "first owned row heated");
            assert_eq!(dst[2 * cols + c], 0.0, "second row untouched in one sweep");
        }
    }

    #[test]
    fn average_conserves_between_bounds() {
        let cols = 3;
        let mut src = grid(1, cols, 0.0);
        for (i, x) in src.iter_mut().enumerate() {
            *x = i as f64;
        }
        let mut dst = grid(1, cols, 0.0);
        jacobi_sweep(&src, &mut dst, 1, cols);
        let (min, max) = src
            .iter()
            .fold((f64::MAX, f64::MIN), |(a, b), &x| (a.min(x), b.max(x)));
        for c in 0..cols {
            let v = dst[cols + c];
            assert!(v >= min && v <= max, "averaging stays within bounds");
        }
    }

    #[test]
    #[should_panic(expected = "src shape")]
    fn shape_mismatch_panics() {
        let src = vec![0.0; 10];
        let mut dst = vec![0.0; 12];
        jacobi_sweep(&src, &mut dst, 2, 3);
    }
}
