//! Dynamic time warping with a Sakoe-Chiba window and the LB_Keogh
//! envelope lower bound.
//!
//! Paper §6.1 clusters neighboring beacons by the similarity of their RSS
//! *trends* during the L-shaped walk. DTW "formulates the cost matrix
//! based on Euclidean distance between two datasets and then picks the
//! path with the lowest cost as the alignment". Because DTW is `O(n²)`,
//! the paper validates each segment first with a cheap *lower bounding
//! technique* [Ratanamahatana & Keogh 2004]: build a bounding envelope
//! around the target segment using the warping window, sum the squared
//! excursions of the candidate outside the envelope, and only run full
//! DTW when that lower bound passes the threshold. The paper reports the
//! lower-bound test to be ~100× faster than DTW on the same data.
//!
//! Local cost is squared difference; reported distances are the square
//! root of the accumulated cost, so `lb_keogh(...) ≤ dtw(...)` holds for
//! matching window radii.

/// Full DTW distance (no warping constraint).
///
/// ```
/// use locble_dsp::dtw_distance;
///
/// let a = [0.0, 1.0, 2.0, 1.0, 0.0];
/// // A time-shifted copy is free under DTW (warping absorbs the lag).
/// let shifted = [0.0, 0.0, 1.0, 2.0, 1.0, 0.0];
/// assert!(dtw_distance(&a, &a) < 1e-12);
/// assert!(dtw_distance(&a, &shifted) < 1e-12);
/// ```
pub fn dtw_distance(a: &[f64], b: &[f64]) -> f64 {
    dtw_distance_windowed(a, b, usize::MAX)
}

/// DTW distance with a Sakoe-Chiba band: cells with `|i − j| > window`
/// are excluded from the alignment. `usize::MAX` disables the band.
///
/// Returns `f64::INFINITY` when either sequence is empty.
pub fn dtw_distance_windowed(a: &[f64], b: &[f64], window: usize) -> f64 {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return f64::INFINITY;
    }
    // The band must be at least |n − m| wide for any alignment to exist.
    let w = window.max(n.abs_diff(m));

    // Rolling two-row DP over the accumulated cost matrix.
    let mut prev = vec![f64::INFINITY; m + 1];
    let mut curr = vec![f64::INFINITY; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        curr.fill(f64::INFINITY);
        let lo = i.saturating_sub(w).max(1);
        let hi = i.saturating_add(w).min(m);
        if lo > hi {
            std::mem::swap(&mut prev, &mut curr);
            continue;
        }
        for j in lo..=hi {
            let d = a[i - 1] - b[j - 1];
            let cost = d * d;
            let best = prev[j].min(prev[j - 1]).min(curr[j - 1]);
            curr[j] = cost + best;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m].sqrt()
}

/// A dense row-major accumulated-cost matrix: one flat buffer instead of
/// a `Vec<Vec<f64>>`, so the DP fill and the backtrack stay on a single
/// contiguous allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CostMatrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl CostMatrix {
    /// Number of rows (`a.len()`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (`b.len()`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat index of cell `(i, j)`.
    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        i * self.cols + j
    }

    /// Accumulated cost at cell `(i, j)` (`f64::INFINITY` when the cell
    /// is outside the warping band).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[self.idx(i, j)]
    }

    /// `true` when the matrix has no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Accumulated-cost matrix (for visualizing alignments, paper Fig. 9c/d).
/// Cell `(i, j)` is the minimal accumulated squared cost aligning
/// `a[..=i]` with `b[..=j]`; unreachable cells are `f64::INFINITY`.
pub fn dtw_cost_matrix(a: &[f64], b: &[f64], window: usize) -> CostMatrix {
    let (n, m) = (a.len(), b.len());
    let w = window.max(n.abs_diff(m));
    let mut acc = CostMatrix {
        data: vec![f64::INFINITY; n * m],
        rows: n,
        cols: m,
    };
    for (i, &ai) in a.iter().enumerate() {
        let lo = i.saturating_sub(w);
        let hi = i.saturating_add(w).min(m.saturating_sub(1));
        for (j, &bj) in b.iter().enumerate().take(hi + 1).skip(lo) {
            let d = ai - bj;
            let cost = d * d;
            let best = if i == 0 && j == 0 {
                0.0
            } else {
                let up = if i > 0 {
                    acc.get(i - 1, j)
                } else {
                    f64::INFINITY
                };
                let left = if j > 0 {
                    acc.get(i, j - 1)
                } else {
                    f64::INFINITY
                };
                let diag = if i > 0 && j > 0 {
                    acc.get(i - 1, j - 1)
                } else {
                    f64::INFINITY
                };
                up.min(left).min(diag)
            };
            let at = acc.idx(i, j);
            acc.data[at] = cost + best;
        }
    }
    acc
}

/// Extracts the optimal warping path from an accumulated-cost matrix,
/// from `(0,0)` to `(n−1, m−1)`, as `(i, j)` index pairs.
pub fn dtw_path(acc: &CostMatrix) -> Vec<(usize, usize)> {
    if acc.is_empty() {
        return Vec::new();
    }
    let (n, m) = (acc.rows(), acc.cols());
    let mut path = vec![(n - 1, m - 1)];
    let (mut i, mut j) = (n - 1, m - 1);
    while i > 0 || j > 0 {
        let up = if i > 0 {
            acc.get(i - 1, j)
        } else {
            f64::INFINITY
        };
        let left = if j > 0 {
            acc.get(i, j - 1)
        } else {
            f64::INFINITY
        };
        let diag = if i > 0 && j > 0 {
            acc.get(i - 1, j - 1)
        } else {
            f64::INFINITY
        };
        if diag <= up && diag <= left {
            i -= 1;
            j -= 1;
        } else if up <= left {
            i -= 1;
        } else {
            j -= 1;
        }
        path.push((i, j));
    }
    path.reverse();
    path
}

/// A bounding envelope around a reference sequence for LB_Keogh.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Per-sample upper bound: running max over the warping window.
    pub upper: Vec<f64>,
    /// Per-sample lower bound: running min over the warping window.
    pub lower: Vec<f64>,
}

impl Envelope {
    /// Builds the envelope of `reference` with warping radius `radius`.
    ///
    /// Runs the monotonic-deque sliding min/max in O(n) total — each
    /// index enters and leaves each deque once — versus the
    /// O(n·radius) per-window scan of
    /// [`new_reference`](Self::new_reference); outputs are identical for
    /// NaN-free input (RSS traces are). The two small index deques are
    /// per-call allocations like the output itself; callers in the
    /// clustering layer build envelopes per confirmed segment, not per
    /// batch, so this stays off the steady-state hot path.
    pub fn new(reference: &[f64], radius: usize) -> Envelope {
        let n = reference.len();
        let mut upper = Vec::with_capacity(n);
        let mut lower = Vec::with_capacity(n);
        let mut maxq: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut minq: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut next = 0usize; // next reference index to admit
        for i in 0..n {
            // Window for slot i: [i − radius, i + radius], clamped.
            let hi = i.saturating_add(radius).min(n - 1);
            while next <= hi {
                let x = reference[next];
                while maxq.back().is_some_and(|&k| reference[k] <= x) {
                    maxq.pop_back();
                }
                maxq.push_back(next);
                while minq.back().is_some_and(|&k| reference[k] >= x) {
                    minq.pop_back();
                }
                minq.push_back(next);
                next += 1;
            }
            let lo = i.saturating_sub(radius);
            while maxq.front().is_some_and(|&k| k < lo) {
                maxq.pop_front();
            }
            while minq.front().is_some_and(|&k| k < lo) {
                minq.pop_front();
            }
            upper.push(reference[maxq[0]]);
            lower.push(reference[minq[0]]);
        }
        Envelope { upper, lower }
    }

    /// The per-window fold formulation of [`new`](Self::new): scans the
    /// full window for every slot. Kept as the differential and timing
    /// reference for the O(n) deque implementation.
    pub fn new_reference(reference: &[f64], radius: usize) -> Envelope {
        let n = reference.len();
        let mut upper = Vec::with_capacity(n);
        let mut lower = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i.saturating_sub(radius);
            let hi = (i + radius + 1).min(n);
            let slice = &reference[lo..hi];
            upper.push(slice.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
            lower.push(slice.iter().cloned().fold(f64::INFINITY, f64::min));
        }
        Envelope { upper, lower }
    }

    /// Envelope length.
    pub fn len(&self) -> usize {
        self.upper.len()
    }

    /// `true` when the envelope is empty.
    pub fn is_empty(&self) -> bool {
        self.upper.is_empty()
    }
}

/// LB_Keogh lower bound: the square root of the summed squared distance of
/// `candidate` samples falling outside `envelope`.
///
/// When `envelope` was built from a reference `R` with radius `r`, this is
/// a lower bound on `dtw_distance_windowed(candidate, R, r)` for
/// equal-length sequences.
///
/// # Panics
/// Panics when lengths differ (LB_Keogh is defined for aligned lengths;
/// resample first, as LocBLE's clustering does).
pub fn lb_keogh(candidate: &[f64], envelope: &Envelope) -> f64 {
    assert_eq!(
        candidate.len(),
        envelope.len(),
        "LB_Keogh requires equal lengths; interpolate the candidate first"
    );
    // Branchless excursion: at most one of the two max() terms is
    // positive because lower ≤ upper. 4 independent lanes keep the
    // multiply-add chains out of each other's way; the lane sums are
    // combined in a fixed order so the result is deterministic (it can
    // differ from strict left-to-right summation only by reordering
    // error, ~1e-16 relative).
    let n = candidate.len();
    let quads = n - n % 4;
    let mut acc = [0.0f64; 4];
    for i in (0..quads).step_by(4) {
        for (l, a) in acc.iter_mut().enumerate() {
            let x = candidate[i + l];
            let d = (x - envelope.upper[i + l]).max(0.0) + (envelope.lower[i + l] - x).max(0.0);
            *a += d * d;
        }
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for ((&x, &up), &low) in candidate[quads..]
        .iter()
        .zip(&envelope.upper[quads..])
        .zip(&envelope.lower[quads..])
    {
        let d = (x - up).max(0.0) + (low - x).max(0.0);
        sum += d * d;
    }
    sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_have_zero_distance() {
        let a = [1.0, 2.0, 3.0, 2.0, 1.0];
        assert_eq!(dtw_distance(&a, &a), 0.0);
        assert_eq!(dtw_distance_windowed(&a, &a, 1), 0.0);
    }

    #[test]
    fn shifted_sequence_cheaper_under_dtw_than_euclidean() {
        // A one-sample shift is nearly free for DTW but expensive
        // point-wise.
        let a: Vec<f64> = (0..30).map(|i| ((i as f64) * 0.4).sin()).collect();
        let b: Vec<f64> = (0..30).map(|i| (((i + 1) as f64) * 0.4).sin()).collect();
        let euclid: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        let dtw = dtw_distance(&a, &b);
        assert!(dtw < euclid / 2.0, "dtw {dtw} vs euclid {euclid}");
    }

    #[test]
    fn window_zero_equals_euclidean() {
        let a = [0.0, 1.0, 2.0, 3.0];
        let b = [1.0, 1.0, 2.0, 5.0];
        let euclid: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert!((dtw_distance_windowed(&a, &b, 0) - euclid).abs() < 1e-12);
    }

    #[test]
    fn wider_window_never_increases_distance() {
        let a: Vec<f64> = (0..20).map(|i| (i as f64 * 0.5).cos()).collect();
        let b: Vec<f64> = (0..20).map(|i| (i as f64 * 0.5 + 0.8).cos()).collect();
        let mut prev = f64::INFINITY;
        for w in [0, 1, 2, 4, 8, 19] {
            let d = dtw_distance_windowed(&a, &b, w);
            assert!(d <= prev + 1e-12, "window {w}: {d} > {prev}");
            prev = d;
        }
    }

    #[test]
    fn symmetry() {
        let a = [1.0, 3.0, 2.0, 4.0];
        let b = [2.0, 2.0, 3.0];
        assert!((dtw_distance(&a, &b) - dtw_distance(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn empty_sequences_are_infinitely_far() {
        assert_eq!(dtw_distance(&[], &[1.0]), f64::INFINITY);
        assert_eq!(dtw_distance(&[1.0], &[]), f64::INFINITY);
    }

    #[test]
    fn unequal_lengths_supported() {
        let a = [0.0, 1.0, 2.0, 3.0, 4.0];
        let b = [0.0, 2.0, 4.0];
        let d = dtw_distance(&a, &b);
        assert!(d.is_finite());
        // Band narrower than the length difference still works (clamped).
        let dw = dtw_distance_windowed(&a, &b, 0);
        assert!(dw.is_finite());
    }

    #[test]
    fn cost_matrix_corner_matches_distance() {
        let a = [1.0, 2.0, 3.0, 2.5];
        let b = [1.0, 2.5, 3.0, 2.0];
        let acc = dtw_cost_matrix(&a, &b, usize::MAX);
        let d = acc.get(3, 3).sqrt();
        assert!((d - dtw_distance(&a, &b)).abs() < 1e-12);
        assert_eq!((acc.rows(), acc.cols()), (4, 4));
    }

    #[test]
    fn path_is_monotone_and_connected() {
        let a: Vec<f64> = (0..15).map(|i| (i as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = (0..12).map(|i| (i as f64 * 0.4).sin()).collect();
        let acc = dtw_cost_matrix(&a, &b, usize::MAX);
        let path = dtw_path(&acc);
        assert_eq!(*path.first().expect("non-empty"), (0, 0));
        assert_eq!(*path.last().expect("non-empty"), (14, 11));
        for w in path.windows(2) {
            let (i0, j0) = w[0];
            let (i1, j1) = w[1];
            assert!(i1 >= i0 && j1 >= j0, "path must be monotone");
            assert!(i1 - i0 <= 1 && j1 - j0 <= 1, "path must be connected");
            assert!(i1 + j1 > i0 + j0, "path must advance");
        }
    }

    /// The O(n) deque envelope must reproduce the per-window fold
    /// reference exactly — the bounds are copies of input samples, so
    /// equality is bitwise.
    #[test]
    fn deque_envelope_matches_fold_reference_exactly() {
        let signals: [Vec<f64>; 4] = [
            Vec::new(),
            vec![-70.0],
            (0..57)
                .map(|i| (i as f64 * 0.37).sin() * 3.0 - 70.0)
                .collect(),
            (0..64)
                .map(|i| {
                    if i % 5 == 0 {
                        -60.0
                    } else {
                        -75.0 + i as f64 * 0.1
                    }
                })
                .collect(),
        ];
        for r in &signals {
            for radius in [0, 1, 2, 3, 7, 16, 100] {
                let fast = Envelope::new(r, radius);
                let slow = Envelope::new_reference(r, radius);
                assert_eq!(fast, slow, "len {} radius {radius}", r.len());
            }
        }
    }

    /// The deque envelope must stay at least 1.5x faster than the
    /// window-scan reference on a 4096-sample trace at radius 24. The
    /// arms alternate and each keeps its fastest of 7 runs, so a
    /// preempted run on a loaded machine does not decide the ratio.
    #[test]
    fn deque_envelope_is_at_least_1_5x_the_fold_reference() {
        use std::hint::black_box;
        use std::time::Instant;
        let signal: Vec<f64> = (0..4096)
            .map(|i| {
                let t = i as f64 * 0.05;
                -60.0 + 6.0 * (t * 0.9).sin() + 2.0 * (t * 7.3).sin()
            })
            .collect();
        let radius = 24;
        let time = |f: &dyn Fn(&[f64], usize) -> Envelope| {
            let t0 = Instant::now();
            black_box(f(black_box(&signal), radius));
            t0.elapsed().as_secs_f64()
        };
        let (mut reference, mut production) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..7 {
            reference = reference.min(time(&Envelope::new_reference));
            production = production.min(time(&Envelope::new));
        }
        let speedup = reference / production;
        println!("Envelope::new speedup over new_reference: {speedup:.2}x");
        assert!(speedup >= 1.5, "Envelope::new only {speedup:.2}x");
    }

    #[test]
    fn envelope_contains_reference() {
        let r: Vec<f64> = (0..25).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        for radius in [0, 1, 3, 10] {
            let env = Envelope::new(&r, radius);
            for (i, &x) in r.iter().enumerate() {
                assert!(env.lower[i] <= x && x <= env.upper[i]);
            }
        }
    }

    #[test]
    fn lb_keogh_is_lower_bound_on_windowed_dtw() {
        let r: Vec<f64> = (0..30).map(|i| (i as f64 * 0.37).sin() * 2.0).collect();
        let c: Vec<f64> = (0..30)
            .map(|i| (i as f64 * 0.41 + 0.5).cos() * 2.5 + 0.3)
            .collect();
        for radius in [0, 1, 3, 7] {
            let env = Envelope::new(&r, radius);
            let lb = lb_keogh(&c, &env);
            let d = dtw_distance_windowed(&c, &r, radius);
            assert!(lb <= d + 1e-9, "radius {radius}: lb {lb} > dtw {d}");
        }
    }

    #[test]
    fn lb_keogh_zero_inside_envelope() {
        let r = [0.0, 1.0, 2.0, 1.0, 0.0];
        let env = Envelope::new(&r, 2);
        // The reference itself is inside its own envelope.
        assert_eq!(lb_keogh(&r, &env), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn lb_keogh_rejects_length_mismatch() {
        let env = Envelope::new(&[1.0, 2.0], 1);
        lb_keogh(&[1.0, 2.0, 3.0], &env);
    }
}
