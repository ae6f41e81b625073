//! Hot-loop kernel pricing: the 4-lane unrolled / reused-buffer forms
//! that ship in the estimation stack vs their preserved scalar
//! references, plus the allocation budget of a warm backend session.
//!
//! Not a paper figure — this gates the vectorization and zero-alloc
//! steady-state work (DESIGN.md §17). Each kernel is timed in both
//! forms over the same deterministic fixture and differentially
//! checked; the backends section prices one warm `push_batch` per
//! backend and, when the harness's counting allocator is installed,
//! reports the heap allocations it performed. The ratchet in
//! scripts/bench_compare.sh enforces the two headline speedups
//! (fingerprint scoring and the LB_Keogh envelope) and every boolean
//! gate below.

use crate::util::{alloc_count, header, row};
use locble_core::{BackendSpec, Estimator, EstimatorConfig, RssBatch};
use locble_dsp::{Butterworth, Envelope};
use locble_geom::{Trajectory, Vec2};
use locble_ml::{GramSolver, StandardScaler};
use locble_motion::{MotionTrack, StepResult};
use locble_rf::{LogDistanceModel, MIN_RANGE_M};
use serde::Value;
use std::time::Instant;

/// Gaussian kernel bandwidth used by both fingerprint scoring arms
/// (the production default).
const KERNEL_BW_DB: f64 = 6.0;

/// Ridge used by both fingerprint scoring arms.
const RIDGE: f64 = 1e-9;

// ---------------------------------------------------------------------
// Kernel replica pairs. The `_reference` forms preserve the
// pre-optimization shape (sequential single accumulator, per-call
// allocations); the fast forms mirror the production kernels. Public
// so the criterion bench (`benches/hotpath.rs`) prices the identical
// pairs.
// ---------------------------------------------------------------------

/// Scalar ρ/RHS pass of the free circular fit: one running accumulator
/// per output, strictly sequential (the shape `FitSolver::solve` had
/// before the unroll).
pub fn rho_rhs_reference(s: &[f64], p: &[f64], q: &[f64], rss: &[f64], exponent: f64) -> [f64; 4] {
    let k = -std::f64::consts::LN_10 / (5.0 * exponent);
    let mut sum = 0.0;
    let mut xs = 0.0;
    let mut xp = 0.0;
    let mut xq = 0.0;
    for i in 0..rss.len() {
        let rho = (k * rss[i]).exp();
        sum += rho;
        xs += s[i] * rho;
        xp += p[i] * rho;
        xq += q[i] * rho;
    }
    [sum, xs, xp, xq]
}

/// 4-lane unrolled ρ/RHS pass, the production form: per-lane partial
/// sums break the serial dependency; lanes combine in a fixed order.
pub fn rho_rhs_unrolled(s: &[f64], p: &[f64], q: &[f64], rss: &[f64], exponent: f64) -> [f64; 4] {
    let k = -std::f64::consts::LN_10 / (5.0 * exponent);
    let n = rss.len();
    let quads = n - n % 4;
    let mut sum4 = [0.0f64; 4];
    let mut s4 = [0.0f64; 4];
    let mut p4 = [0.0f64; 4];
    let mut q4 = [0.0f64; 4];
    for i in (0..quads).step_by(4) {
        for l in 0..4 {
            let rho = (k * rss[i + l]).exp();
            sum4[l] += rho;
            s4[l] += s[i + l] * rho;
            p4[l] += p[i + l] * rho;
            q4[l] += q[i + l] * rho;
        }
    }
    let mut sum = (sum4[0] + sum4[1]) + (sum4[2] + sum4[3]);
    let mut xs = (s4[0] + s4[1]) + (s4[2] + s4[3]);
    let mut xp = (p4[0] + p4[1]) + (p4[2] + p4[3]);
    let mut xq = (q4[0] + q4[1]) + (q4[2] + q4[3]);
    for i in quads..n {
        let rho = (k * rss[i]).exp();
        sum += rho;
        xs += s[i] * rho;
        xp += p[i] * rho;
        xq += q[i] * rho;
    }
    [sum, xs, xp, xq]
}

/// Full-square Gram accumulation: `K²` multiply-adds per row (the shape
/// `GramSolver::accumulate` had before the triangle optimization).
pub fn gram_accumulate_reference(rows: &[[f64; 4]]) -> [[f64; 4]; 4] {
    let mut gram = [[0.0f64; 4]; 4];
    for row in rows {
        for i in 0..4 {
            for j in 0..4 {
                gram[i][j] += row[i] * row[j];
            }
        }
    }
    gram
}

/// Upper-triangle Gram accumulation with a single mirror at the end,
/// the production form (`K(K+1)/2` multiply-adds per row). The upper
/// triangle accumulates the exact sequence of the reference, so the
/// mirrored matrix is bit-identical.
pub fn gram_accumulate_triangle(rows: &[[f64; 4]]) -> [[f64; 4]; 4] {
    let mut gram = [[0.0f64; 4]; 4];
    for row in rows {
        for i in 0..4 {
            let ri = row[i];
            for j in i..4 {
                gram[i][j] += ri * row[j];
            }
        }
    }
    for i in 1..4 {
        let (above, rest) = gram.split_at_mut(i);
        for (j, upper_row) in above.iter().enumerate() {
            rest[0][j] = upper_row[i];
        }
    }
    gram
}

/// One scored fingerprint candidate (the fields both arms must agree
/// on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredCandidate {
    /// Mean Gaussian kernel weight over the samples.
    pub score: f64,
    /// Recovered calibration constant, dBm.
    pub gamma_dbm: f64,
    /// Recovered path-loss exponent.
    pub exponent: f64,
    /// RMS residual, dB.
    pub residual_db: f64,
}

/// The pre-optimization fingerprint candidate scorer: per-call
/// `Vec<Vec<f64>>` feature matrix, a fitted [`StandardScaler`], a
/// per-sample `transform` allocation, and a sequential kernel loop.
pub fn fingerprint_score_reference(
    pos: Vec2,
    observers: &[Vec2],
    rss: &[f64],
) -> Option<ScoredCandidate> {
    let features: Vec<Vec<f64>> = observers
        .iter()
        .map(|o| vec![pos.distance(*o).max(MIN_RANGE_M).log10()])
        .collect();
    let scaler = StandardScaler::fit(&features);
    let n = rss.len() as f64;
    let mut solver: GramSolver<2> = GramSolver::new();
    let mut rhs = [0.0f64; 2];
    for (f, &v) in features.iter().zip(rss) {
        let z = scaler.transform(f)[0];
        solver.accumulate(&[1.0, z]);
        rhs[0] += v;
        rhs[1] += v * z;
    }
    if !solver.factorize(RIDGE) {
        return None;
    }
    let [a, b] = solver.solve(rhs)?;
    // Unclamped σ for the (Γ, n) recovery, exactly as production.
    let mu = features.iter().map(|f| f[0]).sum::<f64>() / n;
    let var = features
        .iter()
        .map(|f| (f[0] - mu) * (f[0] - mu))
        .sum::<f64>();
    let sigma = (var / n).sqrt();
    if sigma <= 0.0 {
        return None;
    }
    let exponent = -b / (10.0 * sigma);
    if !(0.3..=8.0).contains(&exponent) {
        return None;
    }
    let gamma_dbm = a - b * mu / sigma;
    let inv_two_bw_sq = 1.0 / (2.0 * KERNEL_BW_DB * KERNEL_BW_DB);
    let mut kernel_sum = 0.0;
    let mut sq = 0.0;
    for (f, &v) in features.iter().zip(rss) {
        let predicted = gamma_dbm - 10.0 * exponent * f[0];
        let r = v - predicted;
        kernel_sum += (-r * r * inv_two_bw_sq).exp();
        sq += r * r;
    }
    Some(ScoredCandidate {
        score: kernel_sum / n,
        gamma_dbm,
        exponent,
        residual_db: (sq / n).sqrt(),
    })
}

/// The production fingerprint candidate scorer: one reused flat feature
/// column, inlined scaler moments, and the 4-lane unrolled kernel loop
/// (mirrors `FingerprintBackend::score_candidate`).
pub fn fingerprint_score_flat(
    pos: Vec2,
    observers: &[Vec2],
    rss: &[f64],
    feats: &mut Vec<f64>,
) -> Option<ScoredCandidate> {
    feats.clear();
    feats.extend(
        observers
            .iter()
            .map(|o| pos.distance(*o).max(MIN_RANGE_M).log10()),
    );
    let n = rss.len() as f64;
    let mu = feats.iter().sum::<f64>() / n;
    let var = feats.iter().map(|&x| (x - mu) * (x - mu)).sum::<f64>();
    let sigma = (var / n).sqrt();
    let sd = if sigma < 1e-12 { 1.0 } else { sigma };
    let mut solver: GramSolver<2> = GramSolver::new();
    let mut rhs = [0.0f64; 2];
    for (&f, &v) in feats.iter().zip(rss) {
        let z = (f - mu) / sd;
        solver.accumulate(&[1.0, z]);
        rhs[0] += v;
        rhs[1] += v * z;
    }
    if !solver.factorize(RIDGE) {
        return None;
    }
    let [a, b] = solver.solve(rhs)?;
    if sigma <= 0.0 {
        return None;
    }
    let exponent = -b / (10.0 * sigma);
    if !(0.3..=8.0).contains(&exponent) {
        return None;
    }
    let gamma_dbm = a - b * mu / sigma;
    let inv_two_bw_sq = 1.0 / (2.0 * KERNEL_BW_DB * KERNEL_BW_DB);
    let len = feats.len();
    let quads = len - len % 4;
    let mut kernel4 = [0.0f64; 4];
    let mut sq4 = [0.0f64; 4];
    for i in (0..quads).step_by(4) {
        for l in 0..4 {
            let predicted = gamma_dbm - 10.0 * exponent * feats[i + l];
            let r = rss[i + l] - predicted;
            kernel4[l] += (-r * r * inv_two_bw_sq).exp();
            sq4[l] += r * r;
        }
    }
    let mut kernel_sum = (kernel4[0] + kernel4[1]) + (kernel4[2] + kernel4[3]);
    let mut sq = (sq4[0] + sq4[1]) + (sq4[2] + sq4[3]);
    for i in quads..len {
        let predicted = gamma_dbm - 10.0 * exponent * feats[i];
        let r = rss[i] - predicted;
        kernel_sum += (-r * r * inv_two_bw_sq).exp();
        sq += r * r;
    }
    Some(ScoredCandidate {
        score: kernel_sum / n,
        gamma_dbm,
        exponent,
        residual_db: (sq / n).sqrt(),
    })
}

// ---------------------------------------------------------------------
// Fixtures (public for the criterion bench).
// ---------------------------------------------------------------------

/// Deterministic per-point fit columns: an L-walk's `(s, p, q, rss)`
/// arrays for the ρ/RHS kernel.
pub fn fit_columns(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let model = LogDistanceModel::new(-59.0, 2.2);
    let target = Vec2::new(3.0, 4.0);
    let mut s = Vec::with_capacity(n);
    let mut p = Vec::with_capacity(n);
    let mut q = Vec::with_capacity(n);
    let mut rss = Vec::with_capacity(n);
    for i in 0..n {
        let frac = i as f64 / n as f64;
        let pos = if frac < 0.5 {
            Vec2::new(8.0 * frac, 0.0)
        } else {
            Vec2::new(4.0, 6.0 * (frac - 0.5))
        };
        let noise = if i % 2 == 0 { 0.8 } else { -0.6 };
        s.push(pos.x * pos.x + pos.y * pos.y);
        p.push(pos.x);
        q.push(pos.y);
        rss.push(model.rss_at(target.distance(pos)) + noise);
    }
    (s, p, q, rss)
}

/// Deterministic 4-column design rows for the Gram kernel.
pub fn gram_rows(n: usize) -> Vec<[f64; 4]> {
    let (s, p, q, _) = fit_columns(n);
    (0..n).map(|i| [s[i], p[i], q[i], 1.0]).collect()
}

/// Deterministic observer walk + RSS trace for fingerprint scoring.
pub fn fingerprint_trace(n: usize) -> (Vec<Vec2>, Vec<f64>) {
    let model = LogDistanceModel::new(-61.0, 2.4);
    let target = Vec2::new(2.5, 3.5);
    let mut observers = Vec::with_capacity(n);
    let mut rss = Vec::with_capacity(n);
    for i in 0..n {
        let frac = i as f64 / n as f64;
        let pos = if frac < 0.5 {
            Vec2::new(6.0 * frac, 0.0)
        } else {
            Vec2::new(3.0, 5.0 * (frac - 0.5))
        };
        observers.push(pos);
        rss.push(model.rss_at(target.distance(pos)) + if i % 2 == 0 { 1.1 } else { -0.9 });
    }
    (observers, rss)
}

/// Deterministic RSS-like signal for the dsp kernels.
pub fn dsp_signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64 * 0.05;
            -60.0 + 6.0 * (t * 0.9).sin() + 2.0 * (t * 7.3).sin() + ((i % 5) as f64 - 2.0) * 0.4
        })
        .collect()
}

/// Batches + observer track for the backend pricing section: a long
/// L-walk chunked into 20-sample batches (§5.3's streaming shape).
pub fn backend_session(total: usize, batch: usize) -> (Vec<RssBatch>, MotionTrack) {
    let model = LogDistanceModel::new(-59.0, 2.0);
    let target = Vec2::new(4.0, 3.5);
    let dt = 0.11;
    let mut traj = Trajectory::new();
    let mut t_col = Vec::with_capacity(total);
    let mut v_col = Vec::with_capacity(total);
    let mut pos = Vec2::ZERO;
    for i in 0..total {
        let t = i as f64 * dt;
        traj.push(t, pos);
        t_col.push(t);
        v_col.push(model.rss_at(target.distance(pos)) + if i % 2 == 0 { 0.9 } else { -0.7 });
        if i % 80 < 40 {
            pos.x += dt;
        } else {
            pos.y += dt;
        }
    }
    let track = MotionTrack {
        trajectory: traj,
        steps: StepResult {
            step_times: vec![],
            frequency_hz: 1.8,
            step_length_m: 0.75,
            distance_m: 7.7,
        },
        turns: vec![],
    };
    let batches = t_col
        .chunks(batch)
        .zip(v_col.chunks(batch))
        .map(|(t, v)| RssBatch::new(t.to_vec(), v.to_vec()))
        .collect();
    (batches, track)
}

// ---------------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------------

/// One kernel's before/after numbers.
pub(crate) struct KernelMetrics {
    pub name: &'static str,
    /// Reference form, nanoseconds per element.
    pub scalar_ns_per_elem: f64,
    /// Production form, nanoseconds per element.
    pub fast_ns_per_elem: f64,
    /// Whether both forms agreed on the fixture (bit-identical or
    /// within 1e-9 relative, per kernel contract).
    pub differential_ok: bool,
}

impl KernelMetrics {
    pub fn speedup(&self) -> f64 {
        self.scalar_ns_per_elem / self.fast_ns_per_elem.max(1e-12)
    }
}

/// One backend's warm steady-state batch price.
pub(crate) struct BackendMetrics {
    pub name: &'static str,
    /// Heap allocations per warm `push_batch` (0 unless the harness's
    /// counting allocator is installed and the backend allocates).
    pub allocs_per_batch: f64,
    /// Mean warm `push_batch` latency, microseconds.
    pub batch_us: f64,
}

pub(crate) struct HotpathMetrics {
    pub kernels: Vec<KernelMetrics>,
    pub backends: Vec<BackendMetrics>,
}

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0f64).max(a.abs().max(b.abs()))
}

/// Times `f` over `reps` repetitions, returning ns per element.
fn time_ns_per_elem(elems: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e9 / (reps as f64 * elems as f64)
}

/// Runs every kernel pair and the backend pricing at the given scale.
pub(crate) fn measure(n: usize, reps: usize) -> HotpathMetrics {
    let mut kernels = Vec::new();

    // ρ/RHS pass.
    {
        let (s, p, q, rss) = fit_columns(n);
        let exponent = 2.3;
        let a = rho_rhs_reference(&s, &p, &q, &rss, exponent);
        let b = rho_rhs_unrolled(&s, &p, &q, &rss, exponent);
        let ok = a.iter().zip(&b).all(|(&x, &y)| rel_close(x, y));
        let scalar = time_ns_per_elem(n, reps, || {
            std::hint::black_box(rho_rhs_reference(&s, &p, &q, &rss, exponent));
        });
        let fast = time_ns_per_elem(n, reps, || {
            std::hint::black_box(rho_rhs_unrolled(&s, &p, &q, &rss, exponent));
        });
        kernels.push(KernelMetrics {
            name: "rho_rhs",
            scalar_ns_per_elem: scalar,
            fast_ns_per_elem: fast,
            differential_ok: ok,
        });
    }

    // Gram accumulation.
    {
        let rows = gram_rows(n);
        let a = gram_accumulate_reference(&rows);
        let b = gram_accumulate_triangle(&rows);
        let ok = a
            .iter()
            .flatten()
            .zip(b.iter().flatten())
            .all(|(&x, &y)| x.to_bits() == y.to_bits());
        let scalar = time_ns_per_elem(n, reps, || {
            std::hint::black_box(gram_accumulate_reference(&rows));
        });
        let fast = time_ns_per_elem(n, reps, || {
            std::hint::black_box(gram_accumulate_triangle(&rows));
        });
        kernels.push(KernelMetrics {
            name: "gram_accumulate",
            scalar_ns_per_elem: scalar,
            fast_ns_per_elem: fast,
            differential_ok: ok,
        });
    }

    // Fingerprint candidate scoring (the headline): a small grid of
    // candidates over a 200-sample trace, as `refit` sees it.
    {
        let samples = 200.min(n.max(8));
        let (observers, rss) = fingerprint_trace(samples);
        let candidates: Vec<Vec2> = (0..25)
            .map(|i| Vec2::new((i % 5) as f64 * 1.5 - 1.0, (i / 5) as f64 * 1.5 - 1.0))
            .collect();
        let mut feats = Vec::new();
        let mut ok = true;
        for &c in &candidates {
            let a = fingerprint_score_reference(c, &observers, &rss);
            let b = fingerprint_score_flat(c, &observers, &rss, &mut feats);
            ok &= match (a, b) {
                (Some(a), Some(b)) => {
                    a.gamma_dbm.to_bits() == b.gamma_dbm.to_bits()
                        && a.exponent.to_bits() == b.exponent.to_bits()
                        && rel_close(a.score, b.score)
                        && rel_close(a.residual_db, b.residual_db)
                }
                (None, None) => true,
                _ => false,
            };
        }
        let elems = samples * candidates.len();
        let grid_reps = (reps / 8).max(1);
        let scalar = time_ns_per_elem(elems, grid_reps, || {
            for &c in &candidates {
                std::hint::black_box(fingerprint_score_reference(c, &observers, &rss));
            }
        });
        let fast = time_ns_per_elem(elems, grid_reps, || {
            for &c in &candidates {
                std::hint::black_box(fingerprint_score_flat(c, &observers, &rss, &mut feats));
            }
        });
        kernels.push(KernelMetrics {
            name: "fingerprint_score",
            scalar_ns_per_elem: scalar,
            fast_ns_per_elem: fast,
            differential_ok: ok,
        });
    }

    // LB_Keogh envelope: O(n) monotonic deque vs O(n·radius) window
    // scan (the dsp headline).
    {
        let signal = dsp_signal(n.max(64));
        let radius = 24;
        let ok = Envelope::new(&signal, radius) == Envelope::new_reference(&signal, radius);
        let scalar = time_ns_per_elem(signal.len(), reps, || {
            std::hint::black_box(Envelope::new_reference(&signal, radius));
        });
        let fast = time_ns_per_elem(signal.len(), reps, || {
            std::hint::black_box(Envelope::new(&signal, radius));
        });
        kernels.push(KernelMetrics {
            name: "envelope",
            scalar_ns_per_elem: scalar,
            fast_ns_per_elem: fast,
            differential_ok: ok,
        });
    }

    // Butterworth cascade: per-call allocating `filter` vs `filter_into`
    // with a reused output buffer (same per-sample cascade — this
    // prices the allocation, not a different algorithm).
    {
        let signal = dsp_signal(n.max(64));
        let mut filter = Butterworth::paper_default(10.0).design();
        filter.reset();
        let a = filter.filter(&signal);
        filter.reset();
        let mut b = Vec::new();
        filter.filter_into(&signal, &mut b);
        let ok = a.iter().zip(&b).all(|(&x, &y)| x.to_bits() == y.to_bits());
        let scalar = time_ns_per_elem(signal.len(), reps, || {
            filter.reset();
            std::hint::black_box(filter.filter(&signal));
        });
        let mut out = Vec::new();
        let fast = time_ns_per_elem(signal.len(), reps, || {
            filter.reset();
            filter.filter_into(&signal, &mut out);
            std::hint::black_box(&out);
        });
        kernels.push(KernelMetrics {
            name: "butterworth",
            scalar_ns_per_elem: scalar,
            fast_ns_per_elem: fast,
            differential_ok: ok,
        });
    }

    // Backend steady state: warm each backend on half the session,
    // reserve headroom, then price the remaining batches.
    let mut backends = Vec::new();
    {
        let (batches, track) = backend_session(400, 20);
        let (warm, measured) = batches.split_at(batches.len() / 2);
        let measured_samples: usize = measured.iter().map(RssBatch::len).sum();
        let prototype = Estimator::new(EstimatorConfig::default());
        let specs: [(&'static str, BackendSpec); 3] = [
            ("streaming", BackendSpec::Streaming),
            ("particle", BackendSpec::Particle(Default::default())),
            ("fingerprint", BackendSpec::Fingerprint(Default::default())),
        ];
        for (name, spec) in specs {
            let mut backend = spec.build(&prototype, 1);
            for b in warm {
                backend.push_batch(b, &track);
            }
            backend.reserve(measured_samples);
            let a0 = alloc_count();
            let t0 = Instant::now();
            for b in measured {
                backend.push_batch(b, &track);
            }
            let wall = t0.elapsed().as_secs_f64();
            let allocs = alloc_count() - a0;
            backends.push(BackendMetrics {
                name,
                allocs_per_batch: allocs as f64 / measured.len() as f64,
                batch_us: wall * 1e6 / measured.len() as f64,
            });
        }
    }

    HotpathMetrics { kernels, backends }
}

// ---------------------------------------------------------------------
// Reports.
// ---------------------------------------------------------------------

fn gate(m: &HotpathMetrics, name: &str) -> f64 {
    m.kernels
        .iter()
        .find(|k| k.name == name)
        .map_or(0.0, KernelMetrics::speedup)
}

fn streaming_allocs(m: &HotpathMetrics) -> f64 {
    m.backends
        .iter()
        .find(|b| b.name == "streaming")
        .map_or(f64::NAN, |b| b.allocs_per_batch)
}

/// Runs the experiment at the acceptance scale.
pub fn run() -> String {
    run_sized(4096, 400)
}

/// The experiment body, parameterized so the in-crate test runs small.
pub(crate) fn run_sized(n: usize, reps: usize) -> String {
    let m = measure(n, reps);
    let mut out = header(
        "hotpath",
        "vectorized hot loops + zero-alloc steady state",
        "beyond the paper: prices the kernels behind every figure",
    );
    out.push_str(&row("kernel fixture elements", n));
    for k in &m.kernels {
        out.push_str(&row(
            &format!("{} scalar (ns/elem)", k.name),
            format!("{:.2}", k.scalar_ns_per_elem),
        ));
        out.push_str(&row(
            &format!("{} fast (ns/elem)", k.name),
            format!("{:.2}", k.fast_ns_per_elem),
        ));
        out.push_str(&row(
            &format!("{} speedup", k.name),
            format!("{:.2}x", k.speedup()),
        ));
        out.push_str(&row(
            &format!("{} matches reference", k.name),
            k.differential_ok,
        ));
    }
    for b in &m.backends {
        out.push_str(&row(
            &format!("{} warm batch (us)", b.name),
            format!("{:.1}", b.batch_us),
        ));
        out.push_str(&row(
            &format!("{} allocs/batch", b.name),
            format!("{:.2}", b.allocs_per_batch),
        ));
    }
    let all_ok = m.kernels.iter().all(|k| k.differential_ok);
    out.push_str(&row("all kernels match reference", all_ok));
    // Wall-clock gates are only meaningful in release builds; the
    // in-crate test asserts the differential flags, `harness hotpath`
    // and scripts/check.sh gate the speedups.
    out.push_str(&row(
        "fingerprint_score speedup >= 1.5x",
        gate(&m, "fingerprint_score") >= 1.5,
    ));
    out.push_str(&row(
        "envelope speedup >= 1.5x",
        gate(&m, "envelope") >= 1.5,
    ));
    out.push_str(&row(
        "streaming zero allocs steady state",
        streaming_allocs(&m) == 0.0,
    ));
    out
}

/// The JSON artifact scripts/check.sh archives as `BENCH_hotpath.json`.
pub fn json_report() -> String {
    json_sized(4096, 400)
}

/// JSON body at a chosen scale.
pub(crate) fn json_sized(n: usize, reps: usize) -> String {
    let m = measure(n, reps);
    let kernels = Value::Map(
        m.kernels
            .iter()
            .map(|k| {
                (
                    k.name.to_string(),
                    Value::Map(vec![
                        (
                            "scalar_ns_per_elem".to_string(),
                            Value::F64(k.scalar_ns_per_elem),
                        ),
                        (
                            "fast_ns_per_elem".to_string(),
                            Value::F64(k.fast_ns_per_elem),
                        ),
                        ("speedup".to_string(), Value::F64(k.speedup())),
                        (
                            "differential_ok".to_string(),
                            Value::Bool(k.differential_ok),
                        ),
                    ]),
                )
            })
            .collect(),
    );
    let backends = Value::Map(
        m.backends
            .iter()
            .map(|b| {
                (
                    b.name.to_string(),
                    Value::Map(vec![
                        (
                            "allocs_per_batch".to_string(),
                            Value::F64(b.allocs_per_batch),
                        ),
                        ("batch_us".to_string(), Value::F64(b.batch_us)),
                    ]),
                )
            })
            .collect(),
    );
    let value = Value::Map(vec![
        ("experiment".to_string(), Value::Str("hotpath".to_string())),
        ("elements".to_string(), Value::U64(n as u64)),
        ("kernels".to_string(), kernels),
        ("backends".to_string(), backends),
        (
            "all_kernels_match_reference".to_string(),
            Value::Bool(m.kernels.iter().all(|k| k.differential_ok)),
        ),
        (
            "fingerprint_speedup_at_least_1_5x".to_string(),
            Value::Bool(gate(&m, "fingerprint_score") >= 1.5),
        ),
        (
            "envelope_speedup_at_least_1_5x".to_string(),
            Value::Bool(gate(&m, "envelope") >= 1.5),
        ),
        (
            "streaming_zero_alloc_steady_state".to_string(),
            Value::Bool(streaming_allocs(&m) == 0.0),
        ),
    ]);
    serde::json::to_string(&value)
}

#[cfg(test)]
mod tests {
    /// The in-crate gate checks the differential flags only — every
    /// kernel's fast form must agree with its preserved reference. The
    /// speedup rows are release-mode acceptance numbers (`harness
    /// hotpath`, scripts/check.sh); asserting wall-clock ratios under
    /// `cargo test`'s debug build would be flaky by design.
    #[test]
    fn every_kernel_matches_its_reference() {
        let report = super::run_sized(256, 2);
        assert!(
            crate::util::flag_is_true(&report, "all kernels match reference"),
            "{report}"
        );
    }

    /// The JSON artifact carries the same differential verdicts.
    #[test]
    fn json_report_flags_differentials() {
        let json = super::json_sized(128, 1);
        assert!(
            json.contains("\"all_kernels_match_reference\":true"),
            "{json}"
        );
        assert!(json.contains("\"experiment\":\"hotpath\""), "{json}");
    }
}
