//! Criterion bench for the vectorized hot-loop kernels (DESIGN.md §17):
//! each production kernel against its preserved scalar reference, on
//! the same fixtures the `hotpath` experiment prices.

use criterion::{criterion_group, criterion_main, Criterion};
use locble_bench::experiments::hotpath::{
    dsp_signal, fingerprint_score_flat, fingerprint_score_reference, fingerprint_trace,
    fit_columns, gram_accumulate_reference, gram_accumulate_triangle, gram_rows, rho_rhs_reference,
    rho_rhs_unrolled,
};
use locble_dsp::{Butterworth, Envelope};
use locble_geom::Vec2;
use std::hint::black_box;

fn bench_hotpath(c: &mut Criterion) {
    const N: usize = 4096;

    {
        let (s, p, q, rss) = fit_columns(N);
        c.bench_function("rho_rhs_reference_4096", |b| {
            b.iter(|| black_box(rho_rhs_reference(&s, &p, &q, &rss, 2.3)))
        });
        c.bench_function("rho_rhs_unrolled_4096", |b| {
            b.iter(|| black_box(rho_rhs_unrolled(&s, &p, &q, &rss, 2.3)))
        });
    }

    {
        let rows = gram_rows(N);
        c.bench_function("gram_accumulate_reference_4096", |b| {
            b.iter(|| black_box(gram_accumulate_reference(&rows)))
        });
        c.bench_function("gram_accumulate_triangle_4096", |b| {
            b.iter(|| black_box(gram_accumulate_triangle(&rows)))
        });
    }

    {
        let (observers, rss) = fingerprint_trace(200);
        let pos = Vec2::new(2.0, 2.0);
        c.bench_function("fingerprint_score_reference_200", |b| {
            b.iter(|| black_box(fingerprint_score_reference(pos, &observers, &rss)))
        });
        let mut feats = Vec::new();
        c.bench_function("fingerprint_score_flat_200", |b| {
            b.iter(|| black_box(fingerprint_score_flat(pos, &observers, &rss, &mut feats)))
        });
    }

    {
        let signal = dsp_signal(N);
        c.bench_function("envelope_reference_4096_r24", |b| {
            b.iter(|| black_box(Envelope::new_reference(&signal, 24)))
        });
        c.bench_function("envelope_deque_4096_r24", |b| {
            b.iter(|| black_box(Envelope::new(&signal, 24)))
        });
        let mut filter = Butterworth::paper_default(10.0).design();
        c.bench_function("butterworth_alloc_4096", |b| {
            b.iter(|| {
                filter.reset();
                black_box(filter.filter(&signal))
            })
        });
        let mut out = Vec::new();
        c.bench_function("butterworth_into_4096", |b| {
            b.iter(|| {
                filter.reset();
                filter.filter_into(&signal, &mut out);
                black_box(&out);
            })
        });
    }
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
