//! Paged scan vs in-memory scan: the same full-table filter scan over
//! (a) an in-memory catalog table (`SeqScan` over
//! `Arc<Relation>` rows) and (b) a heap file behind a buffer pool capped
//! below the table's page count (`StorageScan` streaming pages). The
//! paged series therefore pays real page decoding per iteration — the
//! price of a table that no longer has to fit in RAM.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use temporal_core::prelude::Database;
use temporal_datasets::drand;
use temporal_engine::prelude::*;

const POOL: usize = 8;

/// `te - ts < 5` keeps ~1% of the rows and no zone map can prune on it,
/// so every page is fetched and decoded (see `reproduce -- storage`).
fn scan_len(db: &Database) -> usize {
    db.table("r")
        .unwrap()
        .filter(col("te").sub(col("ts")).lt(lit(5i64)))
        .collect()
        .expect("scan")
        .len()
}

fn bench(c: &mut Criterion) {
    let dir = std::env::temp_dir().join("talign_crit_scan_storage");
    let _ = std::fs::remove_dir_all(&dir);
    let mut group = c.benchmark_group("scan_storage");
    group.sample_size(10);
    for &n in &[2_500usize, 10_000, 40_000] {
        let (r, _) = drand(n, 7);

        let mem = Database::new();
        mem.register("r", &r).expect("register in-memory");
        group.bench_with_input(BenchmarkId::new("in-memory", n), &mem, |b, db| {
            b.iter(|| scan_len(db))
        });

        let paged = Database::open_with_pool(dir.join(n.to_string()), POOL).expect("open dir");
        paged.register("r", &r).expect("register persisted");
        let pages = paged.read(|catalog, _| match catalog.source("r").expect("source") {
            TableSource::Stored(t) => t.page_count(),
            TableSource::Mem(_) => unreachable!("durable register backs with a heap"),
        });
        assert!(pages as usize > POOL, "table must exceed the pool");
        group.bench_with_input(BenchmarkId::new("paged", n), &paged, |b, db| {
            b.iter(|| scan_len(db))
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench);
criterion_main!(benches);
