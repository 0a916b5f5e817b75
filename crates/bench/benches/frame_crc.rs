//! The frame checksum's cost per byte. Every WAL record, checkpoint image
//! and wire frame is checksummed with `ivm_storage::frame::crc32`, so its
//! ns/byte is paid on every served read and every checkpoint.
//!
//! Sizes: 64 B (a small WAL record), 3.6 KB (a `serve_point_small` `Rows`
//! frame), 26 KB (a 1 000-change WAL record) and 1.2 MB (an
//! `embed_batch_join` checkpoint image). `bytewise` is the one-lookup-per-
//! byte loop that the slicing-by-16 kernel replaced, timed alongside as the
//! reference. CPU only: no I/O.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use ivm_storage::frame::crc32;

const SIZES: [usize; 4] = [64, 3_600, 26_000, 1_200_000];

/// CRC-32 (IEEE) one table lookup per byte: the reference loop.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    static TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

fn bench_frame_crc(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_crc");
    for size in SIZES {
        let data: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
        assert_eq!(crc32(&data), crc32_bytewise(&data));
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("crc32", size), &data, |b, d| {
            b.iter(|| black_box(crc32(black_box(d))))
        });
        group.bench_with_input(BenchmarkId::new("bytewise", size), &data, |b, d| {
            b.iter(|| black_box(crc32_bytewise(black_box(d))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_frame_crc);
criterion_main!(benches);
