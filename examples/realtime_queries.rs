//! Real-time queries over materialized views — the Gardarin et al. use
//! case from the paper's introduction: concrete (materialized) views were
//! considered "a candidate approach for the support of real time queries
//! … discarded because of the lack of an efficient algorithm to keep the
//! concrete views up to date". This example is that missing algorithm at
//! work: a dashboard repeatedly reads a join view under a write-heavy
//! stream, and the maintained materialization answers in O(|answer|) while
//! the re-evaluating baseline pays the join on every read.
//!
//! Run with: `cargo run --release --example realtime_queries`

use std::time::Instant;

use ivm::prelude::*;

const READINGS: usize = 20_000;
const SENSORS: usize = 500;
const TXNS: usize = 400;
const QUERIES_PER_TXN: usize = 5;

fn build() -> Result<(ViewManager, SpjExpr)> {
    // readings(RID, SENSOR, VALUE), sensors(SENSOR, ZONE).
    let mut m = ViewManager::new();
    m.create_relation("readings", Schema::new(["RID", "SENSOR", "VALUE"])?)?;
    m.create_relation("sensors", Schema::new(["SENSOR", "ZONE"])?)?;
    let sensor_rows: Vec<[i64; 2]> = (0..SENSORS as i64).map(|s| [s, s % 10]).collect();
    m.load("sensors", sensor_rows)?;
    let reading_rows: Vec<[i64; 3]> = (0..READINGS as i64)
        .map(|r| [r, r % SENSORS as i64, (r * 7919) % 1000])
        .collect();
    m.load("readings", reading_rows)?;

    // Dashboard view: hot readings (VALUE > 950) in zone 3.
    let expr = SpjExpr::new(
        ["readings", "sensors"],
        Condition::conjunction([Atom::gt_const("VALUE", 950), Atom::eq_const("ZONE", 3)]),
        Some(vec!["RID".into(), "SENSOR".into(), "VALUE".into()]),
    );
    Ok((m, expr))
}

fn main() -> Result<()> {
    let (mut m, expr) = build()?;
    m.register_view("hot_zone3", expr.clone(), RefreshPolicy::Immediate)?;
    println!(
        "dashboard view materialized: {} tuples out of {READINGS} readings",
        m.view_contents("hot_zone3")?.total_count()
    );

    let mut materialized_read = std::time::Duration::ZERO;
    let mut reeval_read = std::time::Duration::ZERO;
    let mut maintenance = std::time::Duration::ZERO;
    let mut checksum = 0u128;

    let mut next_rid = READINGS as i64;
    for t in 0..TXNS {
        // A write transaction: a burst of new readings.
        let mut txn = Transaction::new();
        for k in 0..10 {
            let rid = next_rid;
            next_rid += 1;
            let sensor = ((t * 13 + k) % SENSORS) as i64;
            let value = ((t * 31 + k * 97) % 1000) as i64;
            txn.insert("readings", [rid, sensor, value])?;
        }
        let start = Instant::now();
        m.execute(&txn)?;
        maintenance += start.elapsed();

        // The dashboard polls the view several times per write.
        for _ in 0..QUERIES_PER_TXN {
            // (a) served from the materialization,
            let start = Instant::now();
            let v = m.view_contents("hot_zone3")?;
            checksum = checksum.wrapping_add(v.total_count());
            materialized_read += start.elapsed();

            // (b) the no-materialization baseline: evaluate from scratch.
            let start = Instant::now();
            let v = expr.eval(m.database())?;
            checksum = checksum.wrapping_add(v.total_count());
            reeval_read += start.elapsed();
        }
    }

    let stats = m.stats("hot_zone3")?;
    let n_q = (TXNS * QUERIES_PER_TXN) as f64;
    println!(
        "\n{TXNS} write transactions, {} dashboard queries",
        TXNS * QUERIES_PER_TXN
    );
    println!(
        "  query via materialized view : {:>10.1} µs/query",
        materialized_read.as_micros() as f64 / n_q
    );
    println!(
        "  query via re-evaluation     : {:>10.1} µs/query",
        reeval_read.as_micros() as f64 / n_q
    );
    println!(
        "  maintenance (all txns)      : {:>10.1} µs/txn",
        maintenance.as_micros() as f64 / TXNS as f64
    );
    println!(
        "  relevance filter            : {} checked, {} dropped, {} txns skipped",
        stats.filter.checked, stats.filter.irrelevant, stats.skipped_by_filter
    );
    println!("  (checksum {checksum})");

    m.verify_consistency()?;
    println!("view verified consistent with full re-evaluation ✓");
    Ok(())
}
