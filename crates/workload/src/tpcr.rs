//! TPC-R-style test database (paper §5.1, Table 1).

use mqpi_engine::error::Result;
use mqpi_engine::{ColumnType, Database, Schema, Value};
use mqpi_sim::rng::Rng;

/// Largest part-table size class (the paper's NAQ experiment uses N = 50).
pub const MAX_SIZE: u64 = 50;

/// Configuration of the scaled data set.
#[derive(Debug, Clone, Copy)]
pub struct TpcrConfig {
    /// Rows in `lineitem` (paper: 24M; scaled default: 240k).
    pub lineitem_rows: u64,
    /// Average lineitem matches per partkey (paper: 30).
    pub matches_per_partkey: u64,
    /// ANALYZE sampling fraction — smaller = less precise optimizer
    /// statistics, as in PostgreSQL (§5.3 attributes PI error to them).
    pub analyze_fraction: f64,
    /// RNG seed for data generation.
    pub seed: u64,
    /// Largest part-table size class to materialize.
    pub max_size: u64,
}

impl Default for TpcrConfig {
    fn default() -> Self {
        TpcrConfig {
            lineitem_rows: 240_000,
            matches_per_partkey: 30,
            analyze_fraction: 0.1,
            seed: 42,
            max_size: MAX_SIZE,
        }
    }
}

/// The built database plus generation metadata.
pub struct TpcrDb {
    /// The engine database with `lineitem` and all `part_s<k>` tables.
    pub db: Database,
    /// The configuration it was built with.
    pub config: TpcrConfig,
}

impl TpcrDb {
    /// Build the full test data set: `lineitem` with an index on `partkey`,
    /// and one `part_s<k>` table per size class `k = 1..=max_size` with
    /// `10·k` rows of distinct random partkeys.
    pub fn build(config: TpcrConfig) -> Result<TpcrDb> {
        let mut rng = Rng::seed_from_u64(config.seed);
        let mut db = Database::new();
        let domain = (config.lineitem_rows / config.matches_per_partkey).max(1);

        db.create_table(
            "lineitem",
            Schema::from_pairs(&[
                ("partkey", ColumnType::Int),
                ("quantity", ColumnType::Int),
                ("extendedprice", ColumnType::Float),
                ("comment", ColumnType::Str),
            ])?,
        )?;
        // Per-partkey unit price; extendedprice = quantity × unit price.
        // Insert in shuffled order so matches are scattered across pages —
        // that's what makes an unclustered probe cost ~1 page per match.
        let mut keys: Vec<u64> = (0..config.lineitem_rows).map(|i| i % domain).collect();
        // Fisher-Yates shuffle.
        for i in (1..keys.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            keys.swap(i, j);
        }
        let comment = "x".repeat(60);
        let mut batch = Vec::with_capacity(10_000);
        for key in keys {
            let unit_price = 1.0 + (key % 97) as f64;
            let quantity = 1 + rng.below(50) as i64;
            batch.push(vec![
                Value::Int(key as i64),
                Value::Int(quantity),
                Value::Float(unit_price * quantity as f64),
                Value::Str(comment.clone()),
            ]);
            if batch.len() == 10_000 {
                db.insert("lineitem", &batch)?;
                batch.clear();
            }
        }
        if !batch.is_empty() {
            db.insert("lineitem", &batch)?;
        }
        db.create_index("lineitem", "partkey")?;
        db.analyze_sampled("lineitem", config.analyze_fraction)?;

        for k in 1..=config.max_size {
            let name = part_table_name(k);
            db.create_table(
                &name,
                Schema::from_pairs(&[
                    ("partkey", ColumnType::Int),
                    ("retailprice", ColumnType::Float),
                    ("name", ColumnType::Str),
                ])?,
            )?;
            let rows = distinct_partkeys(&mut rng, 10 * k, domain)
                .into_iter()
                .map(|key| {
                    // Retail price tracks the unit price so the paper's
                    // "25% below retail" predicate has moderate selectivity.
                    let unit_price = 1.0 + (key % 97) as f64;
                    let retail = unit_price * rng.range_f64(1.0, 1.8);
                    vec![
                        Value::Int(key as i64),
                        Value::Float(retail),
                        Value::Str(format!("part-{key}")),
                    ]
                })
                .collect::<Vec<_>>();
            db.insert(&name, &rows)?;
            db.analyze(&name)?;
        }
        Ok(TpcrDb { db, config })
    }

    /// The paper's query `Q_k` (§5.1): parts selling ≥25% below retail.
    pub fn query_sql(&self, size: u64) -> String {
        assert!(
            (1..=self.config.max_size).contains(&size),
            "size class {size} not materialized"
        );
        format!(
            "select * from {} p where p.retailprice*0.75 > \
             (select sum(l.extendedprice)/sum(l.quantity) from lineitem l \
              where l.partkey = p.partkey)",
            part_table_name(size)
        )
    }
}

/// Name of the part table for size class `k` ("part_i" in the paper; we key
/// tables by size class since equal-size queries are interchangeable).
pub fn part_table_name(k: u64) -> String {
    format!("part_s{k}")
}

fn distinct_partkeys(rng: &mut Rng, count: u64, domain: u64) -> Vec<u64> {
    assert!(
        count <= domain,
        "cannot draw {count} distinct keys from {domain}"
    );
    let mut seen = std::collections::HashSet::with_capacity(count as usize);
    let mut out = Vec::with_capacity(count as usize);
    while (out.len() as u64) < count {
        let k = rng.below(domain);
        if seen.insert(k) {
            out.push(k);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TpcrDb {
        TpcrDb::build(TpcrConfig {
            lineitem_rows: 24_000,
            matches_per_partkey: 30,
            analyze_fraction: 0.2,
            seed: 7,
            max_size: 10,
        })
        .unwrap()
    }

    #[test]
    fn builds_lineitem_and_part_tables() {
        let t = small();
        let li = t.db.table("lineitem").unwrap();
        assert_eq!(li.heap.row_count(), 24_000);
        assert!(li.index_on(0).is_some());
        for k in 1..=10 {
            let p = t.db.table(&part_table_name(k)).unwrap();
            assert_eq!(p.heap.row_count(), 10 * k);
        }
    }

    #[test]
    fn query_plan_uses_correlated_index_probe() {
        let t = small();
        let p = t.db.prepare(&t.query_sql(5)).unwrap();
        let plan = p.explain();
        assert!(plan.contains("Filter"), "{plan}");
        // Cost should scale with size class: Q10 ≈ 2× Q5.
        let p10 = t.db.prepare(&t.query_sql(10)).unwrap();
        let ratio = p10.est_cost / p.est_cost;
        assert!((1.5..2.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn query_cost_is_dominated_by_probes() {
        let t = small();
        let p = t.db.prepare(&t.query_sql(4)).unwrap();
        // 40 outer rows × ≥30 units per probe.
        assert!(p.est_cost > 300.0, "est = {}", p.est_cost);
        let mut c = p.open().unwrap();
        let actual = c.run_to_completion().unwrap();
        // Actual cost: 40 probes × ~34-36 units; allow generous band but
        // require the right order of magnitude and ratio vs estimate.
        assert!(actual > 600 && actual < 3000, "actual = {actual}");
        let rel = p.est_cost / actual as f64;
        assert!((0.2..5.0).contains(&rel), "estimate off by {rel}x");
    }

    #[test]
    fn query_returns_some_but_not_all_parts() {
        let t = small();
        let rows = t.db.execute(&t.query_sql(8)).unwrap();
        assert!(!rows.is_empty(), "predicate too strict: 0 rows");
        assert!(
            rows.len() < 80,
            "predicate trivial: all {} rows",
            rows.len()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small();
        let b = small();
        let ra = a.db.execute(&a.query_sql(3)).unwrap();
        let rb = b.db.execute(&b.query_sql(3)).unwrap();
        assert_eq!(ra, rb);
    }

    #[test]
    #[should_panic(expected = "not materialized")]
    fn oversized_class_panics() {
        let t = small();
        let _ = t.query_sql(11);
    }
}
