//! Synthetic TPC-H data and query variants for §5.6 (Q1, Q6, Q12, SF 10 in
//! the paper; SF is a parameter here).
//!
//! The official `dbgen` tool is replaced by a generator that reproduces the
//! value distributions the three queries are sensitive to (PAPER.md,
//! "Everything below the daemon"): date arithmetic (`shipdate`/`commitdate`/
//! `receiptdate` derived from `orderdate` with the spec's offsets), the
//! discrete `discount`/`tax`/`quantity` domains, the date-correlated
//! `returnflag`/`linestatus` flags, and uniform ship modes and priorities.
//! Money is fixed-point cents (`i64`), dates are days since 1992-01-01
//! (`i32`) — dense, crackable integer columns throughout.

use rand::prelude::*;

/// Days since 1992-01-01 for 1998-12-01 (the Q1 reference date).
pub const DATE_1998_12_01: i32 = 2526;
/// Days since 1992-01-01 for 1995-06-17 (the `currentdate` of the spec).
pub const DATE_CURRENT: i32 = 1263;
/// First day of each year 1992..=1998 (approximate 365.25-day years).
pub fn year_start(year: i32) -> i32 {
    ((year - 1992) as f64 * 365.25) as i32
}

/// The seven ship modes.
pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
/// The five order priorities; indices 0 and 1 are the "high" ones Q12
/// counts separately.
pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// Return-flag encoding.
pub const RF_A: i8 = 0;
/// Return-flag `N`.
pub const RF_N: i8 = 1;
/// Return-flag `R`.
pub const RF_R: i8 = 2;
/// Line-status `F`.
pub const LS_F: i8 = 0;
/// Line-status `O`.
pub const LS_O: i8 = 1;

/// Columns of `lineitem` touched by Q1/Q6/Q12.
#[derive(Debug, Clone, Default)]
pub struct Lineitem {
    pub orderkey: Vec<i64>,
    pub quantity: Vec<i64>,
    /// Cents.
    pub extendedprice: Vec<i64>,
    /// Hundredths (0.00–0.10 → 0–10).
    pub discount: Vec<i64>,
    /// Hundredths (0.00–0.08 → 0–8).
    pub tax: Vec<i64>,
    pub returnflag: Vec<i8>,
    pub linestatus: Vec<i8>,
    pub shipdate: Vec<i32>,
    pub commitdate: Vec<i32>,
    pub receiptdate: Vec<i32>,
    /// Index into [`SHIP_MODES`].
    pub shipmode: Vec<i8>,
}

impl Lineitem {
    /// Row count.
    pub fn len(&self) -> usize {
        self.orderkey.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.orderkey.is_empty()
    }
}

/// Columns of `orders` touched by Q12.
#[derive(Debug, Clone, Default)]
pub struct Orders {
    pub orderkey: Vec<i64>,
    pub orderdate: Vec<i32>,
    /// Index into [`PRIORITIES`].
    pub orderpriority: Vec<i8>,
}

impl Orders {
    /// Row count.
    pub fn len(&self) -> usize {
        self.orderkey.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.orderkey.is_empty()
    }
}

/// Generated TPC-H subset.
#[derive(Debug, Clone)]
pub struct TpchData {
    pub lineitem: Lineitem,
    pub orders: Orders,
}

/// Generates roughly `sf * 1_500_000` orders with 1–7 lineitems each
/// (`sf * 6M` lineitems on average, like the spec).
pub fn generate(sf: f64, seed: u64) -> TpchData {
    let n_orders = ((sf * 1_500_000.0) as usize).max(1);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut orders = Orders::default();
    let mut li = Lineitem::default();

    for ok in 1..=n_orders as i64 {
        let orderdate = rng.random_range(0..=2406); // 1992-01-01 .. 1998-08-02
        orders.orderkey.push(ok);
        orders.orderdate.push(orderdate);
        orders.orderpriority.push(rng.random_range(0..5) as i8);

        let lines = rng.random_range(1..=7);
        for _ in 0..lines {
            let quantity = rng.random_range(1..=50i64);
            let partprice = rng.random_range(90_000..=200_000i64); // cents
            let shipdate = orderdate + rng.random_range(1..=121);
            let commitdate = orderdate + rng.random_range(30..=90);
            let receiptdate = shipdate + rng.random_range(1..=30);
            li.orderkey.push(ok);
            li.quantity.push(quantity);
            li.extendedprice.push(quantity * partprice);
            li.discount.push(rng.random_range(0..=10));
            li.tax.push(rng.random_range(0..=8));
            li.returnflag.push(if receiptdate <= DATE_CURRENT {
                if rng.random_bool(0.5) {
                    RF_R
                } else {
                    RF_A
                }
            } else {
                RF_N
            });
            li.linestatus
                .push(if shipdate > DATE_CURRENT { LS_O } else { LS_F });
            li.shipdate.push(shipdate);
            li.commitdate.push(commitdate);
            li.receiptdate.push(receiptdate);
            li.shipmode.push(rng.random_range(0..7) as i8);
        }
    }

    TpchData {
        lineitem: li,
        orders,
    }
}

// ---------------------------------------------------------------------
// Query variants (the paper runs 30 random variations per query type).
// ---------------------------------------------------------------------

/// Q1: `shipdate <= 1998-12-01 − delta days`, `delta ∈ [60, 120]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Q1Params {
    /// Inclusive shipdate cutoff.
    pub ship_cutoff: i32,
}

/// Q6: one year of shipdate, a ±0.01 discount band, a quantity cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Q6Params {
    pub date_lo: i32,
    pub date_hi: i32,
    /// Inclusive discount bounds (hundredths).
    pub discount_lo: i64,
    pub discount_hi: i64,
    /// Exclusive quantity bound.
    pub quantity_max: i64,
}

/// Q12: two ship modes and one receipt year.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Q12Params {
    pub mode1: i8,
    pub mode2: i8,
    pub date_lo: i32,
    pub date_hi: i32,
}

/// `n` random Q1 variants.
pub fn q1_variants(n: usize, seed: u64) -> Vec<Q1Params> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Q1Params {
            ship_cutoff: DATE_1998_12_01 - rng.random_range(60..=120),
        })
        .collect()
}

/// `n` random Q6 variants.
pub fn q6_variants(n: usize, seed: u64) -> Vec<Q6Params> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let year = rng.random_range(1993..=1997);
            let x = rng.random_range(2..=9i64);
            Q6Params {
                date_lo: year_start(year),
                date_hi: year_start(year + 1),
                discount_lo: x - 1,
                discount_hi: x + 1,
                quantity_max: rng.random_range(24..=25),
            }
        })
        .collect()
}

/// `n` random Q12 variants.
pub fn q12_variants(n: usize, seed: u64) -> Vec<Q12Params> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let m1 = rng.random_range(0..7) as i8;
            let mut m2 = rng.random_range(0..7) as i8;
            while m2 == m1 {
                m2 = (m2 + 1) % 7;
            }
            let year = rng.random_range(1993..=1997);
            Q12Params {
                mode1: m1,
                mode2: m2,
                date_lo: year_start(year),
                date_hi: year_start(year + 1),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Reference (row-at-a-time) evaluations — the oracles the engine's
// columnar plans are tested against.
// ---------------------------------------------------------------------

/// One Q1 output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Q1Row {
    pub sum_qty: i128,
    pub sum_base_price: i128,
    /// Σ extprice·(100−disc) (in cent·hundredths; divide by 100 to format).
    pub sum_disc_price: i128,
    /// Σ extprice·(100−disc)·(100+tax).
    pub sum_charge: i128,
    pub count: u64,
}

/// Row-at-a-time Q1 over the 6 (returnflag, linestatus) groups.
pub fn q1_reference(li: &Lineitem, p: Q1Params) -> Vec<((i8, i8), Q1Row)> {
    let mut groups: std::collections::BTreeMap<(i8, i8), Q1Row> = Default::default();
    for i in 0..li.len() {
        if li.shipdate[i] > p.ship_cutoff {
            continue;
        }
        let g = groups
            .entry((li.returnflag[i], li.linestatus[i]))
            .or_default();
        let price = li.extendedprice[i] as i128;
        let disc = li.discount[i] as i128;
        let tax = li.tax[i] as i128;
        g.sum_qty += li.quantity[i] as i128;
        g.sum_base_price += price;
        g.sum_disc_price += price * (100 - disc);
        g.sum_charge += price * (100 - disc) * (100 + tax);
        g.count += 1;
    }
    groups.into_iter().collect()
}

/// Row-at-a-time Q6: Σ extprice·disc (cent·hundredths).
pub fn q6_reference(li: &Lineitem, p: Q6Params) -> i128 {
    let mut revenue = 0i128;
    for i in 0..li.len() {
        if li.shipdate[i] >= p.date_lo
            && li.shipdate[i] < p.date_hi
            && li.discount[i] >= p.discount_lo
            && li.discount[i] <= p.discount_hi
            && li.quantity[i] < p.quantity_max
        {
            revenue += li.extendedprice[i] as i128 * li.discount[i] as i128;
        }
    }
    revenue
}

/// Row-at-a-time Q12: per ship mode, (high-priority, low-priority) counts.
pub fn q12_reference(li: &Lineitem, orders: &Orders, p: Q12Params) -> Vec<(i8, u64, u64)> {
    // orderkey → priority (orderkeys are dense 1..=n here).
    let mut prio = vec![0i8; orders.len() + 1];
    for (i, &ok) in orders.orderkey.iter().enumerate() {
        prio[ok as usize] = orders.orderpriority[i];
    }
    let mut out: std::collections::BTreeMap<i8, (u64, u64)> = Default::default();
    out.insert(p.mode1, (0, 0));
    out.insert(p.mode2, (0, 0));
    for i in 0..li.len() {
        let m = li.shipmode[i];
        if (m != p.mode1 && m != p.mode2)
            || li.commitdate[i] >= li.receiptdate[i]
            || li.shipdate[i] >= li.commitdate[i]
            || li.receiptdate[i] < p.date_lo
            || li.receiptdate[i] >= p.date_hi
        {
            continue;
        }
        let e = out.get_mut(&m).unwrap();
        if prio[li.orderkey[i] as usize] < 2 {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }
    out.into_iter().map(|(m, (h, l))| (m, h, l)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TpchData {
        generate(0.001, 7) // ~1500 orders, ~6000 lineitems
    }

    #[test]
    fn generator_respects_domains() {
        let d = small();
        let li = &d.lineitem;
        assert!(li.len() > 3_000);
        assert_eq!(d.orders.len(), 1_500);
        for i in 0..li.len() {
            assert!((1..=50).contains(&li.quantity[i]));
            assert!((0..=10).contains(&li.discount[i]));
            assert!((0..=8).contains(&li.tax[i]));
            assert!((0..7).contains(&li.shipmode[i]));
            assert!(li.shipdate[i] < li.receiptdate[i]);
            assert!(li.extendedprice[i] >= 90_000);
        }
    }

    #[test]
    fn flags_correlate_with_dates() {
        let d = small();
        let li = &d.lineitem;
        for i in 0..li.len() {
            if li.returnflag[i] == RF_N {
                assert!(li.receiptdate[i] > DATE_CURRENT);
            } else {
                assert!(li.receiptdate[i] <= DATE_CURRENT);
            }
            assert_eq!(li.linestatus[i] == LS_O, li.shipdate[i] > DATE_CURRENT);
        }
    }

    #[test]
    fn q1_reference_covers_most_rows() {
        let d = small();
        let p = q1_variants(1, 1)[0];
        let rows = q1_reference(&d.lineitem, p);
        let total: u64 = rows.iter().map(|(_, r)| r.count).sum();
        // Cutoff near the end of the date domain: ~95% of rows qualify.
        assert!(total as usize > d.lineitem.len() * 9 / 10);
        assert!(rows.len() >= 4, "expected >=4 of the 6 groups");
        for (_, r) in &rows {
            assert!(r.sum_disc_price <= r.sum_base_price * 100);
            assert!(r.sum_charge >= r.sum_disc_price * 100);
        }
    }

    #[test]
    fn q6_reference_selects_narrow_band() {
        let d = small();
        for p in q6_variants(5, 2) {
            let rev = q6_reference(&d.lineitem, p);
            assert!(rev >= 0);
        }
        // A band covering everything yields more than a narrow band.
        let wide = Q6Params {
            date_lo: 0,
            date_hi: 10_000,
            discount_lo: 0,
            discount_hi: 10,
            quantity_max: 51,
        };
        let narrow = q6_variants(1, 3)[0];
        assert!(q6_reference(&d.lineitem, wide) > q6_reference(&d.lineitem, narrow));
    }

    #[test]
    fn q12_reference_counts_priorities() {
        let d = small();
        let p = q12_variants(1, 4)[0];
        let rows = q12_reference(&d.lineitem, &d.orders, p);
        assert_eq!(rows.len(), 2);
        let total: u64 = rows.iter().map(|&(_, h, l)| h + l).sum();
        assert!(total > 0, "no qualifying rows");

        // High priorities are 2 of 5 → roughly 40% of counted lines; check
        // the fraction on a wide window so the sample is large enough.
        let wide = Q12Params {
            mode1: 0,
            mode2: 1,
            date_lo: 0,
            date_hi: 10_000,
        };
        let rows = q12_reference(&d.lineitem, &d.orders, wide);
        let total: u64 = rows.iter().map(|&(_, h, l)| h + l).sum();
        let high: u64 = rows.iter().map(|&(_, h, _)| h).sum();
        // ~6000 lineitems × 2/7 modes × ~11% passing the three date
        // predicates (spec offsets: ship +U[1,121], commit +U[30,90],
        // receipt ship+U[1,30]) ≈ 190 rows; 150 keeps the fraction check
        // statistically meaningful without assuming more than the generator
        // provides.
        assert!(total > 150, "wide window too small: {total}");
        let frac = high as f64 / total as f64;
        assert!((0.3..0.5).contains(&frac), "high fraction {frac}");
    }

    #[test]
    fn variants_are_deterministic_and_in_range() {
        assert_eq!(q1_variants(30, 9), q1_variants(30, 9));
        for p in q6_variants(30, 9) {
            assert!(p.date_hi - p.date_lo >= 364);
            assert!(p.discount_lo >= 1 && p.discount_hi <= 10);
        }
        for p in q12_variants(30, 9) {
            assert_ne!(p.mode1, p.mode2);
        }
    }
}
