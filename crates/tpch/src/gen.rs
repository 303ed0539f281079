//! The generator proper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stetho_engine::{Bat, Catalog, TableDef};
use stetho_mal::MalType;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    /// TPC-H scale factor; 0.001 ≈ 6,000 lineitem rows.
    pub scale_factor: f64,
    /// RNG seed (fixed default for reproducibility).
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale_factor: 0.001,
            seed: 0x5747_4801,
        }
    }
}

impl TpchConfig {
    /// Config at a given scale factor with the default seed.
    pub fn sf(scale_factor: f64) -> Self {
        TpchConfig {
            scale_factor,
            ..Default::default()
        }
    }

    fn scaled(&self, base: u64) -> usize {
        ((base as f64 * self.scale_factor).round() as usize).max(1)
    }
}

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const BRANDS: [&str; 5] = ["Brand#11", "Brand#22", "Brand#33", "Brand#44", "Brand#55"];
const TYPES: [&str; 6] = [
    "STANDARD ANODIZED",
    "SMALL PLATED",
    "MEDIUM POLISHED",
    "LARGE BRUSHED",
    "ECONOMY BURNISHED",
    "PROMO TIN",
];

/// Days since epoch for 1992-01-01 and the order-date span (TPC-H dates
/// run 1992-01-01 .. 1998-08-02).
const START_DATE: i32 = 8035;
const DATE_SPAN: i32 = 2405;

/// Generate the full TPC-H catalog at the configured scale.
pub fn generate_catalog(cfg: &TpchConfig) -> Catalog {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut catalog = Catalog::new();

    // region
    catalog.add_table(
        TableDef::new(
            "region",
            vec![
                col_int("r_regionkey", (0..REGIONS.len() as i64).collect()),
                col_str("r_name", REGIONS.to_vec()),
            ],
        )
        .expect("region table"),
    );

    // nation
    catalog.add_table(
        TableDef::new(
            "nation",
            vec![
                col_int("n_nationkey", (0..NATIONS.len() as i64).collect()),
                col_str("n_name", NATIONS.iter().map(|(n, _)| *n).collect()),
                col_int("n_regionkey", NATIONS.iter().map(|(_, r)| *r).collect()),
            ],
        )
        .expect("nation table"),
    );

    // supplier: 10,000 × sf
    let n_supp = cfg.scaled(10_000);
    catalog.add_table(
        TableDef::new(
            "supplier",
            vec![
                col_int("s_suppkey", (1..=n_supp as i64).collect()),
                col_str(
                    "s_name",
                    (1..=n_supp).map(|i| format!("Supplier#{i:09}")).collect(),
                ),
                col_int(
                    "s_nationkey",
                    (0..n_supp).map(|_| rng.gen_range(0..25)).collect(),
                ),
                col_dbl(
                    "s_acctbal",
                    (0..n_supp)
                        .map(|_| round2(rng.gen_range(-999.99..9999.99)))
                        .collect(),
                ),
            ],
        )
        .expect("supplier table"),
    );

    // part: 200,000 × sf
    let n_part = cfg.scaled(200_000);
    catalog.add_table(
        TableDef::new(
            "part",
            vec![
                col_int("p_partkey", (1..=n_part as i64).collect()),
                col_str(
                    "p_name",
                    (1..=n_part).map(|i| format!("part {i}")).collect(),
                ),
                col_str(
                    "p_brand",
                    (0..n_part)
                        .map(|_| BRANDS[rng.gen_range(0..BRANDS.len())])
                        .collect(),
                ),
                col_str(
                    "p_type",
                    (0..n_part)
                        .map(|_| TYPES[rng.gen_range(0..TYPES.len())])
                        .collect(),
                ),
                col_dbl(
                    "p_retailprice",
                    (0..n_part)
                        .map(|i| round2(900.0 + (i % 1000) as f64 * 0.1))
                        .collect(),
                ),
            ],
        )
        .expect("part table"),
    );

    // customer: 150,000 × sf
    let n_cust = cfg.scaled(150_000);
    catalog.add_table(
        TableDef::new(
            "customer",
            vec![
                col_int("c_custkey", (1..=n_cust as i64).collect()),
                col_str(
                    "c_name",
                    (1..=n_cust).map(|i| format!("Customer#{i:09}")).collect(),
                ),
                col_int(
                    "c_nationkey",
                    (0..n_cust).map(|_| rng.gen_range(0..25)).collect(),
                ),
                col_str(
                    "c_mktsegment",
                    (0..n_cust)
                        .map(|_| SEGMENTS[rng.gen_range(0..SEGMENTS.len())])
                        .collect(),
                ),
                col_dbl(
                    "c_acctbal",
                    (0..n_cust)
                        .map(|_| round2(rng.gen_range(-999.99..9999.99)))
                        .collect(),
                ),
            ],
        )
        .expect("customer table"),
    );

    // orders: 1,500,000 × sf
    let n_ord = cfg.scaled(1_500_000);
    let o_orderdate: Vec<i32> = (0..n_ord)
        .map(|_| START_DATE + rng.gen_range(0..DATE_SPAN))
        .collect();
    catalog.add_table(
        TableDef::new(
            "orders",
            vec![
                col_int("o_orderkey", (1..=n_ord as i64).collect()),
                col_int(
                    "o_custkey",
                    (0..n_ord)
                        .map(|_| rng.gen_range(1..=n_cust as i64))
                        .collect(),
                ),
                col_date("o_orderdate", o_orderdate.clone()),
                col_str(
                    "o_orderpriority",
                    (0..n_ord)
                        .map(|_| PRIORITIES[rng.gen_range(0..PRIORITIES.len())])
                        .collect(),
                ),
                col_dbl(
                    "o_totalprice",
                    (0..n_ord)
                        .map(|_| round2(rng.gen_range(850.0..560000.0)))
                        .collect(),
                ),
                col_int("o_shippriority", vec![0; n_ord]),
            ],
        )
        .expect("orders table"),
    );

    // lineitem: ~4 lines per order (6,000,000 × sf total on average).
    let mut l_orderkey = Vec::new();
    let mut l_partkey = Vec::new();
    let mut l_suppkey = Vec::new();
    let mut l_linenumber = Vec::new();
    let mut l_quantity = Vec::new();
    let mut l_extendedprice = Vec::new();
    let mut l_discount = Vec::new();
    let mut l_tax = Vec::new();
    let mut l_returnflag = Vec::new();
    let mut l_shipmode = Vec::new();
    let mut l_linestatus = Vec::new();
    let mut l_shipdate = Vec::new();
    for (oi, &odate) in o_orderdate.iter().enumerate() {
        let lines = rng.gen_range(1..=7);
        for ln in 1..=lines {
            l_orderkey.push(oi as i64 + 1);
            l_partkey.push(rng.gen_range(1..=n_part as i64));
            l_suppkey.push(rng.gen_range(1..=n_supp as i64));
            l_linenumber.push(ln as i64);
            let qty = rng.gen_range(1..=50i64);
            l_quantity.push(qty);
            let price = round2(qty as f64 * rng.gen_range(900.0..1100.0));
            l_extendedprice.push(price);
            l_discount.push(round2(rng.gen_range(0.0..0.10)));
            l_tax.push(round2(rng.gen_range(0.0..0.08)));
            let ship = odate + rng.gen_range(1..=121);
            l_shipdate.push(ship);
            l_shipmode.push(SHIPMODES[rng.gen_range(0..SHIPMODES.len())]);
            // Flags per the TPC-H rule: returns for shipments before the
            // "current date" horizon, split R/A; later ones N.
            if ship <= START_DATE + DATE_SPAN - 151 {
                l_returnflag.push(if rng.gen_bool(0.5) { "R" } else { "A" });
                l_linestatus.push("F");
            } else {
                l_returnflag.push("N");
                l_linestatus.push(if rng.gen_bool(0.5) { "O" } else { "F" });
            }
        }
    }
    catalog.add_table(
        TableDef::new(
            "lineitem",
            vec![
                col_int("l_orderkey", l_orderkey),
                col_int("l_partkey", l_partkey),
                col_int("l_suppkey", l_suppkey),
                col_int("l_linenumber", l_linenumber),
                col_int("l_quantity", l_quantity),
                col_dbl("l_extendedprice", l_extendedprice),
                col_dbl("l_discount", l_discount),
                col_dbl("l_tax", l_tax),
                col_str("l_returnflag", l_returnflag),
                col_str("l_linestatus", l_linestatus),
                col_date("l_shipdate", l_shipdate),
                col_str("l_shipmode", l_shipmode),
            ],
        )
        .expect("lineitem table"),
    );

    catalog
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn col_int(name: &str, v: Vec<i64>) -> (String, MalType, Bat) {
    (name.to_string(), MalType::Int, Bat::ints(v))
}

fn col_dbl(name: &str, v: Vec<f64>) -> (String, MalType, Bat) {
    (name.to_string(), MalType::Dbl, Bat::dbls(v))
}

/// Enum-like columns pass `&'static str`s, so no row allocates; the BAT
/// holds one `Arc<str>` per distinct value.
fn col_str<S: AsRef<str>>(name: &str, v: Vec<S>) -> (String, MalType, Bat) {
    (name.to_string(), MalType::Str, Bat::strs_ref(&v))
}

fn col_date(name: &str, v: Vec<i32>) -> (String, MalType, Bat) {
    (name.to_string(), MalType::Date, Bat::dates(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinalities_scale() {
        let c = generate_catalog(&TpchConfig::sf(0.001));
        assert_eq!(c.table("region").unwrap().rows(), 5);
        assert_eq!(c.table("nation").unwrap().rows(), 25);
        assert_eq!(c.table("customer").unwrap().rows(), 150);
        assert_eq!(c.table("orders").unwrap().rows(), 1500);
        let li = c.table("lineitem").unwrap().rows();
        assert!((4000..9000).contains(&li), "lineitem rows {li}");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = generate_catalog(&TpchConfig::sf(0.0005));
        let b = generate_catalog(&TpchConfig::sf(0.0005));
        let ca = a.column("lineitem", "l_quantity").unwrap();
        let cb = b.column("lineitem", "l_quantity").unwrap();
        assert_eq!(ca.as_ints().unwrap(), cb.as_ints().unwrap());
        let ca = a.column("orders", "o_totalprice").unwrap();
        let cb = b.column("orders", "o_totalprice").unwrap();
        assert_eq!(ca.as_dbls().unwrap(), cb.as_dbls().unwrap());
    }

    #[test]
    fn value_domains() {
        let c = generate_catalog(&TpchConfig::sf(0.001));
        let qty = c.column("lineitem", "l_quantity").unwrap();
        assert!(qty
            .as_ints()
            .unwrap()
            .iter()
            .all(|&q| (1..=50).contains(&q)));
        let disc = c.column("lineitem", "l_discount").unwrap();
        assert!(disc
            .as_dbls()
            .unwrap()
            .iter()
            .all(|&d| (0.0..=0.10).contains(&d)));
        let flags = c.column("lineitem", "l_returnflag").unwrap();
        for i in 0..flags.len() {
            let f = flags.get(i).unwrap();
            let f = f.as_str().unwrap();
            assert!(["R", "A", "N"].contains(&f));
        }
        let custkeys = c.column("orders", "o_custkey").unwrap();
        let n_cust = c.table("customer").unwrap().rows() as i64;
        assert!(custkeys
            .as_ints()
            .unwrap()
            .iter()
            .all(|&k| (1..=n_cust).contains(&k)));
    }

    #[test]
    fn referential_integrity_lineitem_orders() {
        let c = generate_catalog(&TpchConfig::sf(0.0005));
        let n_ord = c.table("orders").unwrap().rows() as i64;
        let ok = c.column("lineitem", "l_orderkey").unwrap();
        assert!(ok
            .as_ints()
            .unwrap()
            .iter()
            .all(|&k| (1..=n_ord).contains(&k)));
    }

    /// FNV-1a over a column's values in row order, each value tagged and
    /// length-prefixed so a representation change cannot hide a data
    /// change (and doubles hash as their bit patterns).
    fn column_checksum(bat: &Bat) -> u64 {
        use stetho_mal::Value;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for i in 0..bat.len() {
            match bat.get(i).expect("row in range") {
                Value::Int(x) => feed(&[b"i".as_slice(), &x.to_le_bytes()].concat()),
                Value::Dbl(x) => feed(&[b"f".as_slice(), &x.to_bits().to_le_bytes()].concat()),
                Value::Date(x) => feed(&[b"d".as_slice(), &x.to_le_bytes()].concat()),
                Value::Str(s) => {
                    feed(&[b"s".as_slice(), &(s.len() as u64).to_le_bytes()].concat());
                    feed(s.as_bytes());
                }
                other => panic!("unexpected generated value {other:?}"),
            }
        }
        h
    }

    /// Pins every column of every table at SF 0.01 with the default
    /// seed: any change to the values or to the order of rng draws shows
    /// up here as a checksum mismatch naming the column.
    #[test]
    fn generated_data_is_pinned() {
        let c = generate_catalog(&TpchConfig::sf(0.01));
        const EXPECTED: &[(&str, u64)] = &[
            ("customer.c_custkey", 0xef9bd7e9b6c4143a),
            ("customer.c_name", 0x01dc0f78123cefe9),
            ("customer.c_nationkey", 0xd2000fe6561b6701),
            ("customer.c_mktsegment", 0x1266c573daccde93),
            ("customer.c_acctbal", 0x994f525e77bed7fd),
            ("lineitem.l_orderkey", 0x814bb5705eebcd20),
            ("lineitem.l_partkey", 0xc78e773dbfd33629),
            ("lineitem.l_suppkey", 0xb6ba6c40f985ac28),
            ("lineitem.l_linenumber", 0x3b4c30957669e18d),
            ("lineitem.l_quantity", 0x7d0a51586409d19d),
            ("lineitem.l_extendedprice", 0x70626b26fb8f92c4),
            ("lineitem.l_discount", 0x3327e8fa26570a4f),
            ("lineitem.l_tax", 0x0c148adf0261dd74),
            ("lineitem.l_returnflag", 0x98f5c64081314066),
            ("lineitem.l_linestatus", 0xfb7290fd2dda7d5f),
            ("lineitem.l_shipdate", 0xf73c4acb0e8d017f),
            ("lineitem.l_shipmode", 0xfcc90b3c3800bf24),
            ("nation.n_nationkey", 0x8e20eaf637839dac),
            ("nation.n_name", 0x69e4bb632924cc27),
            ("nation.n_regionkey", 0x87a07b763f7de32c),
            ("orders.o_orderkey", 0x7f7dc84dc8fc6a07),
            ("orders.o_custkey", 0x49932e88d1db2089),
            ("orders.o_orderdate", 0x8df5eaf8e07634f7),
            ("orders.o_orderpriority", 0x763522c537c53ecd),
            ("orders.o_totalprice", 0x78adcaaf159f7967),
            ("orders.o_shippriority", 0xa98bbd7d7841410d),
            ("part.p_partkey", 0x3a2e261a55938ba8),
            ("part.p_name", 0x8fdf148a5c4a9a12),
            ("part.p_brand", 0x3c8eb521f730b6af),
            ("part.p_type", 0xb039762cd0602d06),
            ("part.p_retailprice", 0xefb87350c35674c5),
            ("region.r_regionkey", 0xdb06b6ee0c8248ec),
            ("region.r_name", 0x7b91f06dc540faf8),
            ("supplier.s_suppkey", 0x089a6aec7c57d431),
            ("supplier.s_name", 0x0b400af98906f188),
            ("supplier.s_nationkey", 0xaeda78efb3755c03),
            ("supplier.s_acctbal", 0x45346e890cf98454),
        ];
        let mut got = Vec::new();
        for table in c.table_names() {
            let def = c.table(table).unwrap();
            for col in &def.columns {
                let bat = def.column(&col.name).unwrap();
                got.push((format!("{table}.{}", col.name), column_checksum(&bat)));
            }
        }
        let expected: Vec<(String, u64)> =
            EXPECTED.iter().map(|&(n, h)| (n.to_string(), h)).collect();
        assert_eq!(got, expected, "generated data changed");
    }

    #[test]
    fn dates_in_range() {
        let c = generate_catalog(&TpchConfig::sf(0.0005));
        let d = c.column("lineitem", "l_shipdate").unwrap();
        let v = d.as_dates().unwrap();
        assert!(v
            .iter()
            .all(|&x| (START_DATE..=START_DATE + DATE_SPAN + 121).contains(&x)));
    }
}
