//! `cdipack` table persistence: round-trip fidelity and corruption
//! robustness at the store layer.

use minispark::store::{Catalog, ColumnType, Schema, Table, Value};

fn wide_table(rows: i64) -> Table {
    let schema = Schema::new(vec![
        ("vm", ColumnType::Int),
        ("cdi", ColumnType::Float),
        ("region", ColumnType::Str),
        ("note", ColumnType::Str),
    ])
    .unwrap();
    let mut t = Table::new(schema);
    for i in 0..rows {
        t.push_row(vec![
            Value::Int(i),
            Value::Float(f64::from(u32::try_from(i % 997).unwrap()) * 1e-4),
            Value::Str(format!("region-{}", i % 3)),
            Value::Str(if i % 7 == 0 { "degraded".into() } else { "ok".into() }),
        ])
        .unwrap();
    }
    t
}

#[test]
fn pack_bytes_round_trip_exactly() {
    let t = wide_table(257);
    let bytes = t.to_pack_bytes();
    let back = Table::from_pack_bytes(&bytes).unwrap();
    assert_eq!(back, t);
    // Deterministic encoder: equal tables produce equal bytes.
    assert_eq!(back.to_pack_bytes(), bytes);
}

#[test]
fn pack_preserves_float_bits() {
    let schema = Schema::new(vec![("x", ColumnType::Float)]).unwrap();
    let mut t = Table::new(schema);
    for v in [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.1 + 0.2, 1e-308] {
        t.push_row(vec![Value::Float(v)]).unwrap();
    }
    let back = Table::from_pack_bytes(&t.to_pack_bytes()).unwrap();
    let orig = match t.column("x").unwrap() {
        minispark::store::Column::Float(c) => c.clone(),
        _ => unreachable!(),
    };
    let got = match back.column("x").unwrap() {
        minispark::store::Column::Float(c) => c.clone(),
        _ => unreachable!(),
    };
    for (a, b) in orig.iter().zip(got.iter()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn corrupt_pack_bytes_are_typed_errors_never_panics() {
    let t = wide_table(64);
    let bytes = t.to_pack_bytes();

    // Truncation at every prefix length must fail cleanly (or, for the
    // full length, succeed) — never panic.
    for cut in 0..bytes.len() {
        let _ = Table::from_pack_bytes(&bytes[..cut]).map(|_| ());
    }
    assert!(Table::from_pack_bytes(&bytes[..bytes.len() / 2]).is_err());

    // Single-byte flips decode to an error or to *some* table — but the
    // decoder itself must stay total.
    for i in 0..bytes.len().min(512) {
        let mut mutated = bytes.clone();
        mutated[i] ^= 0x41;
        let _ = Table::from_pack_bytes(&mutated).map(|_| ());
    }

    // Over-length declaration: claim a giant row count.
    let mut over = bytes.clone();
    let keep = over.len() / 4;
    over.truncate(keep);
    assert!(Table::from_pack_bytes(&over).is_err());

    // Trailing garbage is rejected.
    let mut extra = bytes.clone();
    extra.push(0x00);
    assert!(Table::from_pack_bytes(&extra).is_err());
}

#[test]
fn catalog_speaks_cdipack_only() {
    let dir = std::env::temp_dir().join(format!("minispark-cdp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cat = Catalog::open(&dir).unwrap();
    let t = wide_table(16);
    cat.save("vm_cdi", &t).unwrap();
    assert!(dir.join("vm_cdi.cdp").exists());
    assert_eq!(cat.load("vm_cdi").unwrap().len(), 16);
    assert!(cat.load("missing").is_err());

    // A stray `{name}.json` beside the `.cdp` is not a table: it neither
    // shadows the saved table on load nor shows up as a second name.
    std::fs::write(dir.join("vm_cdi.json"), b"{\"junk\": true}").unwrap();
    std::fs::write(dir.join("orphan.json"), b"[]").unwrap();
    assert_eq!(cat.load("vm_cdi").unwrap(), t);
    assert_eq!(cat.list().unwrap(), vec!["vm_cdi"]);
    assert!(cat.load("orphan").is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}
