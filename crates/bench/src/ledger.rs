//! The benchmark ledger: a machine-readable record of engine
//! measurements, written to `BENCH_engine.json` at the repository root.
//!
//! Each bench target drains the means the criterion harness reported
//! (see `criterion::take_reports`) and upserts them here keyed by the
//! full benchmark path, so repeated runs — and different bench binaries
//! writing to the same file — refresh their own rows without clobbering
//! anyone else's. The file is what `DESIGN.md`'s ablation tables quote
//! and what CI's bench-smoke job gates on.

use std::path::PathBuf;

use serde_json::Value;

/// Ledger schema tag, bumped on breaking format changes.
pub const SCHEMA: &str = "stetho-bench/v1";

/// `BENCH_engine.json` at the repository root, located relative to this
/// crate so the path is independent of the bench process's working
/// directory.
pub fn ledger_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json")
}

/// An in-memory ledger: a list of entry objects, each with a unique
/// `"id"` plus arbitrary descriptive fields, and a free-form context
/// object describing the machine that produced the numbers.
#[derive(Default)]
pub struct Ledger {
    context: Vec<(String, Value)>,
    entries: Vec<Value>,
}

impl Ledger {
    /// Load the ledger at `path`, or start empty when the file is
    /// missing or unreadable (a fresh checkout, a corrupt artifact).
    pub fn load(path: &std::path::Path) -> Self {
        let doc = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| serde_json::from_str::<Value>(&text).ok());
        let entries = doc
            .as_ref()
            .and_then(|v| v.get("entries").and_then(Value::as_array).cloned())
            .unwrap_or_default();
        let context = doc
            .as_ref()
            .and_then(|v| v.get("context").and_then(Value::as_object).cloned())
            .unwrap_or_default();
        Ledger { context, entries }
    }

    /// Set one context field (e.g. `host_cpus`), replacing any previous
    /// value. Context qualifies every entry in the file — readers use it
    /// to judge which comparisons the host can support at all.
    pub fn set_context(&mut self, key: &str, value: Value) {
        match self.context.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => self.context.push((key.to_string(), value)),
        }
    }

    /// The context field with the given key, if present.
    pub fn context(&self, key: &str) -> Option<&Value> {
        self.context.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the ledger holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry with the given id, if present.
    pub fn get(&self, id: &str) -> Option<&Value> {
        self.entries
            .iter()
            .find(|e| e.get("id").and_then(Value::as_str) == Some(id))
    }

    /// Insert or replace the entry with `id`. `fields` follow the id in
    /// the stored object, in the given order.
    pub fn put(&mut self, id: &str, fields: Vec<(String, Value)>) {
        let mut pairs = vec![("id".to_string(), Value::String(id.to_string()))];
        pairs.extend(fields);
        let entry = Value::Object(pairs);
        match self
            .entries
            .iter_mut()
            .find(|e| e.get("id").and_then(Value::as_str) == Some(id))
        {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
    }

    /// Serialise to pretty JSON with the schema header.
    pub fn to_json(&self) -> String {
        let doc = Value::Object(vec![
            ("schema".to_string(), Value::String(SCHEMA.to_string())),
            ("context".to_string(), Value::Object(self.context.clone())),
            ("entries".to_string(), Value::Array(self.entries.clone())),
        ]);
        let mut text = serde_json::to_string_pretty(&doc).expect("ledger serialises");
        text.push('\n');
        text
    }

    /// Write the ledger to `path`.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Drain the criterion reports into the ledger at [`ledger_path`]. Each
/// report that `describe` maps to descriptor fields is upserted with its
/// `mean_ns`; the others are skipped. The context records `host_cpus`,
/// since sessions and parallel rows depend on the CPUs the host grants.
pub fn record(describe: impl Fn(&str) -> Option<Vec<(String, Value)>>) {
    let path = ledger_path();
    let mut ledger = Ledger::load(&path);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    ledger.set_context("host_cpus", int(cpus as i64));
    for report in criterion::take_reports() {
        let Some(mut fields) = describe(&report.name) else {
            continue;
        };
        fields.push(("mean_ns".to_string(), num(report.mean_ns)));
        ledger.put(&report.name, fields);
    }
    ledger.save(&path).expect("ledger writes");
    eprintln!(
        "[ledger] wrote {} entries to {}",
        ledger.len(),
        path.display()
    );
}

/// Field helper: a float value.
pub fn num(x: f64) -> Value {
    Value::Float(x)
}

/// Field helper: an integer value.
pub fn int(x: i64) -> Value {
    Value::Int(x)
}

/// Field helper: a string value.
pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_replaces_by_id_and_round_trips() {
        let dir = std::env::temp_dir().join(format!("stetho_ledger_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");

        let mut l = Ledger::load(&path);
        assert!(l.is_empty());
        l.set_context("host_cpus", int(4));
        l.put(
            "engine/a",
            vec![("mean_ns".into(), num(10.0)), ("workers".into(), int(4))],
        );
        l.put("engine/b", vec![("mean_ns".into(), num(20.0))]);
        l.save(&path).unwrap();

        // A second writer refreshes one row, keeps the other.
        let mut l2 = Ledger::load(&path);
        assert_eq!(l2.len(), 2);
        l2.put("engine/a", vec![("mean_ns".into(), num(11.5))]);
        l2.save(&path).unwrap();

        let l3 = Ledger::load(&path);
        assert_eq!(l3.len(), 2);
        assert_eq!(l3.context("host_cpus").and_then(Value::as_i64), Some(4));
        let a = l3.get("engine/a").unwrap();
        assert_eq!(a.get("mean_ns").and_then(Value::as_f64), Some(11.5));
        assert_eq!(
            l3.get("engine/b")
                .unwrap()
                .get("mean_ns")
                .and_then(Value::as_f64),
            Some(20.0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_file_loads_empty() {
        let dir = std::env::temp_dir().join(format!("stetho_ledger_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_bad.json");
        std::fs::write(&path, "not json {").unwrap();
        assert!(Ledger::load(&path).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ledger_path_points_at_repo_root() {
        let p = ledger_path();
        assert!(p.ends_with("BENCH_engine.json"));
        assert!(p.parent().unwrap().join("Cargo.toml").exists());
    }
}
