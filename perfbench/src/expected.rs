//! The recorded outputs every run is checked against: per input variant
//! and workload, each job's `JobResult` digest and the exact work
//! counters of the traced run.
//!
//! The file is regenerated with `python3 perfbench/run.py --record`; a
//! change that alters any simulated result changes a digest and fails
//! the benchmark until the file is re-recorded on purpose.

use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Digests and counters recorded for one (workload, variant).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    pub digests: BTreeMap<String, String>,
    pub counters: BTreeMap<String, u64>,
}

/// Every record, keyed `"<workload>/<variant>"`.
#[derive(Debug, Default)]
pub struct Expected {
    pub records: BTreeMap<String, Record>,
}

pub fn key(workload: &str, variant: u64) -> String {
    format!("{workload}/{variant}")
}

impl Expected {
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Value::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut records = BTreeMap::new();
        for (k, v) in doc
            .get("records")
            .and_then(Value::as_object)
            .ok_or("expected.json: no records object")?
        {
            let mut rec = Record::default();
            for (label, d) in v.get("digests").and_then(Value::as_object).unwrap_or(&[]) {
                let d = d.as_str().ok_or("expected.json: digest is not a string")?;
                rec.digests.insert(label.clone(), d.to_string());
            }
            for (name, c) in v.get("counters").and_then(Value::as_object).unwrap_or(&[]) {
                let c = c
                    .as_u64()
                    .ok_or("expected.json: counter is not an integer")?;
                rec.counters.insert(name.clone(), c);
            }
            records.insert(k.clone(), rec);
        }
        Ok(Expected { records })
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"records\": {\n");
        let n = self.records.len();
        for (i, (k, rec)) in self.records.iter().enumerate() {
            let digests: Vec<String> = rec
                .digests
                .iter()
                .map(|(l, d)| format!("\"{l}\": \"{d}\""))
                .collect();
            let counters: Vec<String> = rec
                .counters
                .iter()
                .map(|(c, v)| format!("\"{c}\": {v}"))
                .collect();
            let _ = writeln!(
                out,
                "    \"{k}\": {{\"digests\": {{{}}}, \"counters\": {{{}}}}}{}",
                digests.join(", "),
                counters.join(", "),
                if i + 1 < n { "," } else { "" }
            );
        }
        out.push_str("  }\n}\n");
        out
    }
}
