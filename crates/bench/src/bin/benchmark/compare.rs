//! Result files and `--compare A.json B.json`.
//!
//! For every workload × end-to-end metric present in both files:
//! both values, their ratio, the metric's bound, and a verdict —
//! `regressed` when B's value is worse than A's by more than the
//! bound, `unresolved` when either side's own spread (interquartile
//! range over its samples, the timed passes, as a share of its value)
//! is wider than the bound, else `ok`.

use crate::json::{num, quote, Json};
use crate::layers::Metrics;
use crate::spec::{MetricDef, END_TO_END};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::path::Path;

/// One workload's entry of a result file.
pub fn workload_json(
    name: &str,
    end_to_end: &BTreeMap<&'static str, Summary>,
    per_layer: &Metrics,
    fail_frac: f64,
) -> String {
    let e2e: Vec<String> = END_TO_END
        .iter()
        .filter_map(|d| end_to_end.get(d.name).map(|s| (d, s)))
        .map(|(d, s)| {
            format!(
                "        {}: {{\"value\": {}, \"min\": {}, \"max\": {}, \"q1\": {}, \"q3\": {}, \
                 \"n\": {}, \"unit\": {}}}",
                quote(d.name),
                num(s.value),
                num(s.min),
                num(s.max),
                num(s.q1),
                num(s.q3),
                s.n,
                quote(d.unit)
            )
        })
        .collect();
    let layers: Vec<String> = per_layer
        .iter()
        .map(|(k, v)| format!("        {}: {}", quote(k), num(*v)))
        .collect();
    format!(
        "    {}: {{\n      \"fail_frac\": {},\n      \"end_to_end\": {{\n{}\n      }},\n      \
         \"per_layer\": {{\n{}\n      }}\n    }}",
        quote(name),
        num(fail_frac),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Judge B against A for one metric.
pub fn judge(d: &MetricDef, a: &Summary, b: &Summary) -> Verdict {
    let worse_by = if d.higher_is_better {
        (a.value - b.value) / a.value
    } else {
        (b.value - a.value) / a.value
    };
    if a.iqr_frac() > d.bound || b.iqr_frac() > d.bound {
        Verdict::Unresolved
    } else if worse_by > d.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn summary_of(v: &Json) -> Option<Summary> {
    let f = |k: &str| v.get(k).and_then(Json::as_f64);
    Some(Summary {
        value: f("value")?,
        min: f("min")?,
        max: f("max")?,
        q1: f("q1")?,
        q3: f("q3")?,
        n: f("n")? as usize,
    })
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print the comparison; `Ok(true)` when nothing regressed and nothing
/// was unresolved.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let (ja, jb) = (load(a)?, load(b)?);
    let workloads = |j: &Json| j.get("workloads").and_then(Json::as_obj).cloned();
    let (wa, wb) = workloads(&ja)
        .zip(workloads(&jb))
        .ok_or("not a benchmark result file: no \"workloads\" object")?;
    println!(
        "{:<13} {:<15} {:>12} {:>12} {:>7} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut clean = true;
    let mut compared = 0;
    for (name, ea) in &wa {
        let Some(eb) = wb.get(name) else { continue };
        for d in &END_TO_END {
            let side = |e: &Json| e.get("end_to_end")?.get(d.name).and_then(summary_of);
            let (Some(sa), Some(sb)) = (side(ea), side(eb)) else {
                continue;
            };
            let verdict = judge(d, &sa, &sb);
            clean &= verdict == Verdict::Ok;
            compared += 1;
            println!(
                "{:<13} {:<15} {:>12.4} {:>12.4} {:>7.3} {:>5.0}%  {}",
                name,
                d.name,
                sa.value,
                sb.value,
                sb.value / sa.value,
                d.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if compared == 0 {
        return Err("the two files share no workload".into());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(median: f64) -> Summary {
        Summary::single(median, 10)
    }

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        let def = |higher_is_better| MetricDef {
            name: "m",
            unit: "u",
            higher_is_better,
            bound: 0.10,
        };
        let (up, down) = (&def(true), &def(false));
        assert_eq!(judge(up, &steady(100.0), &steady(91.0)), Verdict::Ok);
        assert_eq!(judge(up, &steady(100.0), &steady(89.0)), Verdict::Regressed);
        assert_eq!(judge(up, &steady(100.0), &steady(150.0)), Verdict::Ok);
        assert_eq!(
            judge(down, &steady(10.0), &steady(11.5)),
            Verdict::Regressed
        );
        assert_eq!(judge(down, &steady(10.0), &steady(5.0)), Verdict::Ok);
        let noisy = Summary {
            q1: 90.0,
            q3: 110.0,
            ..steady(100.0)
        };
        assert_eq!(judge(up, &noisy, &steady(100.0)), Verdict::Unresolved);
    }

    #[test]
    fn result_entries_read_back() {
        let e2e = BTreeMap::from([("shuffle_mib_s", Summary::of(&[1.0, 2.0, 3.0]))]);
        let layers = Metrics::from([("server.requests", 7.0)]);
        let text = format!("{{{}}}", workload_json("w", &e2e, &layers, 0.0));
        let doc = Json::parse(&text).unwrap();
        let s = doc.get("w").unwrap().get("end_to_end").unwrap();
        let s = summary_of(s.get("shuffle_mib_s").unwrap()).unwrap();
        assert_eq!(s, Summary::of(&[1.0, 2.0, 3.0]));
    }
}
