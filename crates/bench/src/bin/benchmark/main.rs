//! The repository benchmark: seven workloads over the real loopback
//! dataplane, end-to-end metrics from untraced runs, per-layer metrics
//! from counters, a traced run and microbenchmarks — every layer timed
//! from outside, through public functions only. See `README.md` beside
//! this file for what each workload and metric is for.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   # one run, result as the last line (JSON)
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--smoke] [--out DIR]   # every metric, as text
//! benchmark --compare A.json B.json
//! ```

mod cluster;
mod compare;
mod data;
mod ingest;
mod json;
mod layers;
mod micro;
mod procfs;
mod run;
mod spec;
mod stats;

use cluster::{file_len, Cluster, MIB};
use ingest::{IngestSamples, Source};
use jbs_obs::Trace;
use jbs_transport::{ClientConfig, NetMergerClient};
use layers::Metrics;
use run::{Budget, Measured, Sample};
use spec::{Kind, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{median, Summary};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Events the traced run may hold; a run that would overflow it makes
/// fewer passes instead of dropping events.
const TRACE_CAPACITY: usize = 1 << 22;

/// How big and how long: the defaults, or `--smoke`.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Seconds of timed passes per untraced run.
    seconds: f64,
    /// Set-ups per untraced run, each with its share of the timed passes.
    setups: usize,
    /// Divisor on records per MOF.
    shrink: usize,
    /// Fewest timed passes (repetitions on `ingest_serve`) per run.
    min_passes: usize,
}

impl Plan {
    fn new(seconds: f64, smoke: bool) -> Plan {
        if smoke {
            Plan {
                seconds: seconds.min(0.1),
                setups: 1,
                shrink: 20,
                min_passes: 1,
            }
        } else {
            Plan {
                seconds,
                setups: 4,
                shrink: 1,
                min_passes: 4,
            }
        }
    }

    fn budget(&self, share: f64) -> Budget {
        Budget {
            seconds: self.seconds * share,
            min_passes: self.min_passes,
            max_passes: usize::MAX,
        }
    }
}

/// The result of one untraced run of one workload.
struct EndToEnd {
    /// Each metric over the run's samples — one per timed pass (one per
    /// set-up for `setup_s`) — with the mean of their better half as the
    /// value the run reports.
    metrics: BTreeMap<&'static str, Summary>,
    /// All timed passes pooled, for the layer counters and the tally of
    /// verified operations (cold passes included).
    pooled: Measured,
}

impl EndToEnd {
    fn of(samples: &[Sample], pooled: Measured) -> EndToEnd {
        let metrics = END_TO_END
            .iter()
            .map(|d| {
                let values: Vec<f64> = samples
                    .iter()
                    .filter_map(|s| s.get(d.name))
                    .copied()
                    .collect();
                (d.name, Summary::better_half(&values, d.higher_is_better))
            })
            .collect();
        EndToEnd { metrics, pooled }
    }
}

/// Repetitions of `ingest_serve` until `seconds` of wall time are spent:
/// nearly all of a repetition is timed for one metric or another (its
/// set-up for `setup_s`, the window, the recovery).
fn ingest_reps(
    src: &Source,
    work: &Path,
    trace: &Trace,
    seconds: f64,
    min_reps: usize,
) -> io::Result<(Vec<Sample>, Measured, IngestSamples)> {
    let (mut pooled, mut s) = (Measured::default(), IngestSamples::default());
    let mut samples = Vec::new();
    // A traced run stops before the recorder's ring would overflow.
    let mut max_reps = usize::MAX;
    let start = Instant::now();
    while samples.len() < max_reps
        && (samples.len() < min_reps || start.elapsed().as_secs_f64() < seconds)
    {
        let dir = work.join(format!("ingest-{}", samples.len()));
        let (m, sample) = ingest::repetition(src, &dir, trace, &mut s)?;
        pooled.absorb(m);
        samples.push(sample);
        if trace.is_enabled() && max_reps == usize::MAX {
            max_reps = (TRACE_CAPACITY / 2 / trace.query().len().max(1)).max(1);
        }
    }
    Ok((samples, pooled, s))
}

fn run_end_to_end(w: &Workload, plan: Plan, seed: u64, work: &Path) -> io::Result<EndToEnd> {
    let shape = w.shape.shrunk(plan.shrink);
    let trace = Trace::disabled();
    if w.kind == Kind::Ingest {
        let src = Source::generate(shape, seed);
        let (samples, pooled, _) = ingest_reps(&src, work, &trace, plan.seconds, plan.min_passes)?;
        return Ok(EndToEnd::of(&samples, pooled));
    }
    let mut samples = Vec::new();
    let mut pooled = Measured::default();
    let budget = Budget {
        seconds: plan.seconds / plan.setups as f64,
        min_passes: plan.min_passes.div_ceil(plan.setups),
        max_passes: usize::MAX,
    };
    for k in 0..plan.setups {
        let dir = work.join(format!("{}-{k}", w.name));
        let (c, setup_s) = Cluster::build(w, shape, seed, &trace, &dir)?;
        samples.push(Sample::from([("setup_s", setup_s)]));
        let (_, cold_misses) = run::cold_pass(&c, w.kind, &trace);
        let mut m = run::measure(&c, &c.client, w.kind, budget, &trace);
        m.attempted += c.pass_segments();
        m.failed += cold_misses;
        c.teardown();
        samples.extend(m.passes.iter().map(|p| p.sample(0)));
        pooled.absorb(m);
    }
    Ok(EndToEnd::of(&samples, pooled))
}

/// The result of one per-layer run of one workload.
struct Layers {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
}

/// Median round trip of single-chunk fetches on an otherwise idle
/// connection, in microseconds.
fn chunk_rtt_us(c: &Cluster, seconds: f64) -> f64 {
    let Some(&seg) = c.waves.first().and_then(|w| w.first()) else {
        return 0.0;
    };
    let start = Instant::now();
    let mut rtts = Vec::new();
    while rtts.len() < 1000 && start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        if c.client.fetch_chunk(seg, 0).is_err() {
            return 0.0;
        }
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&rtts)
}

fn run_micro(plan: Plan, seed: u64, work: &Path) -> io::Result<Metrics> {
    micro::run_all(plan.seconds / 2.0, seed, &work.join("micro"))
}

/// Per-layer metrics of `w`: an untraced run for the counters, a traced
/// run for the busy fractions, and the microbenchmarks (`micro`, when
/// the caller already has them, is reused instead).
fn run_layers(
    w: &Workload,
    plan: Plan,
    seed: u64,
    work: &Path,
    micro: Option<&Metrics>,
    trace_out: Option<&Path>,
) -> io::Result<Layers> {
    let shape = w.shape.shrunk(plan.shrink);
    let mut out: Metrics = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let off = Trace::disabled();
    let on = Trace::recording(TRACE_CAPACITY);
    let (untraced, traced);
    if w.kind == Kind::Ingest {
        let src = Source::generate(shape, seed);
        let min = plan.min_passes.min(2);
        let (_, m, s) = ingest_reps(&src, work, &off, plan.seconds / 4.0, min)?;
        out.insert(
            "hybrid.write_amp",
            s.disk_bytes as f64 / s.written_bytes as f64,
        );
        out.insert(
            "hybrid.manifest_bytes_per_mib",
            s.manifest_bytes as f64 / (s.written_bytes as f64 / MIB),
        );
        out.insert(
            "hybrid.recover_extents_per_s",
            median(&s.recover_extents_per_s),
        );
        untraced = m;
        traced = ingest_reps(&src, work, &on, plan.seconds / 4.0, 1)?.1;
    } else {
        let (c, _) = Cluster::build(w, shape, seed, &off, &work.join("untraced"))?;
        let (cold_mib_s, cold_misses) = run::cold_pass(&c, w.kind, &off);
        out.insert("bench.cold_pass_mib_s", cold_mib_s);
        let mut m = run::measure(&c, &c.client, w.kind, plan.budget(0.25), &off);
        m.attempted += c.pass_segments();
        m.failed += cold_misses;

        // The same passes with the v3 checksum off: what sealing and
        // verifying every chunk costs end to end.
        let plain = NetMergerClient::with_client_config(ClientConfig {
            checksum: false,
            ..ClientConfig::default()
        });
        let one_pass = Budget {
            seconds: 0.0,
            min_passes: 1,
            max_passes: 1,
        };
        run::measure(&c, &plain, w.kind, one_pass, &off);
        let unchecked = run::measure(&c, &plain, w.kind, plan.budget(0.125), &off);
        m.attempted += unchecked.attempted;
        m.failed += unchecked.failed;
        drop(plain);
        out.insert(
            "checksum.overhead_frac",
            1.0 - m.mib_s() / unchecked.mib_s(),
        );
        out.insert(
            "client.chunk_rtt_us_p50",
            chunk_rtt_us(&c, plan.seconds / 12.0),
        );
        let spilled: u64 = c
            .hybrids
            .iter()
            .map(|h| file_len(&h.local_dir().join("spill.data")))
            .sum();
        if !c.hybrids.is_empty() {
            out.insert("hybrid.write_amp", spilled as f64 / c.pass_bytes as f64);
        }
        c.teardown();
        untraced = m;

        let (c, _) = Cluster::build(w, shape, seed, &on, &work.join("traced"))?;
        let (_, cold_misses) = run::cold_pass(&c, w.kind, &on);
        let per_pass = on.query().len().max(1);
        on.clear();
        let budget = Budget {
            max_passes: (TRACE_CAPACITY / 2 / per_pass).max(1),
            min_passes: 1,
            ..plan.budget(0.25)
        };
        let mut m = run::measure(&c, &c.client, w.kind, budget, &on);
        m.attempted += c.pass_segments();
        m.failed += cold_misses;
        c.teardown();
        traced = m;
    }
    layers::from_counters(&mut out, &untraced);
    layers::from_trace(&mut out, &on);
    if let Some(path) = trace_out {
        std::fs::write(path, on.to_jsonl())?;
    }
    drop(on);
    let (plain_mib_s, traced_mib_s) = (untraced.mib_s(), traced.mib_s());
    out.insert("obs.trace_overhead_frac", 1.0 - traced_mib_s / plain_mib_s);
    out.insert("bench.traced_passes", traced.passes.len() as f64);
    out.insert("bench.traced_shuffle_mib_s", traced_mib_s);
    match micro {
        Some(done) => out.extend(done.clone()),
        None => out.extend(run_micro(plan, seed, work)?),
    }
    let loopback_mib_s = out["ceiling.loopback_gib_s"] * 1024.0;
    out.insert("ceiling.frac_of_loopback", plain_mib_s / loopback_mib_s);
    Ok(Layers {
        metrics: out,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
    })
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--out DIR] | --compare A.json B.json";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: None,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut args = std::env::args().skip(1);
    let value = |flag: &str, args: &mut dyn Iterator<Item = String>| {
        args.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&flag, &mut args)?;
                a.workload = Some(spec::workload(&name).ok_or(format!(
                    "unknown workload {name}; one of: {}",
                    WORKLOADS.map(|w| w.name).join(", ")
                ))?);
            }
            "--seed" => {
                let v = value(&flag, &mut args)?;
                a.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = value(&flag, &mut args)?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds {v}: not a positive number"))?;
            }
            "--trace" => {
                a.trace = Some(match value(&flag, &mut args)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                });
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value(&flag, &mut args)?.into()),
            "--compare" => {
                a.compare = Some((
                    value(&flag, &mut args)?.into(),
                    value(&flag, &mut args)?.into(),
                ));
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.trace.is_some() && a.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(a)
}

/// Build outputs and scratch data live under Cargo's target directory,
/// so a run writes nothing outside its checkout.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// The contract run: one workload, traced or not, result as one JSON
/// object on the last line of standard output.
fn contract_run(w: &Workload, a: &Args, work: &Path) -> io::Result<bool> {
    let plan = Plan::new(a.seconds, a.smoke);
    let traced = a.trace == Some(true);
    let full_size = plan.shrink == 1;
    let (defs, values, attempted, failed, bad) = if traced {
        let l = run_layers(w, plan, a.seed, work, None, None)?;
        let bad = layers::violations(w, &l.metrics, true, full_size);
        (&PER_LAYER[..], l.metrics, l.attempted, l.failed, bad)
    } else {
        let e = run_end_to_end(w, plan, a.seed, work)?;
        for d in &END_TO_END {
            let s = e.metrics[d.name];
            eprintln!(
                "benchmark: {} {} {:.4} {} from {} samples (IQR {:.1} % of it)",
                w.name,
                d.name,
                s.value,
                d.unit,
                s.n,
                s.iqr_frac() * 100.0
            );
        }
        let mut counted = Metrics::new();
        layers::from_counters(&mut counted, &e.pooled);
        let bad = layers::violations(w, &counted, false, full_size);
        let values: Metrics = e.metrics.iter().map(|(k, s)| (*k, s.value)).collect();
        (
            &END_TO_END[..],
            values,
            e.pooled.attempted,
            e.pooled.failed,
            bad,
        )
    };
    for line in &bad {
        eprintln!("benchmark: {line}");
    }
    let correct = failed == 0 && bad.is_empty();
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(d.name),
                json::num(values[d.name]),
                json::quote(d.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    Ok(correct)
}

/// Touch and release as much memory as a run's footprint. On a
/// lazily-backed virtual machine the first touch of a guest page costs
/// far more than any later one (measured here: ~270 MiB/s against
/// ~4 GiB/s), so without this, whichever pass or set-up happens to be
/// handed never-touched pages pays for the hypervisor, not the program.
fn warm_memory() {
    const FOOTPRINT: usize = 1 << 30;
    let mut block = vec![0u8; FOOTPRINT];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&block);
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The text run: every metric of the chosen workloads as
/// `workload name value unit`, plus a result file for `--compare`.
fn suite_run(a: &Args, work: &Path) -> io::Result<bool> {
    let plan = Plan::new(a.seconds, a.smoke);
    let out_dir = a
        .out
        .clone()
        .unwrap_or_else(|| target_dir().join("benchmark"));
    std::fs::create_dir_all(&out_dir)?;
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let environment = [
        ("nproc", nproc.to_string()),
        ("kernel", kernel.trim().to_string()),
        ("rustc", command_line("rustc", &["--version"])),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
        ("seed", a.seed.to_string()),
        ("seconds", a.seconds.to_string()),
        ("smoke", a.smoke.to_string()),
        (
            "transport",
            "loopback TCP, page-cache-backed files: link rate and device latency are not measured"
                .to_string(),
        ),
        (
            "load",
            "closed loop, one process, one NetMergerClient, one connection and worker per supplier"
                .to_string(),
        ),
    ];
    println!("# environment");
    for (k, v) in &environment {
        println!("{k} {v}");
    }
    let chosen: Vec<&Workload> = match a.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut correct = true;
    let micro = run_micro(plan, a.seed, work)?;
    let mut results = Vec::new();
    for w in chosen {
        println!("# {}", w.name);
        let e = run_end_to_end(w, plan, a.seed, work)?;
        for d in &END_TO_END {
            let s = e.metrics[d.name];
            println!(
                "{} {} {} {}  (min {} max {} n {})",
                w.name, d.name, s.value, d.unit, s.min, s.max, s.n
            );
        }
        let trace_path = out_dir.join(format!("trace-{}.jsonl", w.name));
        let l = run_layers(w, plan, a.seed, work, Some(&micro), Some(&trace_path))?;
        for d in &PER_LAYER {
            println!("{} {} {} {}", w.name, d.name, l.metrics[d.name], d.unit);
        }
        let attempted = e.pooled.attempted + l.attempted;
        let failed = e.pooled.failed + l.failed;
        let fail_frac = failed as f64 / attempted.max(1) as f64;
        println!(
            "{} fail_frac {fail_frac} frac  ({failed} of {attempted})",
            w.name
        );
        let bad = layers::violations(w, &l.metrics, true, plan.shrink == 1);
        for line in &bad {
            println!("{} VIOLATION {line}", w.name);
        }
        correct &= failed == 0 && bad.is_empty();
        results.push(compare::workload_json(
            w.name, &e.metrics, &l.metrics, fail_frac,
        ));
    }
    let env_json: Vec<String> = environment
        .iter()
        .map(|(k, v)| format!("    {}: {}", json::quote(k), json::quote(v)))
        .collect();
    let result = format!(
        "{{\n  \"claim\": null,\n  \"environment\": {{\n{}\n  }},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        env_json.join(",\n"),
        results.join(",\n")
    );
    let path = out_dir.join("result.json");
    std::fs::write(&path, result)?;
    println!("# wrote {}", path.display());
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        match compare::compare_files(a, b) {
            Ok(clean) => std::process::exit(i32::from(!clean)),
            Err(e) => {
                eprintln!("benchmark: {e}");
                std::process::exit(2);
            }
        }
    }
    if !args.smoke {
        warm_memory();
    }
    let work = target_dir()
        .join("benchmark-work")
        .join(std::process::id().to_string());
    let outcome = std::fs::create_dir_all(&work).and_then(|()| match args.workload {
        Some(w) if args.trace.is_some() => contract_run(w, &args, &work),
        _ => suite_run(&args, &work),
    });
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;
    use std::collections::BTreeSet;

    fn names<'a>(doc: &'a Json, key: &str) -> BTreeSet<&'a str> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str))
            .collect()
    }

    /// `BENCHMARK.json` and the binary must name the same workloads and
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let doc = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        assert_eq!(
            names(&doc, "workloads"),
            WORKLOADS.iter().map(|w| w.name).collect()
        );
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            assert_eq!(names(&doc, key), defs.iter().map(|d| d.name).collect());
            for m in doc.get(key).and_then(Json::as_arr).unwrap() {
                let name = m.get("name").and_then(Json::as_str).unwrap();
                let d = defs.iter().find(|d| d.name == name).unwrap();
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit), "{name}");
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(better),
                    "{name}"
                );
                let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
                assert_eq!(bound, d.bound, "{name}");
            }
        }
    }

    #[test]
    fn every_name_is_in_the_contract_charset_and_unique() {
        let all: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name))
            .collect();
        assert!(all.iter().all(|n| stats::valid_name(n)));
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len());
    }

    /// The smoke plan runs every code path and emits every metric name.
    #[test]
    fn smoke_run_emits_every_metric_and_verifies() {
        let work = target_dir()
            .join("benchmark-work")
            .join(format!("test-{}", std::process::id()));
        let plan = Plan::new(0.05, true);
        let micro = run_micro(plan, 3, &work).unwrap();
        for w in &WORKLOADS {
            let e = run_end_to_end(w, plan, 3, &work).unwrap();
            assert_eq!(e.pooled.failed, 0, "{}", w.name);
            for d in &END_TO_END {
                let v = e.metrics[d.name].value;
                // CPU time ticks at 100 Hz: a smoke run may see none.
                let ok = v > 0.0 || d.name == "cpu_s_per_gib";
                assert!(v.is_finite() && ok, "{} {} = {v}", w.name, d.name);
            }
            let l = run_layers(w, plan, 3, &work, Some(&micro), None).unwrap();
            assert_eq!(l.failed, 0, "{}", w.name);
            assert_eq!(
                l.metrics.keys().copied().collect::<BTreeSet<_>>(),
                PER_LAYER.iter().map(|d| d.name).collect()
            );
            assert!(l.metrics.values().all(|v| v.is_finite()), "{}", w.name);
        }
        let _ = std::fs::remove_dir_all(&work);
    }
}
