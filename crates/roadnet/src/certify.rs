//! The certified-report kernel shared by the bench binaries.
//!
//! Every `BENCH_*.json` artifact certifies its run with a digest: FNV-1a
//! 64 over the report's deterministic JSON, which must come out the same
//! for every worker count. This module owns everything about producing
//! that certificate that does not depend on what was measured:
//!
//! * [`fnv1a64`] and its streaming form [`Fnv1a`] — the one digest hash;
//! * [`cells_json`] — the cells array every report embeds;
//! * [`Cli`] — the shared flags `--smoke`, `--nightly`, `--threads N` and
//!   `--out PATH`, parsed once into [`BenchArgs`]. Worker precedence:
//!   `--threads` beats `SPAIR_THREADS` beats the detected parallelism;
//! * [`certify`] — run, digest, and rerun serially when more than one
//!   worker ran, comparing the deterministic JSON byte for byte;
//! * [`BenchArgs::out_path`] — the [`bench_out`] clobber guard: a partial
//!   run may not overwrite a committed `BENCH_*.json`;
//! * [`Envelope`] and [`publish`] — the artifact's top-level object, then
//!   write, echo and exit code.
//!
//! Exit codes: 0 when certified; 1 when a verdict failed or a parallel run
//! diverged from serial (the artifact is still written, so the failure can
//! be inspected); 2 on a usage error — a malformed flag, or selected
//! columns that produce no cells.

use crate::{bench_out, parallel};
use std::fmt::{self, Display, Write as _};
use std::str::FromStr;
use std::time::Instant;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64, for digests folded field by field.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds `v` as its eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// The hash of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    Fnv1a::default().write(bytes).finish()
}

/// Renders a report's cells as the JSON array every artifact embeds: one
/// `{ … }` object per line, indented under the top-level document.
/// `fields` renders one cell's comma-separated `"key": value` pairs.
pub fn cells_json<T>(cells: &[T], fields: impl Fn(&T) -> String) -> String {
    let mut out = String::from("[\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str("    { ");
        out.push_str(&fields(c));
        out.push_str(if i + 1 < cells.len() { " },\n" } else { " }\n" });
    }
    out.push_str("  ]");
    out
}

/// A report whose run the kernel certifies.
pub trait Certified {
    /// The cells array with deterministic fields only: a pure function of
    /// the specs' seeds, and the digest input.
    fn deterministic_json(&self) -> String;
    /// The cells array the artifact embeds, timing fields included.
    fn artifact_json(&self) -> String;
    /// Number of cells in the report.
    fn cells(&self) -> usize;
    /// `Err` with the line to print when some cell failed its check.
    fn verdict(&self) -> Result<(), String>;
    /// The certificate: [`fnv1a64`] of [`Certified::deterministic_json`].
    fn digest(&self) -> u64 {
        fnv1a64(self.deterministic_json().as_bytes())
    }
}

/// Which spec set a bench binary runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The configuration the committed artifact is generated with.
    Default,
    /// The small CI gate (`--smoke`).
    Smoke,
    /// The paper-scale lane (`--nightly`).
    Nightly,
}

impl Tier {
    /// The flag selecting this tier; `None` for the default.
    fn flag(self) -> Option<&'static str> {
        match self {
            Tier::Default => None,
            Tier::Smoke => Some("--smoke"),
            Tier::Nightly => Some("--nightly"),
        }
    }

    /// Suffix for a binary's log header: `" (smoke)"`, `" (nightly)"` or
    /// empty.
    pub fn suffix(self) -> &'static str {
        match self {
            Tier::Default => "",
            Tier::Smoke => " (smoke)",
            Tier::Nightly => " (nightly)",
        }
    }
}

/// A malformed command line or run selection; binaries exit 2 on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A binary's command line, consumed one argument at a time.
pub struct Cli {
    name: &'static str,
    usage: &'static str,
    args: std::vec::IntoIter<String>,
}

impl Cli {
    /// The process arguments of binary `name`, whose flag synopsis is
    /// `usage`.
    pub fn from_env(name: &'static str, usage: &'static str) -> Cli {
        Cli::new(name, usage, std::env::args().skip(1).collect())
    }

    /// `args` (without the program name) of binary `name`.
    pub fn new(name: &'static str, usage: &'static str, args: Vec<String>) -> Cli {
        Cli {
            name,
            usage,
            args: args.into_iter(),
        }
    }

    /// The next argument, if any.
    pub fn next_arg(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, UsageError> {
        self.args
            .next()
            .ok_or_else(|| UsageError(format!("missing value for {flag}")))
    }

    /// The value following `flag`, parsed as `T`.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, UsageError> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| UsageError(format!("{flag}: cannot parse '{v}'")))
    }

    /// The value following `flag`, which must be an integer >= 1.
    pub fn positive(&mut self, flag: &str) -> Result<usize, UsageError> {
        let v = self.value(flag)?;
        match v.parse() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(UsageError(format!(
                "{flag} expects a positive integer, got '{v}'"
            ))),
        }
    }

    /// Prints `err` with the usage line and exits 2.
    pub fn fail(&self, err: UsageError) -> ! {
        eprintln!("error: {err}\nusage: {} {}", self.name, self.usage);
        std::process::exit(2)
    }

    /// Parses the whole command line: the shared flags here, the tier
    /// flags among `tiers` this binary offers, and every other argument
    /// through `own`, which returns whether it consumed the flag. Exits 2
    /// on a usage error.
    pub fn bench_args(
        &mut self,
        tiers: &[Tier],
        own: impl FnMut(&str, &mut Cli) -> Result<bool, UsageError>,
    ) -> BenchArgs {
        self.try_bench_args(tiers, own)
            .unwrap_or_else(|e| self.fail(e))
    }

    /// [`Cli::bench_args`] returning the usage error instead of exiting.
    pub fn try_bench_args(
        &mut self,
        tiers: &[Tier],
        mut own: impl FnMut(&str, &mut Cli) -> Result<bool, UsageError>,
    ) -> Result<BenchArgs, UsageError> {
        let mut tier = Tier::Default;
        let mut threads = None;
        let mut out = None;
        while let Some(flag) = self.next_arg() {
            if let Some(&t) = tiers.iter().find(|t| t.flag() == Some(flag.as_str())) {
                if tier != Tier::Default && tier != t {
                    return Err(UsageError(
                        "--smoke and --nightly are mutually exclusive".into(),
                    ));
                }
                tier = t;
                continue;
            }
            match flag.as_str() {
                "--threads" => threads = Some(self.positive("--threads")?),
                "--out" => out = Some(self.value("--out")?),
                other => {
                    if !own(other, self)? {
                        return Err(UsageError(format!("unknown flag {other}")));
                    }
                }
            }
        }
        Ok(BenchArgs {
            tier,
            threads: parallel::resolve_threads(threads),
            out,
        })
    }
}

/// The shared flags of a bench run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Which spec set runs.
    pub tier: Tier,
    /// Worker count, resolved under the shared precedence.
    pub threads: usize,
    /// `--out`, when given.
    pub out: Option<String>,
}

impl BenchArgs {
    /// Whether `--smoke` was given.
    pub fn smoke(&self) -> bool {
        self.tier == Tier::Smoke
    }

    /// Whether `--nightly` was given.
    pub fn nightly(&self) -> bool {
        self.tier == Tier::Nightly
    }

    /// Where the artifact goes: `--out`, else `default`, redirected to the
    /// `*.smoke.json` sibling when the run is partial. A run is partial
    /// when its tier is not the default or the binary names a reason of
    /// its own in `own_partial`.
    pub fn out_path(&self, default: &str, own_partial: Option<&'static str>) -> String {
        bench_out::redirect_partial_out(
            self.out.as_deref().unwrap_or(default),
            self.tier.flag().or(own_partial),
        )
    }
}

/// The clobber-guard reason of a run whose columns are not its full
/// default column set.
pub fn columns_partial<T: PartialEq>(chosen: &[T], full: &[T]) -> Option<&'static str> {
    (chosen != full).then_some("--methods-restricted")
}

/// A certified run.
#[derive(Debug)]
pub struct Certificate<R> {
    /// The report of the run with the requested worker count.
    pub report: R,
    /// Its digest.
    pub digest: u64,
    /// Whether the serial rerun reproduced it byte for byte (trivially
    /// true for a one-worker run, which is its own serial reference).
    pub bit_identical: bool,
    /// Wall seconds of the run.
    pub secs: f64,
    /// Wall seconds of the serial rerun (equal to `secs` with one worker).
    pub serial_secs: f64,
}

/// Runs `run(threads)`, digests its report and, when `threads > 1`,
/// reruns `run(1)` to certify the parallel fan-out is bit-identical to
/// serial. A report without cells is a usage error: the selected columns
/// certified nothing.
pub fn certify<R: Certified>(
    threads: usize,
    mut run: impl FnMut(usize) -> R,
) -> Result<Certificate<R>, UsageError> {
    let start = Instant::now();
    let report = run(threads);
    let secs = start.elapsed().as_secs_f64();
    if report.cells() == 0 {
        return Err(UsageError("the selected columns produce no cells".into()));
    }
    let digest = report.digest();
    let (serial_secs, bit_identical) = if threads == 1 {
        (secs, true)
    } else {
        let start = Instant::now();
        let serial = run(1);
        (
            start.elapsed().as_secs_f64(),
            serial.deterministic_json() == report.deterministic_json(),
        )
    };
    eprintln!(
        "cells: {}  digest: {digest:016x}  bit_identical: {bit_identical}",
        report.cells()
    );
    Ok(Certificate {
        report,
        digest,
        bit_identical,
        secs,
        serial_secs,
    })
}

/// An inline JSON object, `{ "k": v, … }`; values are pre-rendered JSON.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{ {} }}", body.join(", "))
}

/// An inline `{"label": count, …}` breakdown, in the given order (`{}`
/// when empty).
pub fn counts_json<L: std::fmt::Display, N: std::fmt::Display>(counts: &[(L, N)]) -> String {
    let body: Vec<String> = counts
        .iter()
        .map(|(l, n)| format!("\"{l}\": {n}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The `host` object: detected parallelism and the worker count used.
pub fn host_json(threads: usize) -> String {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    object(&[
        ("available_parallelism", available.to_string()),
        ("worker_threads", threads.to_string()),
    ])
}

/// An artifact's top-level JSON object, one `"key": value` line per field
/// in insertion order.
#[derive(Debug)]
pub struct Envelope(String);

impl Envelope {
    /// Starts the object with its `"benchmark"` name.
    pub fn new(benchmark: &str) -> Envelope {
        Envelope(format!("{{\n  \"benchmark\": \"{benchmark}\""))
    }

    /// Appends a field; `value` is rendered as JSON as is.
    pub fn field(mut self, key: &str, value: impl Display) -> Envelope {
        write!(self.0, ",\n  \"{key}\": {value}").expect("write to String");
        self
    }

    /// Appends a wall-clock field in seconds.
    pub fn secs(self, key: &str, secs: f64) -> Envelope {
        self.field(key, format!("{secs:.6}"))
    }

    /// Appends the certificate block: the digest, the serial-rerun
    /// verdict and the host.
    pub fn certificate(self, digest: u64, bit_identical: bool, threads: usize) -> Envelope {
        self.field("digest", format!("\"{digest:016x}\""))
            .field("bit_identical_across_threads", bit_identical)
            .field("host", host_json(threads))
    }

    /// Closes the object.
    pub fn finish(self) -> String {
        self.0 + "\n}\n"
    }
}

/// Writes the artifact `json` to `out`, echoes it on stdout and returns
/// the exit code: 1 when `verdict` failed or the run was not
/// `bit_identical`, else 0. The artifact is written either way.
pub fn publish(out: &str, json: &str, verdict: Result<(), String>, bit_identical: bool) -> i32 {
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("error: cannot write {out}: {e}");
        return 1;
    }
    println!("{json}");
    eprintln!("wrote {out}");
    let mut code = 0;
    if let Err(failure) = verdict {
        eprintln!("{failure}");
        code = 1;
    }
    if !bit_identical {
        eprintln!("DETERMINISM FAILURE: parallel run diverged from serial");
        code = 1;
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        let streamed = Fnv1a::default().write(b"foo").write(b"bar").finish();
        assert_eq!(streamed, fnv1a64(b"foobar"));
        assert_eq!(
            Fnv1a::default().write_u64(7).finish(),
            fnv1a64(&7u64.to_le_bytes())
        );
    }

    #[test]
    fn cells_json_renders_one_object_per_line() {
        assert_eq!(
            cells_json(&[1, 2], |c| format!("\"n\": {c}")),
            "[\n    { \"n\": 1 },\n    { \"n\": 2 }\n  ]"
        );
        assert_eq!(cells_json(&[] as &[u8], |_| String::new()), "[\n  ]");
    }

    fn parse(args: &[&str], tiers: &[Tier]) -> Result<BenchArgs, UsageError> {
        let mut cli = Cli::new(
            "bench_test",
            "[--smoke]",
            args.iter().map(|s| s.to_string()).collect(),
        );
        cli.try_bench_args(tiers, |flag, cli| match flag {
            "--scale" => cli.parse::<f64>(flag).map(|_| true),
            _ => Ok(false),
        })
    }

    #[test]
    fn shared_flags_parse() {
        let both = [Tier::Smoke, Tier::Nightly];
        let a = parse(&["--smoke", "--threads", "3", "--out", "x.json"], &both).unwrap();
        assert_eq!(
            a,
            BenchArgs {
                tier: Tier::Smoke,
                threads: 3,
                out: Some("x.json".into())
            }
        );
        assert!(parse(&["--nightly", "--scale", "0.5"], &both)
            .unwrap()
            .nightly());
        assert_eq!(
            parse(&["--smoke", "--smoke"], &both).unwrap().tier,
            Tier::Smoke
        );
    }

    #[test]
    fn malformed_command_lines_are_usage_errors() {
        let both = [Tier::Smoke, Tier::Nightly];
        let cases: &[(&[&str], &[Tier], &str)] = &[
            (
                &["--threads", "0"],
                &both,
                "--threads expects a positive integer, got '0'",
            ),
            (
                &["--threads", "x"],
                &both,
                "--threads expects a positive integer, got 'x'",
            ),
            (&["--threads"], &both, "missing value for --threads"),
            (&["--out"], &both, "missing value for --out"),
            (&["--bogus"], &both, "unknown flag --bogus"),
            (
                &["--smoke", "--nightly"],
                &both,
                "--smoke and --nightly are mutually exclusive",
            ),
            (
                &["--nightly", "--smoke"],
                &both,
                "--smoke and --nightly are mutually exclusive",
            ),
            (&["--nightly"], &[Tier::Smoke], "unknown flag --nightly"),
            (&["--smoke"], &[], "unknown flag --smoke"),
            (&["--scale", "big"], &both, "--scale: cannot parse 'big'"),
        ];
        for (args, tiers, want) in cases {
            assert_eq!(
                parse(args, tiers),
                Err(UsageError(want.to_string())),
                "{args:?}"
            );
        }
    }

    #[test]
    fn partial_runs_never_shadow_a_committed_artifact() {
        let args = |tier, out: Option<&str>| BenchArgs {
            tier,
            threads: 1,
            out: out.map(str::to_string),
        };
        let full = args(Tier::Default, None);
        assert_eq!(
            full.out_path("BENCH_faults.json", None),
            "BENCH_faults.json"
        );
        assert_eq!(
            args(Tier::Smoke, None).out_path("BENCH_scenarios.json", None),
            "BENCH_scenarios.smoke.json"
        );
        assert_eq!(
            args(Tier::Nightly, None).out_path("BENCH_scenarios.json", None),
            "BENCH_scenarios.smoke.json"
        );
        assert_eq!(
            args(Tier::Smoke, Some("/tmp/gate.json")).out_path("BENCH_load.json", None),
            "/tmp/gate.json"
        );
        assert_eq!(
            full.out_path("BENCH_precompute.json", Some("non-default problem size")),
            "BENCH_precompute.smoke.json"
        );
        // The socket transport's own artifact gets the same guard.
        assert_eq!(full.out_path("BENCH_serve.json", None), "BENCH_serve.json");
        assert_eq!(
            args(Tier::Smoke, None).out_path("BENCH_serve.json", None),
            "BENCH_serve.smoke.json"
        );
        assert_eq!(columns_partial(&[1, 2, 3], &[1, 2, 3]), None);
        assert_eq!(
            columns_partial(&[1, 2], &[1, 2, 3]),
            Some("--methods-restricted")
        );
        assert_eq!(
            columns_partial(&[2, 1, 3], &[1, 2, 3]),
            Some("--methods-restricted")
        );
    }

    /// A report of `cells` cells whose deterministic JSON depends on the
    /// worker count when `diverges`.
    #[derive(Debug)]
    struct Fake {
        cells: usize,
        exact: bool,
        threads: usize,
        diverges: bool,
    }

    impl Certified for Fake {
        fn deterministic_json(&self) -> String {
            let t = if self.diverges { self.threads } else { 0 };
            format!("[{} {}]", self.cells, t)
        }
        fn artifact_json(&self) -> String {
            self.deterministic_json()
        }
        fn cells(&self) -> usize {
            self.cells
        }
        fn verdict(&self) -> Result<(), String> {
            if self.exact {
                Ok(())
            } else {
                Err("FAKE FAILURE".into())
            }
        }
    }

    fn fake(cells: usize, exact: bool, diverges: bool) -> impl FnMut(usize) -> Fake {
        move |threads| Fake {
            cells,
            exact,
            threads,
            diverges,
        }
    }

    #[test]
    fn certify_reruns_serially_only_with_several_workers() {
        let mut runs = Vec::new();
        let mut run = |t| {
            runs.push(t);
            fake(2, true, false)(t)
        };
        let c = certify(4, &mut run).unwrap();
        assert!(c.bit_identical);
        assert_eq!(c.digest, fnv1a64(b"[2 0]"));
        assert_eq!(c.digest, c.report.digest());
        certify(1, &mut run).unwrap();
        assert_eq!(runs, [4, 1, 1]);
        assert!(!certify(4, fake(2, true, true)).unwrap().bit_identical);
    }

    #[test]
    fn zero_cell_runs_do_not_certify() {
        let err = certify(1, fake(0, true, false)).unwrap_err();
        assert_eq!(
            err,
            UsageError("the selected columns produce no cells".into())
        );
    }

    #[test]
    fn failed_verdicts_exit_1_with_the_artifact_written() {
        let dir = std::env::temp_dir().join(format!("spair-certify-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("fake.json");
        let out = out.to_str().unwrap();
        let c = certify(1, fake(3, false, false)).unwrap();
        let json = Envelope::new("fake")
            .field("cells", c.report.cells())
            .certificate(c.digest, c.bit_identical, 1)
            .secs("secs", 0.5)
            .field("matrix", c.report.artifact_json())
            .finish();
        assert_eq!(publish(out, &json, c.report.verdict(), c.bit_identical), 1);
        assert_eq!(std::fs::read_to_string(out).unwrap(), json);
        assert!(
            json.starts_with("{\n  \"benchmark\": \"fake\",\n  \"cells\": 3,\n  \"digest\": \"")
        );
        assert!(json.ends_with(",\n  \"secs\": 0.500000,\n  \"matrix\": [3 0]\n}\n"));
        assert_eq!(publish(out, &json, Ok(()), false), 1);
        assert_eq!(publish(out, &json, Ok(()), true), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
