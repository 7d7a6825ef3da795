//! The workload-scenario DSL: declarative serving scenarios compiled into
//! deterministic multi-cluster job streams.
//!
//! The experiment runners and the integration tests all need the same
//! handful of workload shapes — drift ramps, flash crowds, tenants arriving
//! and churning, adversarial floods of never-seen signatures, cold-start
//! storms — and hand-assembling them from
//! [`generate_cluster_workload`] calls scatters the shape of each experiment
//! across imperative setup code.  A scenario *suite* states the shape
//! declaratively instead:
//!
//! ```text
//! # comments run to end of line
//! suite fleet_stress days=3 seed=77        # header: name, horizon, seed
//! cluster c0 scale=small                   # declare clusters...
//! cluster c1 scale=paper adhoc=0.2         # ...overriding generator knobs
//! drift c0 from=1 rate=1.25                # input sizes ramp from day 1
//! flash c1 day=1 mult=3                    # day-1 recurring jobs arrive 3x
//! churn c1 arrive=1 depart=3               # tenant exists on days 1..3 only
//! flood c0 day=2 count=24                  # 24 never-seen-signature jobs
//! coldstart c9 day=2 count=16              # brand-new tenant, no history
//! ```
//!
//! [`ScenarioSuite::parse`] rejects malformed input with span-exact
//! [`CleoError::Parse`] errors (1-based line, byte span of the offending
//! token), in the same vocabulary as the telemetry and snapshot codecs.
//! [`ScenarioSuite::compile`] expands the directives into per-cluster
//! [`GeneratedWorkload`]s.  Compilation is **deterministic in everything but
//! wall-clock**: every job is derived from the suite seed through
//! [`cleo_common::rng::DetRng`] streams keyed by (cluster, directive index),
//! and per-cluster expansion is embarrassingly parallel, so compiling with 1
//! thread or N produces bit-identical job streams — the scenario determinism
//! tests pin exactly that.

use cleo_common::concurrency::par_map;
use cleo_common::{CleoError, Result};
use cleo_engine::types::{ClusterId, DayIndex, JobId};
use cleo_engine::workload::generator::{
    generate_cluster_workload, interleave_jobs, ClusterConfig, GeneratedWorkload, WorkloadProfile,
};
use cleo_engine::workload::JobSpec;

// ---------------------------------------------------------------------------
// Suite model
// ---------------------------------------------------------------------------

/// One cluster declaration: the generator config plus whether the cluster has
/// any base history (`coldstart`-only clusters start empty).
#[derive(Debug, Clone)]
struct ClusterDecl {
    config: ClusterConfig,
    /// `true` for clusters auto-declared by `coldstart`: no base workload is
    /// generated, the cluster's only jobs come from its directives.
    cold: bool,
}

/// What a directive does to its cluster's workload.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DirectiveKind {
    /// Ramp every input table by `rate^(day - from + 1)` from `from` onward.
    Drift { from: u32, rate: f64 },
    /// Multiply day `day`'s recurring arrivals by `mult` (clones with fresh
    /// deterministic ids — same templates, same plans, heavier load).
    Flash { day: u32, mult: u64 },
    /// Tenant lifetime: keep only jobs with `arrive <= day < depart`.
    Churn { arrive: u32, depart: u32 },
    /// Inject `count` ad-hoc jobs with never-seen signatures on `day`.
    Flood { day: u32, count: usize },
    /// Like `flood`, but on a cluster with no history at all.
    ColdStart { day: u32, count: usize },
}

/// A parsed directive: target cluster, suite-order index (seeds and synthetic
/// job ids are keyed on it), and the operation.
#[derive(Debug, Clone, Copy)]
struct Directive {
    cluster: ClusterId,
    index: usize,
    kind: DirectiveKind,
}

/// A parsed scenario suite: header plus cluster declarations plus directives,
/// ready to [`compile`](ScenarioSuite::compile).
#[derive(Debug, Clone)]
pub struct ScenarioSuite {
    /// Suite name from the header line.
    pub name: String,
    /// Master seed: every cluster and directive RNG stream derives from it.
    pub seed: u64,
    /// Horizon in days; every directive day must fall inside it.
    pub days: u32,
    clusters: Vec<ClusterDecl>,
    directives: Vec<Directive>,
}

/// A compiled suite: one expanded workload per declared cluster, in cluster
/// order.
#[derive(Debug, Clone)]
pub struct CompiledSuite {
    /// Suite name (from the header).
    pub name: String,
    /// The suite seed the expansion derived from.
    pub seed: u64,
    /// The suite horizon.
    pub days: u32,
    /// Expanded per-cluster workloads, sorted by cluster id.
    pub workloads: Vec<GeneratedWorkload>,
}

impl CompiledSuite {
    /// The fleet-wide serving stream: all clusters' jobs interleaved in
    /// (day, cluster, id) order — a pure function of the workloads, identical
    /// for any compile thread count.
    pub fn stream(&self) -> Vec<&JobSpec> {
        interleave_jobs(&self.workloads)
    }

    /// Total jobs across all clusters.
    pub fn total_jobs(&self) -> usize {
        self.workloads.iter().map(|w| w.jobs.len()).sum()
    }

    /// One cluster's expanded workload.
    pub fn workload(&self, cluster: ClusterId) -> Option<&GeneratedWorkload> {
        self.workloads.iter().find(|w| w.cluster == cluster)
    }

    /// The declared clusters, in order.
    pub fn clusters(&self) -> Vec<ClusterId> {
        self.workloads.iter().map(|w| w.cluster).collect()
    }

    /// Workload profiles for the router's similarity-ordered fallback chains.
    pub fn profiles(&self) -> Vec<WorkloadProfile> {
        self.workloads.iter().map(WorkloadProfile::of).collect()
    }
}

/// Parse and compile in one step.
pub fn compile_str(src: &str, threads: usize) -> Result<CompiledSuite> {
    Ok(ScenarioSuite::parse(src)?.compile(threads))
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// One whitespace-delimited token with its byte span in the line.
struct Tok<'a> {
    text: &'a str,
    start: usize,
    end: usize,
}

fn tokenize(line: &str) -> Vec<Tok<'_>> {
    let mut toks = Vec::new();
    let mut start = None;
    for (i, ch) in line.char_indices() {
        if ch.is_ascii_whitespace() {
            if let Some(s) = start.take() {
                toks.push(Tok {
                    text: &line[s..i],
                    start: s,
                    end: i,
                });
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        toks.push(Tok {
            text: &line[s..],
            start: s,
            end: line.len(),
        });
    }
    toks
}

fn err_at<T>(line: usize, tok: &Tok<'_>, msg: impl Into<String>) -> Result<T> {
    Err(CleoError::parse_at(line, tok.start, tok.end, msg))
}

/// Split a `key=value` token; the returned value token spans only the value.
fn split_kv<'a>(line: usize, tok: &Tok<'a>) -> Result<(&'a str, Tok<'a>)> {
    match tok.text.split_once('=') {
        Some((k, v)) if !k.is_empty() && !v.is_empty() => Ok((
            k,
            Tok {
                text: v,
                start: tok.start + k.len() + 1,
                end: tok.end,
            },
        )),
        _ => err_at(line, tok, format!("expected key=value, got `{}`", tok.text)),
    }
}

fn parse_num<T: std::str::FromStr>(line: usize, v: &Tok<'_>, what: &str) -> Result<T> {
    v.text.parse().map_err(|_| {
        CleoError::parse_at(line, v.start, v.end, format!("invalid {what} `{}`", v.text))
    })
}

fn parse_cluster_id(line: usize, tok: &Tok<'_>) -> Result<ClusterId> {
    match tok
        .text
        .strip_prefix('c')
        .and_then(|d| d.parse::<u8>().ok())
    {
        Some(n) => Ok(ClusterId(n)),
        None => err_at(
            line,
            tok,
            format!("expected cluster `c<0-255>`, got `{}`", tok.text),
        ),
    }
}

/// Derive a bounded per-cluster/per-directive seed from the suite seed
/// (SplitMix64 finalizer).  The result is capped at 30 bits so generator job
/// ids (`seed << 20`) never collide with the synthetic-job id range.
fn derive_seed(suite_seed: u64, salt: u64) -> u64 {
    let mut z = suite_seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0x3FFF_FFFF
}

/// Id base for jobs a directive synthesizes (flash clones, flood/coldstart
/// bursts): bit 56 keeps the range disjoint from generator ids, the directive
/// index keeps ranges disjoint from each other.
fn synthetic_id_base(directive_index: usize) -> u64 {
    (1u64 << 56) | ((directive_index as u64) << 32)
}

impl ScenarioSuite {
    /// Parse a suite from DSL source.  Errors are span-exact: `line` is the
    /// 1-based source line, `start..end` the byte span of the bad token.
    pub fn parse(src: &str) -> Result<ScenarioSuite> {
        let mut suite: Option<ScenarioSuite> = None;
        for (idx, raw) in src.lines().enumerate() {
            let ln = idx + 1;
            // Comments run to end of line.
            let line = match raw.find('#') {
                Some(at) => &raw[..at],
                None => raw,
            };
            let toks = tokenize(line);
            let Some(verb) = toks.first() else { continue };
            match (verb.text, &mut suite) {
                ("suite", Some(_)) => {
                    return err_at(ln, verb, "duplicate suite header");
                }
                ("suite", slot @ None) => {
                    *slot = Some(Self::parse_header(ln, &toks)?);
                }
                (_, None) => {
                    return err_at(
                        ln,
                        verb,
                        "expected `suite <name> days=<n> [seed=<n>]` first",
                    );
                }
                ("cluster", Some(suite)) => suite.parse_cluster(ln, &toks)?,
                ("drift" | "flash" | "churn" | "flood" | "coldstart", Some(suite)) => {
                    suite.parse_directive(ln, &toks)?
                }
                (other, Some(_)) => {
                    return err_at(ln, verb, format!("unknown directive `{other}`"));
                }
            }
        }
        suite.ok_or_else(|| CleoError::parse_at(1, 0, 1, "empty scenario: no `suite` header found"))
    }

    fn parse_header(ln: usize, toks: &[Tok<'_>]) -> Result<ScenarioSuite> {
        let name = match toks.get(1) {
            Some(t) if !t.text.contains('=') => t.text.to_string(),
            _ => return err_at(ln, &toks[0], "suite header needs a name"),
        };
        let mut days: Option<u32> = None;
        let mut seed: u64 = 0;
        for tok in &toks[2..] {
            let (key, value) = split_kv(ln, tok)?;
            match key {
                "days" => days = Some(parse_num(ln, &value, "day count")?),
                "seed" => seed = parse_num(ln, &value, "seed")?,
                _ => return err_at(ln, tok, format!("unknown suite key `{key}`")),
            }
        }
        let days = match days {
            Some(d) if d >= 1 => d,
            Some(_) => return err_at(ln, &toks[0], "suite needs days >= 1"),
            None => return err_at(ln, &toks[0], "suite header needs days=<n>"),
        };
        Ok(ScenarioSuite {
            name,
            seed,
            days,
            clusters: Vec::new(),
            directives: Vec::new(),
        })
    }

    fn parse_cluster(&mut self, ln: usize, toks: &[Tok<'_>]) -> Result<()> {
        let Some(id_tok) = toks.get(1) else {
            return err_at(ln, &toks[0], "cluster needs an id: `cluster c<n> ...`");
        };
        let cluster = parse_cluster_id(ln, id_tok)?;
        if self.clusters.iter().any(|d| d.config.cluster == cluster) {
            return err_at(ln, id_tok, format!("cluster c{} declared twice", cluster.0));
        }
        let mut config = ClusterConfig::small(cluster);
        config.seed = derive_seed(self.seed, 0xC1 + cluster.0 as u64);
        for tok in &toks[2..] {
            let (key, value) = split_kv(ln, tok)?;
            match key {
                "scale" => match value.text {
                    "small" => {
                        let seed = config.seed;
                        config = ClusterConfig::small(cluster);
                        config.seed = seed;
                    }
                    "paper" => {
                        let seed = config.seed;
                        config = ClusterConfig::paper_like(cluster);
                        config.seed = seed;
                    }
                    other => {
                        return err_at(ln, &value, format!("unknown scale `{other}`"));
                    }
                },
                "tables" => config.n_tables = parse_num(ln, &value, "table count")?,
                "families" => config.n_families = parse_num(ln, &value, "family count")?,
                "templates" => {
                    config.templates_per_family = parse_num(ln, &value, "template count")?
                }
                "instances" => {
                    let n: usize = parse_num(ln, &value, "instance count")?;
                    config.instances_per_day = (n, n);
                }
                "adhoc" => {
                    let f: f64 = parse_num(ln, &value, "ad-hoc fraction")?;
                    if !(0.0..=0.9).contains(&f) {
                        return err_at(ln, &value, "ad-hoc fraction must be in [0, 0.9]");
                    }
                    config.adhoc_fraction = f;
                }
                "growth" => {
                    let g: f64 = parse_num(ln, &value, "growth rate")?;
                    if g <= 0.0 {
                        return err_at(ln, &value, "growth rate must be positive");
                    }
                    config.daily_growth = g;
                }
                "seed" => config.seed = parse_num(ln, &value, "seed")?,
                _ => return err_at(ln, tok, format!("unknown cluster key `{key}`")),
            }
        }
        self.clusters.push(ClusterDecl {
            config,
            cold: false,
        });
        Ok(())
    }

    fn parse_directive(&mut self, ln: usize, toks: &[Tok<'_>]) -> Result<()> {
        let verb = &toks[0];
        let Some(id_tok) = toks.get(1) else {
            return err_at(
                ln,
                verb,
                format!("{} needs a cluster: `{} c<n> ...`", verb.text, verb.text),
            );
        };
        let cluster = parse_cluster_id(ln, id_tok)?;
        let declared = self.clusters.iter().any(|d| d.config.cluster == cluster);
        if !declared {
            if verb.text == "coldstart" {
                // A cold-start tenant by definition has no declared history.
                let mut config = ClusterConfig::small(cluster);
                config.seed = derive_seed(self.seed, 0xC1 + cluster.0 as u64);
                self.clusters.push(ClusterDecl { config, cold: true });
                self.clusters.sort_by_key(|d| d.config.cluster);
            } else {
                return err_at(
                    ln,
                    id_tok,
                    format!("cluster c{} is not declared", cluster.0),
                );
            }
        }

        // Collect key=value pairs, then check each verb's required set.
        let mut day: Option<(u32, usize)> = None; // value + token index for span
        let mut from: Option<u32> = None;
        let mut rate: Option<f64> = None;
        let mut mult: Option<u64> = None;
        let mut arrive: Option<u32> = None;
        let mut depart: Option<u32> = None;
        let mut count: Option<usize> = None;
        for (i, tok) in toks.iter().enumerate().skip(2) {
            let (key, value) = split_kv(ln, tok)?;
            match key {
                "day" => day = Some((parse_num(ln, &value, "day")?, i)),
                "from" => from = Some(parse_num(ln, &value, "day")?),
                "rate" => rate = Some(parse_num(ln, &value, "rate")?),
                "mult" => mult = Some(parse_num(ln, &value, "multiplier")?),
                "arrive" => arrive = Some(parse_num(ln, &value, "day")?),
                "depart" => depart = Some(parse_num(ln, &value, "day")?),
                "count" => count = Some(parse_num(ln, &value, "count")?),
                _ => {
                    return err_at(ln, tok, format!("unknown {} key `{key}`", verb.text));
                }
            }
        }
        let need = |ln: usize, field: Option<(u32, usize)>, what: &str| -> Result<u32> {
            match field {
                Some((v, _)) => Ok(v),
                None => err_at(ln, verb, format!("{} needs {what}", verb.text)),
            }
        };
        let in_horizon = |ln: usize, d: u32, ti: usize| -> Result<u32> {
            if d >= self.days {
                err_at(
                    ln,
                    &toks[ti],
                    format!("day {d} outside suite horizon of {} days", self.days),
                )
            } else {
                Ok(d)
            }
        };
        let kind = match verb.text {
            "drift" => {
                let from = need(ln, from.map(|v| (v, 0)), "from=<day>")?;
                let rate = match rate {
                    Some(r) if r > 0.0 => r,
                    Some(_) => return err_at(ln, verb, "drift rate must be positive"),
                    None => return err_at(ln, verb, "drift needs rate=<factor>"),
                };
                DirectiveKind::Drift { from, rate }
            }
            "flash" => {
                let (d, ti) = match day {
                    Some(v) => v,
                    None => return err_at(ln, verb, "flash needs day=<day>"),
                };
                let day = in_horizon(ln, d, ti)?;
                let mult = match mult {
                    Some(m) if m >= 1 => m,
                    Some(_) => return err_at(ln, verb, "flash mult must be >= 1"),
                    None => return err_at(ln, verb, "flash needs mult=<n>"),
                };
                DirectiveKind::Flash { day, mult }
            }
            "churn" => {
                let arrive = need(ln, arrive.map(|v| (v, 0)), "arrive=<day>")?;
                let depart = need(ln, depart.map(|v| (v, 0)), "depart=<day>")?;
                if depart <= arrive {
                    return err_at(ln, verb, "churn depart must be after arrive");
                }
                DirectiveKind::Churn { arrive, depart }
            }
            "flood" | "coldstart" => {
                let (d, ti) = match day {
                    Some(v) => v,
                    None => return err_at(ln, verb, format!("{} needs day=<day>", verb.text)),
                };
                let day = in_horizon(ln, d, ti)?;
                let count = match count {
                    Some(c) if c >= 1 => c,
                    Some(_) => {
                        return err_at(ln, verb, format!("{} count must be >= 1", verb.text))
                    }
                    None => return err_at(ln, verb, format!("{} needs count=<n>", verb.text)),
                };
                if verb.text == "flood" {
                    DirectiveKind::Flood { day, count }
                } else {
                    DirectiveKind::ColdStart { day, count }
                }
            }
            _ => unreachable!("verb filtered by caller"),
        };
        self.directives.push(Directive {
            cluster,
            index: self.directives.len(),
            kind,
        });
        Ok(())
    }

    /// The declared clusters, in cluster order.
    pub fn clusters(&self) -> Vec<ClusterId> {
        let mut ids: Vec<ClusterId> = self.clusters.iter().map(|d| d.config.cluster).collect();
        ids.sort_unstable();
        ids
    }

    /// Number of parsed directives.
    pub fn directive_count(&self) -> usize {
        self.directives.len()
    }

    /// Expand the suite into per-cluster workloads on up to `threads`
    /// worker threads ([`par_map`]; `0` = every core).  Each cluster's
    /// expansion is a pure function of (suite seed, declaration, its
    /// directives), so the output is bit-identical for every thread count —
    /// only wall-clock changes.
    pub fn compile(&self, threads: usize) -> CompiledSuite {
        let mut decls: Vec<&ClusterDecl> = self.clusters.iter().collect();
        decls.sort_by_key(|d| d.config.cluster);
        CompiledSuite {
            name: self.name.clone(),
            seed: self.seed,
            days: self.days,
            workloads: par_map(decls, threads, || (), |_, decl| self.build_cluster(decl)),
        }
    }

    /// Expand one cluster: base workload, then its directives in suite order.
    fn build_cluster(&self, decl: &ClusterDecl) -> GeneratedWorkload {
        let base_days = if decl.cold { 0 } else { self.days };
        let mut workload = generate_cluster_workload(&decl.config, base_days);
        for directive in self
            .directives
            .iter()
            .filter(|d| d.cluster == decl.config.cluster)
        {
            match directive.kind {
                DirectiveKind::Drift { from, rate } => apply_drift(&mut workload, from, rate),
                DirectiveKind::Flash { day, mult } => {
                    apply_flash(&mut workload, day, mult, synthetic_id_base(directive.index))
                }
                DirectiveKind::Churn { arrive, depart } => workload
                    .jobs
                    .retain(|j| j.meta.day.0 >= arrive && j.meta.day.0 < depart),
                DirectiveKind::Flood { day, count } => {
                    let burst = synthetic_burst(
                        decl.config.cluster,
                        day,
                        count,
                        derive_seed(self.seed, 0xF100D + directive.index as u64),
                        synthetic_id_base(directive.index),
                        "flood",
                    );
                    workload.jobs.extend(burst);
                }
                DirectiveKind::ColdStart { day, count } => {
                    let burst = synthetic_burst(
                        decl.config.cluster,
                        day,
                        count,
                        derive_seed(self.seed, 0xC01D + directive.index as u64),
                        synthetic_id_base(directive.index),
                        "coldstart",
                    );
                    workload.jobs.extend(burst);
                }
            }
        }
        // Stable sort restores the by-day invariant without reordering a
        // day's submission sequence (originals first, then directive jobs in
        // suite order).
        workload.jobs.sort_by_key(|j| j.meta.day);
        workload
    }
}

// ---------------------------------------------------------------------------
// Directive expansion
// ---------------------------------------------------------------------------

/// Ramp every input table by `rate^(day - from + 1)` for days >= `from`, on
/// top of whatever drift the generator already applied.
fn apply_drift(workload: &mut GeneratedWorkload, from: u32, rate: f64) {
    for job in &mut workload.jobs {
        let day = job.meta.day.0;
        if day < from {
            continue;
        }
        let factor = rate.powi((day - from + 1) as i32);
        let names: Vec<String> = job.catalog.table_names().map(|s| s.to_string()).collect();
        for name in &names {
            job.catalog = job
                .catalog
                .with_scaled_table(name, factor)
                .expect("table exists in its own catalog");
        }
    }
}

/// Clone day `day`'s recurring jobs `mult - 1` extra times with fresh
/// deterministic ids: the same templates hit the serving tier at a multiple
/// of their usual arrival rate.
fn apply_flash(workload: &mut GeneratedWorkload, day: u32, mult: u64, id_base: u64) {
    let mut clones = Vec::new();
    let mut next = 0u64;
    for job in workload
        .jobs
        .iter()
        .filter(|j| j.meta.day.0 == day && j.meta.recurring)
    {
        for copy in 1..mult {
            let mut clone = job.clone();
            clone.meta.id = JobId(id_base + next);
            next += 1;
            clone.meta.name = format!("{}_flash{copy}", clone.meta.name);
            clones.push(clone);
        }
    }
    workload.jobs.extend(clones);
}

/// Generate `count` ad-hoc jobs with signatures unseen anywhere else in the
/// suite: a scratch single-template workload under a burst-unique seed is
/// generated, its ad-hoc jobs are restamped onto the target cluster and day.
fn synthetic_burst(
    cluster: ClusterId,
    day: u32,
    count: usize,
    seed: u64,
    id_base: u64,
    tag: &str,
) -> Vec<JobSpec> {
    let config = ClusterConfig {
        cluster,
        n_tables: 10,
        n_families: 1,
        templates_per_family: 1,
        // One recurring instance, ad-hoc fraction count/(count+1): the
        // generator's ad-hoc target count comes out to exactly `count`.
        instances_per_day: (1, 1),
        adhoc_fraction: count as f64 / (count as f64 + 1.0),
        daily_growth: 1.0,
        seed,
    };
    let scratch = generate_cluster_workload(&config, 1);
    let mut burst: Vec<JobSpec> = scratch
        .jobs
        .into_iter()
        .filter(|j| !j.meta.recurring)
        .take(count)
        .collect();
    for (i, job) in burst.iter_mut().enumerate() {
        job.meta.id = JobId(id_base + i as u64);
        job.meta.day = DayIndex(day);
        job.meta.name = format!("{tag}_c{}_d{day}_{i}", cluster.0);
    }
    burst
}

// ---------------------------------------------------------------------------
// Canned suites
// ---------------------------------------------------------------------------

/// Ready-made suites shared by the experiment runners and the integration
/// tests.
pub mod suites {
    /// Fleet stress: four tenants exercising every directive — a drift ramp,
    /// a flash crowd, a churning tenant, an adversarial signature flood, and
    /// a cold-start tenant with no history.
    pub const FLEET_STRESS: &str = "\
# Fleet stress: every directive over a 3-day horizon.
suite fleet_stress days=3 seed=77
cluster c0 scale=small
cluster c1 scale=small adhoc=0.2
cluster c2 scale=small tables=8 families=4
cluster c3 scale=small families=3
drift c0 from=1 rate=1.25
flash c1 day=1 mult=3
churn c3 arrive=1 depart=3
flood c2 day=2 count=24
coldstart c9 day=2 count=16
";

    /// Cold-start storm: one warm donor cluster plus three tenants that
    /// appear out of nowhere — the router's fallback chains do all the work.
    pub const COLD_START_STORM: &str = "\
# Cold-start storm: one warm donor, three historyless tenants.
suite cold_start_storm days=2 seed=41
cluster c0 scale=small
coldstart c5 day=0 count=12
coldstart c6 day=1 count=12
coldstart c7 day=1 count=20
";

    /// Drift ramp: steady input growth on both tenants, with a late flash
    /// crowd — the shape behind the drift-eviction experiments.
    pub const DRIFT_RAMP: &str = "\
# Drift ramp: compounding input growth plus a late flash crowd.
suite drift_ramp days=4 seed=13
cluster c0 scale=small growth=1.01
cluster c1 scale=small tables=8
drift c0 from=1 rate=1.35
drift c1 from=2 rate=1.2
flash c0 day=3 mult=2
";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_errors_are_span_exact() {
        // Unknown verb, with the exact token span.
        let src = "suite s days=2\ncluster c0\nwobble c0 day=1\n";
        let err = ScenarioSuite::parse(src).unwrap_err();
        assert_eq!(err.parse_span(), Some((3, 0, 6)));
        assert!(
            err.to_string().contains("unknown directive `wobble`"),
            "{err}"
        );

        // Bad value: span covers only the value, not the key.
        let src = "suite s days=2\ncluster c0 adhoc=nope\n";
        let err = ScenarioSuite::parse(src).unwrap_err();
        assert_eq!(err.parse_span(), Some((2, 17, 21)));

        // Day outside the horizon.
        let src = "suite s days=2\ncluster c0\nflood c0 day=5 count=3\n";
        let err = ScenarioSuite::parse(src).unwrap_err();
        let (line, _, _) = err.parse_span().unwrap();
        assert_eq!(line, 3);
        assert!(err.to_string().contains("outside suite horizon"), "{err}");

        // Undeclared cluster (non-coldstart).
        let src = "suite s days=2\nflash c4 day=0 mult=2\n";
        let err = ScenarioSuite::parse(src).unwrap_err();
        assert!(err.to_string().contains("not declared"), "{err}");
    }

    #[test]
    fn directives_shape_the_workload() {
        let src = "\
suite shapes days=2 seed=9
cluster c0 scale=small
cluster c1 scale=small
flash c0 day=1 mult=3
churn c1 arrive=1 depart=2
flood c0 day=0 count=7
coldstart c8 day=1 count=5
";
        let suite = ScenarioSuite::parse(src).unwrap();
        assert_eq!(suite.directive_count(), 4);
        let compiled = suite.compile(1);
        assert_eq!(
            compiled.clusters(),
            vec![ClusterId(0), ClusterId(1), ClusterId(8)]
        );

        let c0 = compiled.workload(ClusterId(0)).unwrap();
        // Flash: day-1 recurring arrivals tripled.
        let baseline = generate_cluster_workload(
            &{
                let mut cfg = ClusterConfig::small(ClusterId(0));
                cfg.seed = c0.jobs[0].meta.id.0 >> 20; // generator ids are seed << 20
                cfg
            },
            2,
        );
        assert_eq!(
            c0.recurring_count(DayIndex(1)),
            3 * baseline.recurring_count(DayIndex(1))
        );
        // Flood: day 0 gained exactly 7 extra ad-hoc jobs.
        assert_eq!(
            c0.adhoc_count(DayIndex(0)),
            baseline.adhoc_count(DayIndex(0)) + 7
        );

        // Churn: cluster 1 exists only on day 1.
        let c1 = compiled.workload(ClusterId(1)).unwrap();
        assert!(c1.jobs.iter().all(|j| j.meta.day == DayIndex(1)));
        assert!(!c1.jobs.is_empty());

        // Cold start: cluster 8 has exactly the burst, nothing else.
        let c8 = compiled.workload(ClusterId(8)).unwrap();
        assert_eq!(c8.jobs.len(), 5);
        assert!(c8.jobs.iter().all(|j| !j.meta.recurring));

        // Job ids are unique across the whole stream.
        let stream = compiled.stream();
        let ids: std::collections::HashSet<u64> = stream.iter().map(|j| j.meta.id.0).collect();
        assert_eq!(ids.len(), stream.len());
    }

    #[test]
    fn compile_is_thread_count_invariant() {
        for src in [
            suites::FLEET_STRESS,
            suites::COLD_START_STORM,
            suites::DRIFT_RAMP,
        ] {
            let suite = ScenarioSuite::parse(src).unwrap();
            let one = suite.compile(1);
            let many = suite.compile(4);
            assert_eq!(one.workloads.len(), many.workloads.len());
            for (a, b) in one.workloads.iter().zip(&many.workloads) {
                assert_eq!(
                    a, b,
                    "cluster c{} diverged across thread counts",
                    a.cluster.0
                );
            }
        }
    }

    #[test]
    fn drift_ramps_input_sizes() {
        let src = "\
suite d days=2 seed=3
cluster c0 scale=small growth=1.0
drift c0 from=1 rate=2.0
";
        let with = compile_str(src, 1).unwrap();
        let without = compile_str(
            "suite d days=2 seed=3\ncluster c0 scale=small growth=1.0\n",
            1,
        )
        .unwrap();
        let rows = |suite: &CompiledSuite, day: u32| -> f64 {
            let w = suite.workload(ClusterId(0)).unwrap();
            let job = w.jobs.iter().find(|j| j.meta.day.0 == day).unwrap();
            job.catalog.table("dataset_000").unwrap().row_count
        };
        // Day 0 untouched; day 1 doubled relative to the undrifted suite.
        assert_eq!(rows(&with, 0), rows(&without, 0));
        let ratio = rows(&with, 1) / rows(&without, 1);
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
    }
}
