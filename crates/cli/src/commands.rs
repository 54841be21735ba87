//! The `netmaster` CLI subcommands.

use crate::args::Args;
use netmaster_core::policies::{
    BatchPolicy, DefaultPolicy, DelayPolicy, NetMasterPolicy, OraclePolicy,
};
use netmaster_core::NetMasterConfig;
use netmaster_mining::{
    cross_day_matrix, habit_stability, predict_active_slots, prediction_accuracy, HourlyHistory,
    PredictionConfig, SpecialApps,
};
use netmaster_radio::{LinkModel, RrcConfig, RrcModel};
use netmaster_sim::{simulate, Policy, RunMetrics, SimConfig};
use netmaster_trace::gen::TraceGenerator;
use netmaster_trace::profile::UserProfile;
use netmaster_trace::profiling::{screen_on_utilization, traffic_split};
use netmaster_trace::time::DayKind;
use netmaster_trace::trace::Trace;
use std::fs;
use std::io::Write;

/// Top-level usage text.
pub const USAGE: &str = "\
netmaster — habit-driven scheduling of smartphone network activity (ICPP 2014 reproduction)

USAGE:
  netmaster <command> [args] [options]

COMMANDS:
  generate                Generate a synthetic habit-driven trace to JSON
      --profile NAME        chronotype: panel1..panel8 | volunteer1..volunteer3 (default panel4)
      --days N              days to generate (default 21)
      --seed N              RNG seed (default 2014)
      --out FILE            output path (default trace.json); `-` for stdout
  profile <trace.json>    Habit & traffic statistics of a trace
      --url URL             pull a CPU profile from a live server's /profile instead
      --secs N              sampling window for --url (default 0 = since start, max 60)
      --fmt FORMAT          folded (flamegraph-ready) | json (default folded)
      --out FILE            write the profile to FILE instead of stdout
      --timeout-secs X      connect/read timeout for --url requests (default 10)
  predict <trace.json>    Predict user active slots from a trace
      --delta X             uniform threshold δ (default: 0.2 weekday / 0.1 weekend)
      --train N             training days (default all but the last 7)
  simulate <trace.json>   Replay a trace under one policy
      --policy NAME         default | oracle | netmaster | delay-<secs> | batch-<n>
      --train N             NetMaster training days (default 14)
      --radio TECH          wcdma | lte (default wcdma)
      --json                machine-readable metrics
  compare <trace.json>    Replay under every policy and print a table
      --train N             NetMaster training days (default 14)
      --radio TECH          wcdma | lte
  devourers <trace.json>  Rank apps by attributed radio energy (eprof-style)
      --top N               rows to print (default 10)
      --radio TECH          wcdma | lte
  anonymize <trace.json>  Strip app names from a trace
      --out FILE            output path (default anon.json)
  filter <trace.json>     Keep only some apps' traffic
      --apps LIST           comma-separated app names to keep (required)
      --out FILE            output path (default filtered.json)
  fleet                   Simulate N synthetic users, report the saving distribution
      --users N             fleet size (default 20)
      --seed N              base seed (default 2014)
      --serve               expose live scrape endpoints while the fleet runs
      --addr HOST:PORT      bind address for --serve (default 127.0.0.1:9898)
      --drop-threshold N    /healthz turns 503 past this many ring drops (default 0)
      --registry FILE       append a provenance-stamped result row (JSONL)
      --profile-hz N        sample live span stacks at N Hz, served on /profile
      --traces N            span-tree ring capacity for --serve (default 256)
  serve-obs               Run a telemetry workload and serve it over HTTP
      --addr HOST:PORT      bind address (default 127.0.0.1:9898; port 0 picks one)
      --users N             simulated users (default 3)
      --days N              days per user, most training (default 16)
      --seed N              base seed (default 2014)
      --drop-threshold N    /healthz turns 503 past this many ring drops (default 0)
      --linger-secs N       keep serving N seconds after the workload (default 0)
      --profile-hz N        sample live span stacks at N Hz, served on /profile
      --traces N            span-tree ring capacity (default 256)
  obs                     Run a small simulated fleet and print its telemetry
      --users N             simulated users (default 3)
      --days N              days per user, most training (default 16)
      --seed N              base seed (default 2014)
      --url URL             scrape a live serve-obs endpoint instead of running
      --timeout-secs X      connect/read timeout for --url requests (default 10)
      --json                JSON metrics snapshot instead of the table
      --prom                Prometheus text exposition instead of the table
      --journal FILE        also drain the decision-audit journal to JSONL
  watch                   Watch a simulated fleet for habit drift, report per-user health
      --users N             fleet size (default 8)
      --days N              days per member (default 21)
      --seed N              base seed (default 2014)
      --shift-user I        inject a 12-hour rhythm shift into member I
      --shift-day N         first shifted day (default 2/3 into the run)
      --worst K             worst members detailed in the report (default 3)
      --serve               expose live scrape endpoints while the fleet runs
      --addr HOST:PORT      bind address for --serve (default 127.0.0.1:9898)
      --drop-threshold N    /healthz turns 503 past this many ring drops (default 0)
      --registry FILE       append a provenance-stamped result row (JSONL)
      --profile-hz N        sample live span stacks at N Hz, served on /profile
      --traces N            span-tree ring capacity for --serve (default 256)
      --json                machine-readable fleet health report
      --journal FILE        drain the fleet's decision journals to JSONL
  explain                 Reconstruct causal chains and energy bills from the flight recorder
      --users N             simulated users (default 2)
      --days N              days per user, most training (default 16)
      --seed N              base seed (default 2014)
      --user I              only member I
      --day N               only records of day N
      --app ID              only records of numeric app ID
      --activity ID         one activity's full causal chain (trace id, e.g. d14-a3)
      --worst K             worst exemplars listed (default 3)
      --json                machine-readable report
      --ledger FILE         export the (filtered) lifecycle records to JSONL
  lint                    Run the project's static-analysis rules over the workspace
      --root DIR            workspace root (default: walk up from cwd)
      --config FILE         lint.toml (default: <root>/lint.toml)
      --allow RULES         comma-separated rules to skip
      --deny RULES          comma-separated rules to force on
      --index-guard         enable panic-hygiene's slice-index sub-check
      --json                machine-readable report
  timeline <trace.json>   ASCII radio-state strip of one simulated day
      --day N               which day to render (default last)
      --policy NAME         policy to render under (default netmaster)
      --train N             NetMaster training days (default all prior days)
      --radio TECH          wcdma | lte
  help                    This text
";

/// Runs a parsed command, writing human output to `out`. An option the
/// command's block in [`USAGE`] does not list is an error, so a
/// misspelt or removed option never runs with its default.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    if args.flag("help") || matches!(args.command.as_str(), "" | "help") {
        return writeln!(out, "{USAGE}").map_err(io_err);
    }
    type Command = fn(&Args, &mut dyn Write) -> Result<(), String>;
    let command: Command = match args.command.as_str() {
        "generate" => generate,
        "profile" => profile,
        "predict" => predict,
        "simulate" => cmd_simulate,
        "compare" => compare_cmd,
        "timeline" => timeline_cmd,
        "devourers" => devourers_cmd,
        "fleet" => fleet_cmd,
        "serve-obs" => serve_obs_cmd,
        "obs" => obs_cmd,
        "watch" => watch_cmd,
        "explain" => explain_cmd,
        "anonymize" => anonymize_cmd,
        "filter" => filter_cmd,
        "lint" => lint_cmd,
        other => return Err(format!("unknown command {other:?}; try `netmaster help`")),
    };
    let listed = listed_options(&args.command);
    let mut unknown: Vec<&str> = args
        .options
        .keys()
        .map(String::as_str)
        .filter(|key| !listed.contains(key))
        .collect();
    if !unknown.is_empty() {
        unknown.sort_unstable();
        return Err(format!(
            "unknown option --{} for `{}`; try `netmaster help`",
            unknown.join(", --"),
            args.command
        ));
    }
    command(args, out)
}

/// The options `command`'s block in [`USAGE`] lists: the `--key` that
/// starts each of its indented option lines.
fn listed_options(command: &str) -> Vec<&'static str> {
    USAGE
        .lines()
        .skip_while(|line| {
            !(line.starts_with("  ")
                && !line.starts_with("   ")
                && line.split_whitespace().next() == Some(command))
        })
        .skip(1)
        .take_while(|line| line.starts_with("      "))
        .filter_map(|line| line.trim_start().strip_prefix("--"))
        .filter_map(|line| line.split_whitespace().next())
        .collect()
}

fn io_err(e: std::io::Error) -> String {
    format!("io error: {e}")
}

fn profile_by_name(name: &str) -> Result<UserProfile, String> {
    if let Some(n) = name.strip_prefix("panel") {
        let i: usize = n.parse().map_err(|_| format!("bad profile {name:?}"))?;
        if (1..=8).contains(&i) {
            return Ok(UserProfile::panel().remove(i - 1));
        }
    }
    if let Some(n) = name.strip_prefix("volunteer") {
        let i: usize = n.parse().map_err(|_| format!("bad profile {name:?}"))?;
        if (1..=3).contains(&i) {
            return Ok(UserProfile::volunteers().remove(i - 1));
        }
    }
    Err(format!(
        "unknown profile {name:?} (expected panel1..panel8 or volunteer1..volunteer3)"
    ))
}

fn load_trace(args: &Args) -> Result<Trace, String> {
    let path = args
        .positional
        .first()
        .ok_or("expected a trace file argument")?;
    let json = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace =
        netmaster_trace::io::from_json(&json).map_err(|e| format!("bad trace JSON: {e}"))?;
    trace
        .validate()
        .map_err(|e| format!("invalid trace: {e}"))?;
    Ok(trace)
}

fn generate(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let profile = profile_by_name(args.opt("profile", "panel4"))?;
    let days: usize = args.num("days", 21)?;
    let seed: u64 = args.num("seed", 2014)?;
    let label = profile.label.clone();
    let trace = TraceGenerator::new(profile).with_seed(seed).generate(days);
    let json =
        netmaster_trace::io::to_json(&trace).map_err(|e| format!("cannot encode trace: {e}"))?;
    let path = args.opt("out", "trace.json");
    if path == "-" {
        writeln!(out, "{json}").map_err(io_err)?;
    } else {
        fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(
            out,
            "wrote {path}: {label}, {days} days, {} interactions, {} activities",
            trace.all_interactions().count(),
            trace.all_activities().count()
        )
        .map_err(io_err)?;
    }
    Ok(())
}

fn profile(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    if let Some(url) = args.options.get("url") {
        return profile_remote(url, args, out);
    }
    let trace = load_trace(args)?;
    let split = traffic_split(&trace);
    let util = screen_on_utilization(&trace);
    let pearson = cross_day_matrix(&trace, trace.num_days().min(8));
    let special = SpecialApps::from_trace(&trace);
    writeln!(out, "user {} — {} days", trace.user_id, trace.num_days()).map_err(io_err)?;
    writeln!(
        out,
        "activities: {} ({:.1}% screen-off by count, {:.1}% by bytes)",
        split.screen_on_count + split.screen_off_count,
        100.0 * split.screen_off_fraction(),
        100.0 * split.screen_off_byte_fraction()
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "sessions: avg {:.1}s, payload-utilized {:.1}s ({:.0}%)",
        util.avg_session_secs,
        util.avg_utilized_secs,
        100.0 * util.utilization_ratio()
    )
    .map_err(io_err)?;
    writeln!(out, "day-to-day Pearson: {:.3}", pearson.mean_offdiag()).map_err(io_err)?;
    let stability = habit_stability(&HourlyHistory::from_trace(&trace));
    let drift = stability.drift_days(0.3);
    writeln!(
        out,
        "habit stability: {:.3} ({}predictable){}",
        stability.score,
        if stability.is_predictable() {
            ""
        } else {
            "NOT "
        },
        if drift.is_empty() {
            String::new()
        } else {
            format!("; possible habit breaks on days {drift:?}")
        }
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "special apps: {} of {} known",
        special.count(),
        special.known_count()
    )
    .map_err(io_err)?;
    if let Some((app, uses)) = special.dominant() {
        writeln!(
            out,
            "dominant app: {} ({} uses, {:.0}% share)",
            trace.apps.name(app).unwrap_or("?"),
            uses,
            100.0 * special.usage_share(app)
        )
        .map_err(io_err)?;
    }
    Ok(())
}

fn predict(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let trace = load_trace(args)?;
    let train_days: usize = args.num("train", trace.num_days().saturating_sub(7).max(1))?;
    if train_days == 0 || train_days > trace.num_days() {
        return Err(format!(
            "--train {train_days} out of range 1..={}",
            trace.num_days()
        ));
    }
    let cfg = match args.options.get("delta") {
        Some(d) => PredictionConfig::uniform(d.parse().map_err(|_| "bad --delta")?),
        None => PredictionConfig::default(),
    };
    let train = trace.slice_days(0, train_days);
    let history = HourlyHistory::from_trace(&train);
    let pred = predict_active_slots(&history, cfg);
    for kind in [DayKind::Weekday, DayKind::Weekend] {
        let hours = pred.hours(kind);
        let bars: String = (0..24).map(|h| if hours[h] { '#' } else { '.' }).collect();
        writeln!(
            out,
            "{kind:?}: |{bars}| {} active hours, residual risk {:.2}",
            pred.active_hour_count(kind),
            pred.residual_risk(kind)
        )
        .map_err(io_err)?;
    }
    if train_days < trace.num_days() {
        let test = trace.slice_days(train_days, trace.num_days());
        writeln!(
            out,
            "accuracy on the remaining {} days: {:.1}%",
            test.num_days(),
            100.0 * prediction_accuracy(&pred, &test)
        )
        .map_err(io_err)?;
    }
    Ok(())
}

fn radio_config(args: &Args) -> Result<(RrcConfig, RrcModel), String> {
    match args.opt("radio", "wcdma") {
        "wcdma" => Ok((RrcConfig::wcdma(), RrcModel::wcdma_default())),
        "lte" => Ok((RrcConfig::lte(), RrcModel::lte_default())),
        other => Err(format!("unknown radio {other:?} (wcdma|lte)")),
    }
}

/// Builds a policy by CLI name; NetMaster is trained on the head of the
/// trace.
pub fn policy_by_name(
    name: &str,
    trace: &Trace,
    train_days: usize,
    radio: &RrcModel,
) -> Result<Box<dyn Policy + Send>, String> {
    if name == "default" {
        return Ok(Box::new(DefaultPolicy));
    }
    if name == "oracle" {
        return Ok(Box::new(OraclePolicy));
    }
    if name == "netmaster" {
        let train = train_days.min(trace.num_days());
        return Ok(Box::new(
            NetMasterPolicy::new(
                NetMasterConfig::default(),
                LinkModel::default(),
                radio.clone(),
            )
            .with_training(&trace.days[..train]),
        ));
    }
    if let Some(d) = name.strip_prefix("delay-") {
        let secs: u64 = d
            .trim_end_matches('s')
            .parse()
            .map_err(|_| format!("bad delay policy {name:?}"))?;
        return Ok(Box::new(DelayPolicy::new(secs)));
    }
    if let Some(n) = name.strip_prefix("batch-") {
        let n: usize = n
            .parse()
            .map_err(|_| format!("bad batch policy {name:?}"))?;
        return Ok(Box::new(BatchPolicy::new(n)));
    }
    Err(format!(
        "unknown policy {name:?} (default|oracle|netmaster|delay-<secs>|batch-<n>)"
    ))
}

fn metrics_line(m: &RunMetrics, base: Option<&RunMetrics>) -> String {
    let saving = base.map(|b| m.energy_saving_vs(b)).unwrap_or(0.0);
    format!(
        "{:>12}  {:>9.0} J  saving {:>6.1}%  radio {:>7.1} min  bw {:>6.0} B/s  affected {:>5.2}%",
        m.policy,
        m.energy_j,
        100.0 * saving,
        m.radio_on_secs / 60.0,
        m.avg_down_rate(),
        100.0 * m.affected_fraction()
    )
}

fn cmd_simulate(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let trace = load_trace(args)?;
    let train: usize = args.num("train", 14)?;
    let (rrc, radio) = radio_config(args)?;
    let cfg = SimConfig {
        radio: rrc,
        ..SimConfig::default()
    };
    let name = args.opt("policy", "netmaster");
    let mut policy = policy_by_name(name, &trace, train, &radio)?;
    let eval_from = if name == "netmaster" {
        train.min(trace.num_days() - 1)
    } else {
        0
    };
    let m = simulate(&trace.days[eval_from..], policy.as_mut(), &cfg);
    if args.flag("json") {
        writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(&m).map_err(|e| e.to_string())?
        )
        .map_err(io_err)?;
    } else {
        writeln!(out, "{}", metrics_line(&m, None)).map_err(io_err)?;
    }
    Ok(())
}

fn compare_cmd(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let trace = load_trace(args)?;
    let train: usize = args.num("train", 14.min(trace.num_days().saturating_sub(1)))?;
    let (rrc, radio) = radio_config(args)?;
    let cfg = SimConfig {
        radio: rrc,
        ..SimConfig::default()
    };
    let eval_from = train.min(trace.num_days().saturating_sub(1));
    let test = &trace.days[eval_from..];
    let names = [
        "default",
        "oracle",
        "netmaster",
        "delay-60",
        "delay-600",
        "batch-5",
    ];
    let mut base: Option<RunMetrics> = None;
    writeln!(
        out,
        "evaluating days {}..{} ({} training)",
        eval_from,
        trace.num_days(),
        eval_from
    )
    .map_err(io_err)?;
    for name in names {
        let mut p = policy_by_name(name, &trace, train, &radio)?;
        let m = simulate(test, p.as_mut(), &cfg);
        writeln!(out, "{}", metrics_line(&m, base.as_ref())).map_err(io_err)?;
        if base.is_none() {
            base = Some(m);
        }
    }
    Ok(())
}

fn devourers_cmd(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    use netmaster_radio::attribution::{apportion, ranked};
    use netmaster_trace::time::Interval;

    let trace = load_trace(args)?;
    let top: usize = args.num("top", 10)?;
    let (_, radio) = radio_config(args)?;
    let transfers: Vec<(netmaster_trace::event::AppId, Interval)> =
        trace.all_activities().map(|a| (a.app, a.span())).collect();
    let att = apportion(&radio, &transfers);
    let total: f64 = att.values().map(|e| e.total_j()).sum();
    writeln!(
        out,
        "energy devourers over {} days ({:.0} J of network energy total):",
        trace.num_days(),
        total
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "{:>32} {:>9} {:>8} {:>9} {:>9} {:>9}",
        "app", "total J", "share", "active J", "overhead", "wakeups"
    )
    .map_err(io_err)?;
    for (app, e) in ranked(&att).into_iter().take(top) {
        writeln!(
            out,
            "{:>32} {:>9.0} {:>7.1}% {:>9.0} {:>8.0}% {:>9}",
            trace.apps.name(app).unwrap_or("?"),
            e.total_j(),
            100.0 * e.total_j() / total.max(1e-9),
            e.active_j,
            100.0 * e.overhead_fraction(),
            e.wakeups
        )
        .map_err(io_err)?;
    }
    Ok(())
}

fn write_trace(trace: &Trace, path: &str, out: &mut dyn Write) -> Result<(), String> {
    let json =
        netmaster_trace::io::to_json(trace).map_err(|e| format!("cannot encode trace: {e}"))?;
    fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    writeln!(
        out,
        "wrote {path}: {} days, {} activities",
        trace.num_days(),
        trace.all_activities().count()
    )
    .map_err(io_err)
}

fn anonymize_cmd(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let trace = load_trace(args)?;
    let anon = netmaster_trace::ops::anonymize(&trace);
    write_trace(&anon, args.opt("out", "anon.json"), out)
}

fn filter_cmd(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let trace = load_trace(args)?;
    let apps_arg = args.required_opt("apps")?;
    let keep: Vec<&str> = apps_arg.split(',').map(str::trim).collect();
    let filtered = netmaster_trace::ops::filter_apps(&trace, &keep);
    if filtered.all_activities().count() == 0 {
        return Err(format!(
            "no traffic left after filtering to {keep:?} — check app names with `profile`"
        ));
    }
    write_trace(&filtered, args.opt("out", "filtered.json"), out)
}

/// `netmaster lint` — thin wrapper over the `netmaster-lint` engine
/// (the standalone binary shares the exact same rule set and config).
fn lint_cmd(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    use netmaster_lint::{find_root, run_lint, Level, LintConfig};
    use std::path::PathBuf;

    let root = match args.options.get("root") {
        Some(r) => PathBuf::from(r),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
            find_root(&cwd).ok_or("no workspace root found above the current directory")?
        }
    };
    let config_path = match args.options.get("config") {
        Some(c) => PathBuf::from(c),
        None => root.join("lint.toml"),
    };
    let mut cfg = LintConfig::load(&config_path)?;
    if args.flag("index-guard") {
        cfg.index_guard = true;
    }
    for (key, level) in [("allow", Level::Allow), ("deny", Level::Deny)] {
        if let Some(list) = args.options.get(key) {
            for rule in list.split(',').map(str::trim).filter(|r| !r.is_empty()) {
                cfg.set_level(rule, level)?;
            }
        }
    }
    let report = run_lint(&root, &cfg).map_err(|e| e.to_string())?;
    if args.flag("json") {
        write!(out, "{}", report.render_json()).map_err(io_err)?;
    } else {
        write!(out, "{}", report.render_text()).map_err(io_err)?;
    }
    if report.clean() {
        Ok(())
    } else {
        Err(format!(
            "lint: {} finding(s) — see the report above",
            report.findings.len()
        ))
    }
}

/// The live telemetry plane a `--serve` run stands up: the shared
/// [`TelemetryHub`](netmaster_obs::TelemetryHub) the run publishes
/// into, the scrape server, and the optional sampling profiler.
struct ServePlane {
    hub: std::sync::Arc<netmaster_obs::TelemetryHub>,
    server: netmaster_obs::ObsServer,
    profiler: Option<netmaster_obs::Profiler>,
}

impl ServePlane {
    /// Joins the profiler thread and drains the server.
    fn finish(self) {
        if let Some(profiler) = self.profiler {
            profiler.stop();
        }
        self.server.shutdown();
    }
}

/// Parses the span-tracing and profiling options shared by every
/// serving surface: `--traces N` resizes the global span-tree ring and
/// `--profile-hz N` starts the always-on sampling profiler. Returns
/// the running profiler (stop it when the run ends) so its aggregate
/// can feed the server's `/profile` endpoint.
fn trace_profile_plane(args: &Args) -> Result<Option<netmaster_obs::Profiler>, String> {
    let wants = args.options.contains_key("profile-hz") || args.options.contains_key("traces");
    if !wants {
        return Ok(None);
    }
    if let Some(spec) = args.options.get("traces") {
        let capacity: usize = spec
            .parse()
            .map_err(|_| format!("option --traces: cannot parse {spec:?}"))?;
        netmaster_obs::TraceStore::global().set_capacity(capacity);
    }
    let Some(spec) = args.options.get("profile-hz") else {
        return Ok(None);
    };
    let hz: u32 = spec
        .parse()
        .map_err(|_| format!("option --profile-hz: cannot parse {spec:?}"))?;
    if hz == 0 {
        return Err("--profile-hz must be ≥ 1 (omit the flag to disable profiling)".into());
    }
    Ok(Some(netmaster_obs::Profiler::start(hz)))
}

/// Starts a scrape server when `--serve` was given: returns the
/// [`ServePlane`] to publish into (call [`ServePlane::finish`] after
/// the run).
fn maybe_serve(args: &Args, out: &mut dyn Write) -> Result<Option<ServePlane>, String> {
    use netmaster_obs::{ObsServer, ServeOptions, TelemetryHub};
    use std::sync::Arc;

    if !args.flag("serve") {
        if args.options.contains_key("profile-hz") || args.options.contains_key("traces") {
            return Err(
                "--profile-hz/--traces need --serve (there is no server to scrape \
                        the profile or trace data from otherwise)"
                    .into(),
            );
        }
        return Ok(None);
    }
    let profiler = trace_profile_plane(args)?;
    let hub = Arc::new(TelemetryHub::new());
    let opts = ServeOptions {
        addr: args
            .opt("addr", netmaster_obs::serve::DEFAULT_ADDR)
            .to_owned(),
        drop_threshold: args.num("drop-threshold", 0)?,
        ..ServeOptions::default()
    };
    let server = ObsServer::start(opts, Arc::clone(&hub), profiler.as_ref().map(|p| p.agg()))?;
    writeln!(out, "serving telemetry on {}", server.base_url()).map_err(io_err)?;
    if let Some(profiler) = &profiler {
        writeln!(out, "profiling span stacks at {} Hz", profiler.hz()).map_err(io_err)?;
    }
    Ok(Some(ServePlane {
        hub,
        server,
        profiler,
    }))
}

/// Appends one provenance-stamped row to the `--registry` JSONL file
/// when the option was given.
fn maybe_register(
    args: &Args,
    out: &mut dyn Write,
    kind: &str,
    seed: u64,
    config: &str,
    kpis: std::collections::BTreeMap<String, f64>,
) -> Result<(), String> {
    let Some(path) = args.options.get("registry") else {
        return Ok(());
    };
    // Profiling provenance: a row produced under an active sampling
    // profiler says so, because the profiler's overhead (however small)
    // is part of the run's conditions.
    let config = match args.options.get("profile-hz") {
        Some(hz) => format!("{config} profile-hz={hz}"),
        None => config.to_owned(),
    };
    let record = netmaster_obs::RunRecord::new(kind, seed, &config, kpis);
    netmaster_obs::RunRegistry::new(path).append(&record)?;
    writeln!(
        out,
        "registered {kind} run {} (config {}) in {path}",
        record.git_rev, record.config_hash
    )
    .map_err(io_err)
}

fn fleet_cmd(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    use netmaster_sim::run_fleet_streaming_with;
    let n: usize = args.num("users", 20)?;
    let base_seed: u64 = args.num("seed", 2014)?;
    let train = 14usize;
    let served = maybe_serve(args, out)?;
    let hub = served.as_ref().map(|p| &p.hub);
    if let Some(hub) = hub {
        hub.begin_run(n as u64);
    }
    let report = run_fleet_streaming_with(
        n,
        train,
        &SimConfig::default(),
        |i| {
            let seed = base_seed.wrapping_add(i as u64 * 7919);
            let profile = UserProfile::panel().remove((seed % 8) as usize);
            (
                seed,
                TraceGenerator::new(profile)
                    .with_seed(seed)
                    .generate(train + 7),
            )
        },
        |trace| {
            Box::new(
                NetMasterPolicy::new(
                    NetMasterConfig::default(),
                    LinkModel::default(),
                    RrcModel::wcdma_default(),
                )
                .with_training(&trace.days[..train]),
            ) as Box<dyn Policy + Send>
        },
        hub.map(|h| h.as_ref()),
    );
    if let Some(hub) = hub {
        hub.end_run();
    }
    writeln!(
        out,
        "fleet of {n}: saving mean {:.3} (sd {:.3}, min {:.3}, max {:.3});          {:.0}% of members above 50%; affected max {:.4}",
        report.saving.mean,
        report.saving.std_dev,
        report.saving.min,
        report.saving.max,
        100.0 * report.fraction_above(0.5),
        report.affected.max
    )
    .map_err(io_err)?;
    let mut kpis = std::collections::BTreeMap::new();
    kpis.insert("members".to_owned(), n as f64);
    kpis.insert("saving_mean".to_owned(), report.saving.mean);
    kpis.insert("saving_std_dev".to_owned(), report.saving.std_dev);
    kpis.insert("saving_min".to_owned(), report.saving.min);
    kpis.insert("saving_max".to_owned(), report.saving.max);
    kpis.insert("affected_max".to_owned(), report.affected.max);
    kpis.insert("radio_saving_mean".to_owned(), report.radio_saving.mean);
    maybe_register(
        args,
        out,
        "fleet",
        base_seed,
        &format!("users={n} train={train} days={}", train + 7),
        kpis,
    )?;
    if let Some(plane) = served {
        plane.finish();
    }
    Ok(())
}

/// Runs the `obs`-style middleware workload while a scrape server is
/// live: progress ticks, journal tails, and per-app bills publish into
/// the hub as each member finishes, and the server answers `/metrics`,
/// `/healthz`, `/journal`, and `/ledger` throughout. With
/// `--linger-secs N` the server stays up after the workload so external
/// scrapers (CI smoke, Prometheus) can pull the finished run.
fn serve_obs_cmd(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    use netmaster_core::MiddlewareService;
    use netmaster_obs::{ledger, ObsServer, ServeOptions, TelemetryHub};
    use std::sync::Arc;

    let users: usize = args.num("users", 3)?;
    let days: usize = args.num("days", 16)?;
    let seed: u64 = args.num("seed", 2014)?;
    let linger: u64 = args.num("linger-secs", 0)?;
    if users == 0 || days < 2 {
        return Err("serve-obs needs --users ≥ 1 and --days ≥ 2".into());
    }
    let train = days.saturating_sub(2).min(14);

    let profiler = trace_profile_plane(args)?;
    let hub = Arc::new(TelemetryHub::new());
    let opts = ServeOptions {
        addr: args
            .opt("addr", netmaster_obs::serve::DEFAULT_ADDR)
            .to_owned(),
        drop_threshold: args.num("drop-threshold", 0)?,
        ..ServeOptions::default()
    };
    let server = ObsServer::start(opts, Arc::clone(&hub), profiler.as_ref().map(|p| p.agg()))?;
    writeln!(out, "serving telemetry on {}", server.base_url()).map_err(io_err)?;
    if let Some(profiler) = &profiler {
        writeln!(out, "profiling span stacks at {} Hz", profiler.hz()).map_err(io_err)?;
    }

    netmaster_obs::reset();
    hub.begin_run(users as u64);
    let mut records = Vec::new();
    let mut journal_lines = 0usize;
    let mut savings = Vec::new();
    for u in 0..users as u64 {
        let member_seed = seed.wrapping_add(u * 7919);
        let profile = UserProfile::panel().remove((member_seed % 8) as usize);
        let trace = TraceGenerator::new(profile)
            .with_seed(member_seed)
            .generate(days);
        let mut svc = MiddlewareService::new().import_history(&trace.days[..train]);
        for day in &trace.days[train..] {
            let _ = svc.run_day(day);
            hub.day_done();
        }
        let entries = svc.drain_journal();
        if let Ok(jsonl) = netmaster_obs::to_jsonl(&entries) {
            journal_lines += entries.len();
            hub.publish_journal_jsonl(&jsonl);
        }
        records.extend(svc.drain_ledger());
        let bills = ledger::bill(&records);
        if let Ok(json) = serde_json::to_string(&bills) {
            hub.publish_ledger_json(json);
        }
        savings.push(svc.summary().saving());
        let mean = savings.iter().sum::<f64>() / savings.len() as f64;
        netmaster_obs::gauge_set(netmaster_obs::names::FLEET_SAVING_RATIO, mean);
        hub.member_done();
    }
    hub.end_run();
    writeln!(
        out,
        "workload done: {users} users × {days} days ({train} training), \
         {journal_lines} journal lines and {} ledger records published",
        records.len()
    )
    .map_err(io_err)?;

    if linger > 0 {
        writeln!(out, "lingering for {linger} s — scrape away").map_err(io_err)?;
        std::thread::sleep(std::time::Duration::from_secs(linger));
    }
    if let Some(profiler) = profiler {
        let report = profiler.report();
        writeln!(
            out,
            "profiler captured {} samples over {} distinct stacks",
            report.samples_total,
            report.stacks.len()
        )
        .map_err(io_err)?;
        profiler.stop();
    }
    server.shutdown();
    writeln!(
        out,
        "served {} requests",
        netmaster_obs::snapshot().counter(netmaster_obs::names::SERVE_REQUESTS_TOTAL),
    )
    .map_err(io_err)?;
    Ok(())
}

/// Runs a few users through the [`netmaster_core::MiddlewareService`]
/// and dumps the telemetry the run produced: the metrics registry (as a
/// table, JSON, or Prometheus text) and optionally the decision-audit
/// journal as JSONL.
fn obs_cmd(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    use netmaster_core::MiddlewareService;

    if let Some(url) = args.options.get("url") {
        return obs_remote(url, args, out);
    }
    let users: usize = args.num("users", 3)?;
    let days: usize = args.num("days", 16)?;
    let seed: u64 = args.num("seed", 2014)?;
    if users == 0 || days < 2 {
        return Err("obs needs --users ≥ 1 and --days ≥ 2".into());
    }
    // Train on everything but the last two days (capped at the paper's
    // two weeks) so the executed days exercise the trained pipeline.
    let train = days.saturating_sub(2).min(14);

    netmaster_obs::reset();
    let mut journal = Vec::new();
    for u in 0..users as u64 {
        let member_seed = seed.wrapping_add(u * 7919);
        let profile = UserProfile::panel().remove((member_seed % 8) as usize);
        let trace = TraceGenerator::new(profile)
            .with_seed(member_seed)
            .generate(days);
        let mut svc = MiddlewareService::new().import_history(&trace.days[..train]);
        for day in &trace.days[train..] {
            let _ = svc.run_day(day);
        }
        journal.extend(svc.drain_journal());
    }

    let snap = netmaster_obs::snapshot();
    if let Some(path) = args.options.get("journal") {
        let jsonl = netmaster_obs::to_jsonl(&journal).map_err(|e| e.to_string())?;
        fs::write(path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "wrote {} journal entries to {path}", journal.len()).map_err(io_err)?;
    }
    if args.flag("prom") {
        write!(out, "{}", snap.to_prometheus()).map_err(io_err)?;
    } else if args.flag("json") {
        writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(&snap).map_err(|e| e.to_string())?
        )
        .map_err(io_err)?;
    } else {
        writeln!(
            out,
            "telemetry of {users} users × {days} days ({train} training):\n"
        )
        .map_err(io_err)?;
        write!(out, "{}", snap.render_table()).map_err(io_err)?;
        writeln!(out, "\njournal: {} entries this run", journal.len()).map_err(io_err)?;
    }
    Ok(())
}

/// `netmaster obs --url` — scrape a live `serve-obs` (or `--serve`)
/// endpoint instead of running a local workload. `--prom` fetches and
/// validates the `/metrics` exposition; otherwise `/snapshot` renders
/// through the same table/JSON paths as a local run. All requests
/// honour `--timeout-secs`. The telemetry lives in the *server's*
/// process.
fn obs_remote(url: &str, args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let base = url.trim_end_matches('/');
    let timeout_secs: f64 = args.num("timeout-secs", 10.0)?;
    if !timeout_secs.is_finite() || timeout_secs <= 0.0 {
        return Err("--timeout-secs must be a positive number of seconds".into());
    }
    let timeout = std::time::Duration::from_secs_f64(timeout_secs);
    let get = |path: &str| netmaster_obs::http_get_with_timeout(&format!("{base}{path}"), timeout);
    if args.flag("prom") {
        let (status, body) = get("/metrics")?;
        if status != 200 {
            return Err(format!("GET {base}/metrics returned {status}"));
        }
        netmaster_obs::validate_prometheus(&body)
            .map_err(|e| format!("invalid exposition from {base}: {e}"))?;
        write!(out, "{body}").map_err(io_err)?;
        return Ok(());
    }
    let (status, body) = get("/snapshot")?;
    if status != 200 {
        return Err(format!("GET {base}/snapshot returned {status}"));
    }
    let snap: netmaster_obs::Snapshot =
        serde_json::from_str(&body).map_err(|e| format!("bad snapshot from {base}: {e}"))?;
    if args.flag("json") {
        writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(&snap).map_err(|e| e.to_string())?
        )
        .map_err(io_err)?;
    } else {
        writeln!(out, "telemetry scraped from {base}:\n").map_err(io_err)?;
        write!(out, "{}", snap.render_table()).map_err(io_err)?;
    }
    Ok(())
}

/// `netmaster profile --url URL` — pull a folded-stack CPU profile
/// from a live serving run's `/profile` endpoint. The folded format is
/// exactly what `flamegraph.pl` / `inferno-flamegraph` consume, so
/// `--out fleet.folded` is one pipe away from a flamegraph SVG.
fn profile_remote(url: &str, args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let base = url.trim_end_matches('/');
    let timeout_secs: f64 = args.num("timeout-secs", 10.0)?;
    if !timeout_secs.is_finite() || timeout_secs <= 0.0 {
        return Err("--timeout-secs must be a positive number of seconds".into());
    }
    let secs: u64 = args.num("secs", 0)?;
    if secs > netmaster_obs::MAX_PROFILE_WINDOW_SECS {
        return Err(format!(
            "--secs is capped at {} (the server clamps longer windows anyway)",
            netmaster_obs::MAX_PROFILE_WINDOW_SECS
        ));
    }
    let fmt = args.opt("fmt", "folded");
    if fmt != "folded" && fmt != "json" {
        return Err(format!("--fmt must be folded or json, got {fmt:?}"));
    }
    // A windowed profile blocks server-side for the window, so the
    // request timeout has to outlive it.
    let timeout = std::time::Duration::from_secs_f64(timeout_secs.max(secs as f64 + 5.0));
    let path = format!("/profile?secs={secs}&fmt={fmt}");
    let (status, body) = netmaster_obs::http_get_with_timeout(&format!("{base}{path}"), timeout)?;
    if status != 200 {
        return Err(format!(
            "GET {base}{path} returned {status}: {}",
            body.trim()
        ));
    }
    // Validate before writing: a half-scraped or malformed profile
    // should fail here, not downstream in the flamegraph tooling.
    let report = if fmt == "json" {
        serde_json::from_str::<netmaster_obs::ProfileReport>(&body)
            .map_err(|e| format!("bad profile JSON from {base}: {e}"))?
    } else {
        netmaster_obs::ProfileReport::parse_folded(&body)
            .map_err(|e| format!("bad folded profile from {base}: {e}"))?
    };
    match args.options.get("out") {
        Some(path) => {
            fs::write(path, &body).map_err(|e| format!("cannot write {path}: {e}"))?;
            writeln!(
                out,
                "wrote {} profile samples over {} stacks to {path}",
                report.samples_total,
                report.stacks.len()
            )
            .map_err(io_err)?;
        }
        None => {
            write!(out, "{body}").map_err(io_err)?;
            if !body.ends_with('\n') {
                writeln!(out).map_err(io_err)?;
            }
        }
    }
    Ok(())
}

/// Runs the fleet health watchtower: every member lives `--days` under
/// the middleware with per-day drift monitors, optionally with a
/// habit shift injected into one member, and the per-user scorecards
/// roll up into a fleet health report (healthy/degraded/critical
/// counts plus the worst-K members with reasons).
fn watch_cmd(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    use netmaster_core::watchtower::{run_watch, run_watch_observed, HabitShift, WatchSpec};
    use netmaster_obs::health::{HealthStatus, Scorecard};
    use netmaster_sim::FleetHealth;

    let users: usize = args.num("users", 8)?;
    let days: usize = args.num("days", 21)?;
    let seed: u64 = args.num("seed", 2014)?;
    let worst: usize = args.num("worst", 3)?;
    if users == 0 || days < 8 {
        return Err("watch needs --users ≥ 1 and --days ≥ 8".into());
    }
    let shift = match args.options.get("shift-user") {
        Some(_) => {
            let user_index: usize = args.num("shift-user", 0)?;
            if user_index >= users {
                return Err(format!("--shift-user {user_index} out of range 0..{users}"));
            }
            let at_day: usize = args.num("shift-day", days * 2 / 3)?;
            if at_day >= days {
                return Err(format!("--shift-day {at_day} out of range 0..{days}"));
            }
            Some(HabitShift { user_index, at_day })
        }
        None if args.options.contains_key("shift-day") => {
            return Err("--shift-day needs --shift-user".into());
        }
        None => None,
    };

    let spec = WatchSpec {
        users,
        days,
        seed,
        shift,
        ..WatchSpec::default()
    };
    let served = maybe_serve(args, out)?;
    let outcomes = match &served {
        // Live mode: each finished member folds into an incremental
        // fleet-health snapshot the scrape server serves on
        // `/health/fleet` while later members are still running.
        Some(plane) => {
            let hub = &plane.hub;
            hub.begin_run(users as u64);
            let seen = std::sync::Mutex::new(Vec::<Scorecard>::new());
            let outcomes = run_watch_observed(&spec, &|card| {
                let mut cards = seen.lock().unwrap_or_else(|e| e.into_inner());
                cards.push(card.clone());
                if let Ok(json) =
                    serde_json::to_string(&FleetHealth::from_scorecards(&cards, worst))
                {
                    hub.publish_fleet_health_json(json);
                }
                hub.member_done();
            });
            hub.end_run();
            outcomes
        }
        None => run_watch(&spec),
    };
    let cards: Vec<Scorecard> = outcomes.iter().map(|o| o.scorecard.clone()).collect();
    let health = FleetHealth::from_scorecards(&cards, worst);

    if let Some(plane) = &served {
        let hub = &plane.hub;
        if let Ok(json) = serde_json::to_string(&health) {
            hub.publish_fleet_health_json(json);
        }
        let entries: Vec<_> = outcomes
            .iter()
            .flat_map(|o| o.journal.iter().cloned())
            .collect();
        if let Ok(jsonl) = netmaster_obs::to_jsonl(&entries) {
            hub.publish_journal_jsonl(&jsonl);
        }
    }
    let mut kpis = std::collections::BTreeMap::new();
    kpis.insert("members".to_owned(), users as f64);
    kpis.insert("healthy".to_owned(), health.healthy as f64);
    kpis.insert("degraded".to_owned(), health.degraded as f64);
    kpis.insert("critical".to_owned(), health.critical as f64);
    maybe_register(
        args,
        out,
        "watch",
        seed,
        &format!(
            "users={users} days={days} worst={worst} shift={}",
            match shift {
                Some(s) => format!("{}@{}", s.user_index, s.at_day),
                None => "none".to_owned(),
            }
        ),
        kpis,
    )?;
    if let Some(plane) = served {
        plane.finish();
    }

    if let Some(path) = args.options.get("journal") {
        let entries: Vec<_> = outcomes.into_iter().flat_map(|o| o.journal).collect();
        let jsonl = netmaster_obs::to_jsonl(&entries).map_err(|e| e.to_string())?;
        fs::write(path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    if args.flag("json") {
        let mut root = serde_json::Map::new();
        root.insert(
            "fleet".to_owned(),
            serde_json::to_value(&health).map_err(|e| e.to_string())?,
        );
        root.insert(
            "users".to_owned(),
            serde_json::to_value(&cards).map_err(|e| e.to_string())?,
        );
        writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(&serde_json::Value::Object(root))
                .map_err(|e| e.to_string())?
        )
        .map_err(io_err)?;
        return Ok(());
    }

    writeln!(
        out,
        "fleet health: {users} members × {days} days (seed {seed}){}",
        match shift {
            Some(s) => format!(
                ", rhythm shift into member {} at day {}",
                s.user_index, s.at_day
            ),
            None => String::new(),
        }
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "  healthy {} · degraded {} · critical {}\n",
        health.healthy, health.degraded, health.critical
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "{:>4}  {:<8} {:>5} {:>7} {:>7} {:>9} {:>6} {:>6} {:>7}",
        "user", "status", "hit", "recall", "saving", "p99-defer", "alarms", "first", "remines"
    )
    .map_err(io_err)?;
    let frac = |v: Option<f64>| match v {
        Some(x) => format!("{x:.2}"),
        None => "-".to_owned(),
    };
    for c in &cards {
        writeln!(
            out,
            "{:>4}  {:<8} {:>5} {:>7} {:>7} {:>8.1}h {:>6} {:>6} {:>7}",
            c.user,
            c.status.name(),
            frac(c.hit_rate),
            frac(c.slot_recall),
            frac(c.saving),
            c.deferral_p99_secs / 3600.0,
            c.drift_alarms,
            c.first_alarm_day
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".to_owned()),
            c.remines,
        )
        .map_err(io_err)?;
    }
    let flagged: Vec<_> = health
        .worst
        .iter()
        .filter(|c| c.status != HealthStatus::Healthy)
        .collect();
    if !flagged.is_empty() {
        writeln!(out, "\nneeds attention:").map_err(io_err)?;
        for c in flagged {
            writeln!(
                out,
                "  user {} ({}): {}",
                c.user,
                c.status.name(),
                c.reasons.join("; ")
            )
            .map_err(io_err)?;
        }
    }
    Ok(())
}

/// Reconstructs the flight recorder's view of a simulated fleet: every
/// activity's causal chain (generation → classification → knapsack →
/// execution → radio bill), per-app energy bills, and worst-offender
/// exemplars that link the latency/energy tails back to concrete trace
/// ids. `--user/--day/--app/--activity` narrow the records before
/// rollup, JSON output, and JSONL export.
fn explain_cmd(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    use netmaster_core::MiddlewareService;
    use netmaster_obs::{ledger, ActivityTrace};
    use netmaster_sim::FleetLedger;
    use netmaster_trace::event::{AppId, TraceId};
    use std::collections::HashMap;

    let users: usize = args.num("users", 2)?;
    let days: usize = args.num("days", 16)?;
    let seed: u64 = args.num("seed", 2014)?;
    let worst: usize = args.num("worst", 3)?;
    if users == 0 || days < 2 {
        return Err("explain needs --users ≥ 1 and --days ≥ 2".into());
    }
    let train = days.saturating_sub(2).min(14);

    let only_user = match args.options.get("user") {
        Some(_) => {
            let u: usize = args.num("user", 0)?;
            if u >= users {
                return Err(format!("--user {u} out of range 0..{users}"));
            }
            Some(u)
        }
        None => None,
    };
    let only_day: Option<usize> = match args.options.get("day") {
        Some(_) => Some(args.num("day", 0)?),
        None => None,
    };
    let only_app: Option<u16> = match args.options.get("app") {
        Some(_) => Some(args.num("app", 0)?),
        None => None,
    };
    let only_activity: Option<TraceId> = match args.options.get("activity") {
        Some(s) => Some(s.parse()?),
        None => None,
    };

    // Live the executed days under the middleware and drain each
    // member's flight recorder (same member seeding as `obs`/`fleet`).
    let mut per_user: Vec<(u32, Vec<ActivityTrace>)> = Vec::new();
    // App ids are per-user registries, so names key on (user, app id).
    let mut app_names: HashMap<(u32, u16), String> = HashMap::new();
    for u in 0..users {
        if only_user.is_some() && only_user != Some(u) {
            continue;
        }
        let member_seed = seed.wrapping_add(u as u64 * 7919);
        let profile = UserProfile::panel().remove((member_seed % 8) as usize);
        let trace = TraceGenerator::new(profile)
            .with_seed(member_seed)
            .generate(days);
        let mut svc = MiddlewareService::new().import_history(&trace.days[..train]);
        for day in &trace.days[train..] {
            let _ = svc.run_day(day);
        }
        let mut records = svc.drain_ledger();
        records.retain(|r| {
            only_day.is_none_or(|d| r.day == d)
                && only_app.is_none_or(|a| r.app == a)
                && only_activity.is_none_or(|id| r.trace_id == id.raw())
        });
        for r in &records {
            if let Some(name) = trace.apps.name(AppId(r.app)) {
                app_names
                    .entry((u as u32, r.app))
                    .or_insert_with(|| name.to_owned());
            }
        }
        per_user.push((u as u32, records));
    }

    let fleet = FleetLedger::from_user_records(&per_user, worst);
    let all: Vec<ActivityTrace> = per_user
        .iter()
        .flat_map(|(_, rs)| rs.iter().copied())
        .collect();

    if let Some(path) = args.options.get("ledger") {
        let jsonl = netmaster_obs::trace_to_jsonl(&all).map_err(|e| e.to_string())?;
        fs::write(path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "wrote {} lifecycle records to {path}", all.len()).map_err(io_err)?;
    }

    if args.flag("json") {
        let mut root = serde_json::Map::new();
        root.insert(
            "fleet".to_owned(),
            serde_json::to_value(&fleet).map_err(|e| e.to_string())?,
        );
        if only_activity.is_some() {
            root.insert(
                "records".to_owned(),
                serde_json::to_value(&all).map_err(|e| e.to_string())?,
            );
        }
        writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(&serde_json::Value::Object(root))
                .map_err(|e| e.to_string())?
        )
        .map_err(io_err)?;
        return Ok(());
    }

    if let Some(id) = only_activity {
        if all.is_empty() {
            return Err(format!(
                "no lifecycle record for activity {id} (out of range, or \
                 filtered away by --user/--day/--app?)"
            ));
        }
        for (u, records) in &per_user {
            for r in records {
                write_causal_chain(out, *u, r, &app_names)?;
            }
        }
        // Metric → tree jump: the in-process replay above captured its
        // span trees, so the latency profile of the day that produced
        // this activity can sit right under its causal chain.
        let day = (id.raw() >> 32) as usize;
        if let Some(tree) =
            netmaster_obs::TraceStore::global().find_by_attr("day", &day.to_string())
        {
            writeln!(out, "\nspan tree for day {day}:").map_err(io_err)?;
            write!(out, "{}", tree.render()).map_err(io_err)?;
        }
        return Ok(());
    }

    let share = ledger::screen_off_share(&all);
    writeln!(
        out,
        "flight recorder: {users} users × {days} days ({train} training), {} lifecycle records",
        all.len()
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "screen-off share: {:.1}% of activities, {:.1}% of bytes, {:.1}% of baseline energy\n",
        share.activity_fraction * 100.0,
        share.byte_fraction * 100.0,
        share.baseline_energy_fraction * 100.0
    )
    .map_err(io_err)?;

    writeln!(
        out,
        "{:>4} {:>6} {:>8} {:>7} {:>11} {:>12} {:>7}",
        "user", "acts", "scr-off", "misses", "baseline J", "netmaster J", "saved"
    )
    .map_err(io_err)?;
    for u in &fleet.users {
        writeln!(
            out,
            "{:>4} {:>6} {:>8} {:>7} {:>11.1} {:>12.1} {:>6.1}%",
            u.user,
            u.activities,
            u.screen_off,
            u.prediction_misses,
            u.baseline_j,
            u.netmaster_j,
            u.saving() * 100.0
        )
        .map_err(io_err)?;
    }
    writeln!(
        out,
        "fleet: {:.1} J baseline → {:.1} J under NetMaster (saving {:.1}%)\n",
        fleet.baseline_j,
        fleet.netmaster_j,
        fleet.saving_total() * 100.0
    )
    .map_err(io_err)?;

    // Bill each user against its own app registry, then merge fleet-wide
    // by resolved name (app ids are only unique within one user).
    let mut by_name: HashMap<String, (u64, u64, f64, f64)> = HashMap::new();
    for (u, records) in &per_user {
        for b in ledger::bill(records) {
            let name = app_names
                .get(&(*u, b.app))
                .cloned()
                .unwrap_or_else(|| format!("app-{}", b.app));
            let row = by_name.entry(name).or_insert((0, 0, 0.0, 0.0));
            row.0 += b.activities;
            row.1 += b.bytes;
            row.2 += b.baseline_j;
            row.3 += b.netmaster_j;
        }
    }
    let mut bills: Vec<(String, u64, u64, f64, f64)> = by_name
        .into_iter()
        .map(|(n, (acts, bytes, base, net))| (n, acts, bytes, base, net))
        .collect();
    bills.sort_by(|x, y| y.3.total_cmp(&x.3).then_with(|| x.0.cmp(&y.0)));
    writeln!(out, "top apps by baseline energy:").map_err(io_err)?;
    writeln!(
        out,
        "  {:<24} {:>6} {:>10} {:>11} {:>12} {:>9}",
        "app", "acts", "bytes", "baseline J", "netmaster J", "saved J"
    )
    .map_err(io_err)?;
    for (name, acts, bytes, base, net) in bills.iter().take(10) {
        writeln!(
            out,
            "  {:<24} {:>6} {:>10} {:>11.1} {:>12.1} {:>9.1}",
            name,
            acts,
            bytes,
            base,
            net,
            base - net
        )
        .map_err(io_err)?;
    }

    if !fleet.worst_latency.is_empty() {
        writeln!(out, "\nworst deferral latency (drill in with --activity):").map_err(io_err)?;
        for (u, r) in &fleet.worst_latency {
            writeln!(
                out,
                "  {} user {u}: {} after {} s, {} B",
                TraceId::new(r.day, r.index()),
                r.outcome_kind(),
                r.latency_secs,
                r.bytes
            )
            .map_err(io_err)?;
        }
    }
    if !fleet.worst_energy.is_empty() {
        writeln!(out, "worst residual energy:").map_err(io_err)?;
        for (u, r) in &fleet.worst_energy {
            let e = r.energy.unwrap_or_default();
            writeln!(
                out,
                "  {} user {u}: {:.2} J billed vs {:.2} J stock baseline",
                TraceId::new(r.day, r.index()),
                e.actual_j,
                e.baseline_j
            )
            .map_err(io_err)?;
        }
    }
    Ok(())
}

/// Renders one lifecycle record as its full causal chain: generation →
/// plan decision (with the knapsack's "why") → execution outcome →
/// radio energy bill.
fn write_causal_chain(
    out: &mut dyn Write,
    user: u32,
    r: &netmaster_obs::ActivityTrace,
    names: &std::collections::HashMap<(u32, u16), String>,
) -> Result<(), String> {
    use netmaster_obs::{Outcome, PlanReason, RejectReason, SolverArm};
    use netmaster_trace::event::TraceId;
    use netmaster_trace::time::SECS_PER_HOUR;

    let id = TraceId::new(r.day, r.index());
    let name = names
        .get(&(user, r.app))
        .cloned()
        .unwrap_or_else(|| format!("app-{}", r.app));
    writeln!(out, "{id}  user {user}  {name}").map_err(io_err)?;
    writeln!(
        out,
        "  generated: day {}, natural start +{} s (hour {} of day), {} s long, {} B, screen {}",
        r.day,
        r.natural_start,
        (r.natural_start / SECS_PER_HOUR) % 24,
        r.duration,
        r.bytes,
        if r.screen_on { "on" } else { "off" }
    )
    .map_err(io_err)?;
    let plan = match r.plan {
        PlanReason::ScreenOn => {
            "screen-on arrival: the radio is already up with the user, nothing to schedule"
                .to_owned()
        }
        PlanReason::Untrained => {
            "untrained day: the miner has no habit model yet, duty-cycle only".to_owned()
        }
        PlanReason::InActiveSlot => {
            "arrived inside a predicted active slot: held for the imminent wake-up".to_owned()
        }
        PlanReason::Assigned {
            slot,
            profit,
            weight,
            runner_up_slot,
            runner_up_profit,
            prefetch,
            solver,
        } => format!(
            "knapsack {} slot {slot}: profit {profit:.2} J for {weight} B via {}{}",
            if prefetch {
                "prefetches into"
            } else {
                "defers to"
            },
            match solver {
                Some(SolverArm::Fastpath) => "the capacity-slack fast path",
                Some(SolverArm::Bnb) => "exact branch-and-bound",
                Some(SolverArm::Dp) => "the quantized DP",
                None => "an unrecorded solver",
            },
            match runner_up_slot {
                Some(s) => format!(" (beat slot {s} at {runner_up_profit:.2} J)"),
                None => String::new(),
            }
        ),
        PlanReason::Rejected { reason } => format!(
            "knapsack rejected ({}): fell to the duty-cycle fallback",
            match reason {
                RejectReason::NoCandidate => "no slot candidate",
                RejectReason::NoPositiveProfit => "no positive-profit slot",
                RejectReason::CapacityFull => "every profitable slot was full",
            }
        ),
    };
    writeln!(out, "  plan: {plan}").map_err(io_err)?;
    let outcome = match r.outcome {
        Outcome::Natural => format!("executed at its natural start (+{} s)", r.executed_at),
        Outcome::Deferred { slot } => format!(
            "deferred into slot {slot}, executed +{} s ({} s late)",
            r.executed_at, r.latency_secs
        ),
        Outcome::Prefetched { slot } => format!(
            "prefetched in slot {slot}, executed +{} s ({} s early)",
            r.executed_at, r.latency_secs
        ),
        Outcome::DutyServed => format!(
            "served by a duty-cycle wake-up +{} s ({} s late)",
            r.executed_at, r.latency_secs
        ),
    };
    writeln!(out, "  outcome: {outcome}").map_err(io_err)?;
    match r.energy {
        Some(e) => writeln!(
            out,
            "  energy: {:.2} J billed vs {:.2} J stock baseline (saved {:.2} J)",
            e.actual_j,
            e.baseline_j,
            e.saved_j()
        ),
        None => writeln!(out, "  energy: not billed (day still open)"),
    }
    .map_err(io_err)?;
    Ok(())
}

fn timeline_cmd(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    use netmaster_radio::Timeline;
    use netmaster_trace::time::{Interval, SECS_PER_HOUR};

    let trace = load_trace(args)?;
    let day_idx: usize = args.num("day", trace.num_days().saturating_sub(1))?;
    if day_idx >= trace.num_days() {
        return Err(format!(
            "--day {day_idx} out of range 0..{}",
            trace.num_days()
        ));
    }
    let (rrc, radio) = radio_config(args)?;
    let name = args.opt("policy", "netmaster");
    let train = args.num("train", day_idx.max(1))?;
    let mut policy = policy_by_name(name, &trace, train.min(day_idx.max(1)), &radio)?;

    let day = &trace.days[day_idx];
    let plan = policy.plan_day(day);
    let spans: Vec<Interval> = plan.executions.iter().map(|e| e.span()).collect();
    let model = netmaster_radio::RrcModel {
        config: rrc,
        tail_policy: policy.tail_policy(),
    };
    let timeline = Timeline::build(&model, &spans);

    writeln!(
        out,
        "day {day_idx} under {name}: {} transfers ({} moved), {:.0} J, {} wake-ups",
        plan.executions.len(),
        plan.moved_count(),
        timeline.total_j(),
        timeline.wakeups() + plan.empty_wakeups
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "legend: P=promoting  #=active  t=tail  ·=idle  (1 char = 60 s)"
    )
    .map_err(io_err)?;
    let base = netmaster_trace::time::day_start(day_idx);
    for hour in 0..24u64 {
        let window = Interval::new(
            base + hour * SECS_PER_HOUR,
            base + (hour + 1) * SECS_PER_HOUR,
        );
        let strip = timeline.ascii(window, 60);
        let screen = if day
            .sessions
            .iter()
            .any(|sess| sess.span().overlaps(&window))
        {
            "S"
        } else {
            " "
        };
        writeln!(out, "{hour:02}h {screen} |{strip}|").map_err(io_err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    fn run_to_string(a: &Args) -> Result<String, String> {
        let mut buf = Vec::new();
        run(a, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("netmaster-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// Serializes tests that reset the process-global metrics registry
    /// (`obs` and `serve-obs` both start from a clean slate).
    fn registry_serial() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn help_prints_usage() {
        let out = run_to_string(&args("help")).unwrap();
        assert!(out.contains("COMMANDS"));
        let out = run_to_string(&args("")).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_to_string(&args("frobnicate")).is_err());
    }

    /// An option the command's usage block does not list fails before
    /// anything runs, naming the option: a misspelt `--seed` must not
    /// run with the default seed, nor a removed option do nothing.
    #[test]
    fn unlisted_options_are_rejected_by_name() {
        let err = run_to_string(&args("fleet --users 2 --sed 3")).unwrap_err();
        assert!(err.contains("--sed"), "{err}");
        let err =
            run_to_string(&args("serve-obs --history h.nmts --users 1 --days 10")).unwrap_err();
        assert!(err.contains("--history"), "{err}");
    }

    /// Each command accepts the options its own usage block lists, and
    /// only those.
    #[test]
    fn usage_blocks_are_the_option_allowlist() {
        assert_eq!(
            listed_options("fleet"),
            [
                "users",
                "seed",
                "serve",
                "addr",
                "drop-threshold",
                "registry",
                "profile-hz",
                "traces"
            ]
        );
        assert!(listed_options("watch").contains(&"drop-threshold"));
        assert!(listed_options("help").is_empty());
        assert!(run_to_string(&args("obs --serve")).is_err());
        assert!(run_to_string(&args("fleet --help"))
            .unwrap()
            .contains("COMMANDS"));
    }

    #[test]
    fn generate_profile_predict_simulate_round_trip() {
        let path = tmp("trip.json");
        let out = run_to_string(&args(&format!(
            "generate --profile volunteer1 --days 16 --seed 9 --out {path}"
        )))
        .unwrap();
        assert!(out.contains("16 days"));

        let out = run_to_string(&args(&format!("profile {path}"))).unwrap();
        assert!(out.contains("screen-off"));
        assert!(out.contains("special apps"));

        let out = run_to_string(&args(&format!("predict {path} --train 9"))).unwrap();
        assert!(out.contains("Weekday"));
        assert!(out.contains("accuracy"));

        let out = run_to_string(&args(&format!(
            "simulate {path} --policy netmaster --train 9"
        )))
        .unwrap();
        assert!(out.contains("netmaster"));

        let out = run_to_string(&args(&format!("compare {path} --train 9"))).unwrap();
        assert!(out.contains("oracle"));
        assert!(out.contains("batch-5"));
    }

    #[test]
    fn simulate_json_output_parses() {
        let path = tmp("json.json");
        run_to_string(&args(&format!(
            "generate --profile panel6 --days 5 --seed 3 --out {path}"
        )))
        .unwrap();
        let out =
            run_to_string(&args(&format!("simulate {path} --policy delay-60 --json"))).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["policy"], "delay-60s");
    }

    #[test]
    fn lte_radio_is_accepted() {
        let path = tmp("lte.json");
        run_to_string(&args(&format!(
            "generate --profile volunteer2 --days 6 --seed 4 --out {path}"
        )))
        .unwrap();
        let out = run_to_string(&args(&format!(
            "simulate {path} --policy oracle --radio lte"
        )))
        .unwrap();
        assert!(out.contains("oracle"));
        assert!(run_to_string(&args(&format!(
            "simulate {path} --policy oracle --radio 5g"
        )))
        .is_err());
    }

    #[test]
    fn timeline_renders_a_day() {
        let path = tmp("timeline.json");
        run_to_string(&args(&format!(
            "generate --profile volunteer3 --days 6 --seed 12 --out {path}"
        )))
        .unwrap();
        let out =
            run_to_string(&args(&format!("timeline {path} --day 5 --policy default"))).unwrap();
        assert!(out.contains("legend"));
        assert_eq!(
            out.lines()
                .filter(|l| l.contains("h ") || l.contains("h S"))
                .count(),
            24
        );
        assert!(out.contains('#'), "a normal day has transfers:\n{out}");
        // The whole rendering is pinned: the strip is drawn from the RRC
        // timeline's segments, so any drift in them shows here.
        assert_eq!(
            out,
            include_str!("../testdata/timeline_volunteer3_seed12_day5.txt")
        );
        // Out-of-range day errors.
        assert!(run_to_string(&args(&format!("timeline {path} --day 99"))).is_err());
    }

    #[test]
    fn devourers_ranks_apps() {
        let path = tmp("dev.json");
        run_to_string(&args(&format!(
            "generate --profile panel3 --days 7 --seed 17 --out {path}"
        )))
        .unwrap();
        let out = run_to_string(&args(&format!("devourers {path} --top 5"))).unwrap();
        assert!(out.contains("energy devourers"));
        assert!(
            out.contains("com.tencent.mm"),
            "the messenger devours:\n{out}"
        );
        // 5 rows + 2 header lines.
        assert_eq!(out.lines().count(), 7);
    }

    #[test]
    fn anonymize_and_filter_round_trip() {
        let path = tmp("ops.json");
        run_to_string(&args(&format!(
            "generate --profile panel3 --days 4 --seed 2 --out {path}"
        )))
        .unwrap();
        let anon_path = tmp("ops-anon.json");
        let out = run_to_string(&args(&format!("anonymize {path} --out {anon_path}"))).unwrap();
        assert!(out.contains("4 days"));
        let anon = run_to_string(&args(&format!("profile {anon_path}"))).unwrap();
        assert!(anon.contains("app-"), "names must be stripped:\n{anon}");

        let filt_path = tmp("ops-filt.json");
        run_to_string(&args(&format!(
            "filter {path} --apps com.tencent.mm --out {filt_path}"
        )))
        .unwrap();
        let prof = run_to_string(&args(&format!("devourers {filt_path} --top 3"))).unwrap();
        assert!(prof.contains("com.tencent.mm"));
        // Filtering to a nonexistent app errors.
        assert!(run_to_string(&args(&format!(
            "filter {path} --apps com.absent.app --out {filt_path}"
        )))
        .is_err());
    }

    /// One test drives every `obs` output mode so the process-global
    /// registry is never reset by a concurrently running sibling.
    #[test]
    fn obs_command_reports_telemetry() {
        let _g = registry_serial();
        let table = run_to_string(&args("obs --users 2 --days 16 --seed 7")).unwrap();
        assert!(table.contains("service_days_total"), "{table}");
        assert!(table.contains("stage_run_day_seconds"), "{table}");
        assert!(table.contains("sched_deferred_total"), "{table}");
        // The flight recorder's ledger counters flow through the same
        // snapshot.
        assert!(table.contains("ledger_records_total"), "{table}");

        let json = run_to_string(&args("obs --users 1 --days 16 --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(v["counters"].is_array());

        let prom = run_to_string(&args("obs --users 1 --days 16 --prom")).unwrap();
        assert!(
            prom.contains("# TYPE netmaster_service_days_total counter"),
            "{prom}"
        );
        assert!(prom.contains("_bucket{le=\"+Inf\"}"), "{prom}");

        let jp = tmp("obs.jsonl");
        let msg = run_to_string(&args(&format!("obs --users 1 --days 16 --journal {jp}"))).unwrap();
        assert!(msg.contains("journal entries"));
        let raw = fs::read_to_string(&jp).unwrap();
        let entries = netmaster_obs::parse_jsonl(&raw).unwrap();
        assert!(!entries.is_empty(), "trained days must journal decisions");
        // JSONL round-trips byte-for-byte.
        assert_eq!(netmaster_obs::to_jsonl(&entries).unwrap(), raw);
        assert!(entries.iter().any(|e| e.event.kind() == "DayExecuted"));

        assert!(run_to_string(&args("obs --users 0")).is_err());
        assert!(run_to_string(&args("obs --days 1")).is_err());
    }

    /// The Prometheus exposition must satisfy the line-format
    /// validator: well-formed names, cumulative buckets, `+Inf` ==
    /// `_count`.
    #[test]
    fn obs_prometheus_exposition_is_valid() {
        let _g = registry_serial();
        let prom = run_to_string(&args("obs --users 1 --days 16 --seed 3 --prom")).unwrap();
        netmaster_obs::validate_prometheus(&prom).unwrap();
    }

    #[test]
    fn watch_command_reports_fleet_health() {
        // Quiet fleet: table lists every member as healthy.
        let out = run_to_string(&args("watch --users 3 --days 12 --seed 7 --worst 2")).unwrap();
        assert!(out.contains("fleet health: 3 members × 12 days"), "{out}");
        assert!(out.contains("healthy 3 · degraded 0 · critical 0"), "{out}");

        // Shifted fleet as JSON: the report carries fleet counts and one
        // scorecard per member; the journal drains to JSONL on request.
        let jp = tmp("watch.jsonl");
        let out = run_to_string(&args(&format!(
            "watch --users 8 --days 21 --seed 2014 --shift-user 2 --shift-day 14 \
             --json --journal {jp}"
        )))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let fleet = &v["fleet"];
        let total = fleet["healthy"].as_u64().unwrap()
            + fleet["degraded"].as_u64().unwrap()
            + fleet["critical"].as_u64().unwrap();
        assert_eq!(total, 8);
        assert!(fleet["healthy"].as_u64().unwrap() < 8, "shift undetected");
        assert_eq!(v["users"].as_array().unwrap().len(), 8);
        let raw = fs::read_to_string(&jp).unwrap();
        let entries = netmaster_obs::parse_jsonl(&raw).unwrap();
        assert!(entries.iter().any(|e| e.event.kind() == "DriftDetected"));

        // Bad arguments are rejected.
        assert!(run_to_string(&args("watch --users 0")).is_err());
        assert!(run_to_string(&args("watch --days 2")).is_err());
        assert!(run_to_string(&args("watch --users 4 --shift-user 9")).is_err());
        assert!(run_to_string(&args("watch --users 4 --shift-day 3")).is_err());
    }

    /// CI's watch smoke command, pinned byte for byte: every scorecard
    /// field, `deferral_p99_secs` included.
    #[test]
    fn watch_json_matches_the_golden_fleet() {
        let out = run_to_string(&args("watch --users 3 --days 12 --seed 2014 --json")).unwrap();
        assert_eq!(
            out,
            include_str!("../testdata/watch_users3_days12_seed2014.json")
        );
    }

    /// One test drives every `explain` mode: summary table, drill-down
    /// into a worst-offender exemplar's causal chain, JSON rollup, and
    /// JSONL lifecycle export.
    #[test]
    fn explain_command_reconstructs_causal_chains() {
        let out =
            run_to_string(&args("explain --users 2 --days 16 --seed 2014 --worst 2")).unwrap();
        assert!(
            out.contains("flight recorder: 2 users × 16 days (14 training)"),
            "{out}"
        );
        assert!(out.contains("screen-off share"), "{out}");
        assert!(out.contains("top apps by baseline energy"), "{out}");
        assert!(out.contains("worst deferral latency"), "{out}");

        // The exemplar table links the latency tail to a trace id;
        // drilling into it reconstructs the full causal chain.
        let line = out
            .lines()
            .skip_while(|l| !l.contains("worst deferral latency"))
            .nth(1)
            .unwrap();
        let id = line.split_whitespace().next().unwrap().to_owned();
        let user = line
            .split("user ")
            .nth(1)
            .unwrap()
            .split(':')
            .next()
            .unwrap();
        let chain = run_to_string(&args(&format!(
            "explain --users 2 --days 16 --seed 2014 --user {user} --activity {id}"
        )))
        .unwrap();
        assert!(chain.contains(&id), "{chain}");
        assert!(chain.contains("generated:"), "{chain}");
        assert!(chain.contains("plan:"), "{chain}");
        assert!(chain.contains("outcome:"), "{chain}");
        assert!(chain.contains("energy:"), "{chain}");

        // JSON mode parses; the fleet rollup conserves the user sums.
        let json = run_to_string(&args("explain --users 2 --days 16 --seed 2014 --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let members = v["fleet"]["users"].as_array().unwrap();
        assert_eq!(members.len(), 2);
        let sum: f64 = members
            .iter()
            .map(|u| u["baseline_j"].as_f64().unwrap())
            .sum();
        assert!((sum - v["fleet"]["baseline_j"].as_f64().unwrap()).abs() < 1e-6);

        // JSONL export round-trips byte-for-byte through the obs codec.
        let lp = tmp("explain.jsonl");
        let msg =
            run_to_string(&args(&format!("explain --users 1 --days 16 --ledger {lp}"))).unwrap();
        assert!(msg.contains("lifecycle records"), "{msg}");
        let raw = fs::read_to_string(&lp).unwrap();
        let recs = netmaster_obs::trace_from_jsonl(&raw).unwrap();
        assert!(!recs.is_empty());
        assert_eq!(netmaster_obs::trace_to_jsonl(&recs).unwrap(), raw);

        // Filters narrow the record set; bad arguments are rejected.
        let day = run_to_string(&args("explain --users 1 --days 16 --day 14")).unwrap();
        assert!(day.contains("lifecycle records"), "{day}");
        assert!(run_to_string(&args("explain --users 0")).is_err());
        assert!(run_to_string(&args("explain --days 1")).is_err());
        assert!(run_to_string(&args("explain --users 2 --user 5")).is_err());
        assert!(run_to_string(&args("explain --activity bogus")).is_err());
        assert!(run_to_string(&args("explain --users 1 --days 16 --activity d99-a0")).is_err());
    }

    #[test]
    fn fleet_command_reports_distribution() {
        let out = run_to_string(&args("fleet --users 3 --seed 5")).unwrap();
        assert!(out.contains("fleet of 3"));
        assert!(out.contains("saving mean"));
    }

    /// Two same-seed fleet runs append registry rows that are
    /// byte-identical modulo the timestamp — the run registry's core
    /// reproducibility contract.
    #[test]
    fn fleet_registry_rows_are_byte_deterministic() {
        let p = tmp("fleet-runs.jsonl");
        let _ = fs::remove_file(&p);
        let out =
            run_to_string(&args(&format!("fleet --users 2 --seed 11 --registry {p}"))).unwrap();
        assert!(out.contains("registered fleet run"), "{out}");
        run_to_string(&args(&format!("fleet --users 2 --seed 11 --registry {p}"))).unwrap();
        let rows = netmaster_obs::RunRegistry::new(&p).rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].kind, "fleet");
        assert_eq!(rows[0].schema, netmaster_obs::RUN_SCHEMA_VERSION);
        assert_eq!(rows[0].seed, 11);
        assert!(rows[0].kpis.contains_key("saving_mean"), "{:?}", rows[0]);
        let (mut a, mut b) = (rows[0].clone(), rows[1].clone());
        a.timestamp_ms = 0;
        b.timestamp_ms = 0;
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same-seed rows must agree byte-for-byte modulo timestamp"
        );
    }

    /// `obs --url` renders a remote server's telemetry through the
    /// same table/JSON/Prometheus paths as a local run.
    #[test]
    fn obs_url_scrapes_a_remote_server() {
        use std::sync::Arc;
        let hub = Arc::new(netmaster_obs::TelemetryHub::new());
        let server = netmaster_obs::ObsServer::start(
            netmaster_obs::ServeOptions {
                addr: "127.0.0.1:0".to_owned(),
                ..Default::default()
            },
            Arc::clone(&hub),
            None,
        )
        .unwrap();
        let url = server.base_url();

        let prom = run_to_string(&args(&format!("obs --url {url} --prom"))).unwrap();
        netmaster_obs::validate_prometheus(&prom).unwrap();
        let json = run_to_string(&args(&format!("obs --url {url} --json"))).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(v["counters"].is_array());
        let table = run_to_string(&args(&format!("obs --url {url}"))).unwrap();
        assert!(table.contains("telemetry scraped from"), "{table}");

        server.shutdown();
        // A dead endpoint is a hard error, not an empty table.
        let err = run_to_string(&args(&format!("obs --url {url}"))).unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
        assert!(run_to_string(&args("obs --url ftp://x --prom")).is_err());
    }

    /// `profile --url` against a port nothing listens on fails with a
    /// transport error, not a panic or an empty profile.
    #[test]
    fn profile_url_fails_on_a_dead_endpoint() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        drop(listener);
        let err = run_to_string(&args(&format!(
            "profile --url http://127.0.0.1:{port} --timeout-secs 1"
        )))
        .unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
    }

    #[test]
    fn serve_obs_runs_a_workload_and_drains() {
        let _g = registry_serial();
        let out = run_to_string(&args(
            "serve-obs --addr 127.0.0.1:0 --users 1 --days 10 --seed 5",
        ))
        .unwrap();
        assert!(
            out.contains("serving telemetry on http://127.0.0.1:"),
            "{out}"
        );
        assert!(
            out.contains("workload done: 1 users × 10 days (8 training)"),
            "{out}"
        );
        assert!(out.contains("served "), "{out}");
        assert!(run_to_string(&args("serve-obs --users 0")).is_err());
        assert!(run_to_string(&args("serve-obs --addr 999.999.0.1:x")).is_err());
    }

    #[test]
    fn fleet_serves_while_running() {
        let out =
            run_to_string(&args("fleet --users 2 --seed 3 --serve --addr 127.0.0.1:0")).unwrap();
        assert!(
            out.contains("serving telemetry on http://127.0.0.1:"),
            "{out}"
        );
        assert!(out.contains("fleet of 2"), "{out}");
    }

    #[test]
    fn watch_serves_and_registers() {
        let p = tmp("watch-runs.jsonl");
        let _ = fs::remove_file(&p);
        let out = run_to_string(&args(&format!(
            "watch --users 3 --days 12 --seed 7 --serve --addr 127.0.0.1:0 --registry {p}"
        )))
        .unwrap();
        assert!(
            out.contains("serving telemetry on http://127.0.0.1:"),
            "{out}"
        );
        assert!(out.contains("fleet health: 3 members × 12 days"), "{out}");
        assert!(out.contains("registered watch run"), "{out}");
        let rows = netmaster_obs::RunRegistry::new(&p).rows().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].kind, "watch");
        assert_eq!(rows[0].kpis.get("healthy"), Some(&3.0));
        assert_eq!(rows[0].kpis.get("members"), Some(&3.0));
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(run_to_string(&args("profile /nonexistent.json")).is_err());
        assert!(run_to_string(&args("generate --profile panel99")).is_err());
        let path = tmp("bad.json");
        fs::write(&path, "{broken").unwrap();
        assert!(run_to_string(&args(&format!("profile {path}"))).is_err());
    }

    #[test]
    fn policy_names_parse() {
        let trace = TraceGenerator::new(UserProfile::volunteers().remove(0))
            .with_seed(1)
            .generate(4);
        let radio = RrcModel::wcdma_default();
        for name in [
            "default",
            "oracle",
            "netmaster",
            "delay-30",
            "delay-30s",
            "batch-4",
        ] {
            assert!(policy_by_name(name, &trace, 3, &radio).is_ok(), "{name}");
        }
        for name in ["delay-x", "batch-", "magic"] {
            assert!(policy_by_name(name, &trace, 3, &radio).is_err(), "{name}");
        }
    }
}
