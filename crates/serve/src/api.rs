//! The JSON API: routing, the request schema, and the four pipeline
//! handlers.
//!
//! A request body is either a flat JSON object or raw `.oiso` text
//! (anything whose first non-whitespace byte is not `{`). The JSON
//! schema is shared by all four POST endpoints — fields an endpoint
//! does not use are accepted but still part of its cache key:
//!
//! | Field | Type | Default | Meaning |
//! |---|---|---|---|
//! | `design` | string | — | bundled design name ([`oiso_designs::BUNDLED_NAMES`]) |
//! | `source` | string | — | inline `.oiso` text (exactly one of `design`/`source`) |
//! | `style` | string | `"and"` | isolation style `and` / `or` / `latch` |
//! | `cycles` | int | `3000` | simulated cycles (same default as the CLI) |
//! | `lookahead` | bool | `false` | one-cycle activation look-ahead (§5) |
//! | `budget` | int | `200000`* | BDD node budget (verify / lint / analyze; `*` analyze defaults to [`oiso_activity::DEFAULT_ACTIVITY_NODE_BUDGET`]) |
//! | `seed` | int | — | stimulus reseed ([`Design::with_seed`]) |
//! | `engine` | string | `"compiled"` | simulation engine `scalar` / `compiled` |
//!
//! Unknown fields are rejected with `400 unknown_field` — a typo'd knob
//! must fail loudly, not silently run with defaults.
//!
//! Handlers run with `threads = 1` per request: parallelism comes from
//! the worker pool (many requests at once), and a single-threaded
//! pipeline keeps each response deterministic, which the result cache
//! relies on. An `X-Oiso-Deadline-Ms` header becomes a
//! [`RunBudget`] wall deadline (isolate) or a symbolic-check deadline
//! (verify); deadline-bearing requests bypass the cache because their
//! truncation point is wall-clock dependent.
//!
//! Serve v2 adds two shapes on top of the single-request schema:
//!
//! * **`POST /v1/batch`** — `{"items":[{...}, ...]}` where each item is
//!   the single-request schema plus an optional `"endpoint"` selector
//!   (default `isolate`). Items fan out through
//!   [`oiso_par::parallel_map`] under one shared wall budget (the
//!   request's `X-Oiso-Deadline-Ms`); items the budget cannot reach are
//!   *shed* with a per-item `"status": "shed"` entry, and results come
//!   back in item order regardless of completion order.
//! * **`"stream": true`** — on `/v1/isolate` and `/v1/batch`, switches
//!   the response to chunked ndjson progress events
//!   ([`crate::http::ChunkedWriter`]): one `accept` event per accepted
//!   isolation candidate (tapped from the checkpoint journal via
//!   [`StepTap`]), terminated by a `done` event carrying the full
//!   report. Streaming responses bypass the cache.

use crate::cache::{CacheRole, ResultCache};
use crate::error::ApiError;
use crate::http::{ChunkedWriter, Request, Response};
use crate::json::{json_array, JsonObj};
use crate::store::ResultStore;
use oiso_core::json::{self, JsonValue};
use oiso_core::{
    derive_activation_functions, optimize_with_memo, ActivationConfig, IsolationConfig,
    IsolationOutcome, IsolationStyle, RunBudget, StepTap,
};
use oiso_designs::{bundled, textfmt, Design};
use oiso_netlist::Fnv;
use oiso_lint::{lint_netlist, render_json as render_lint_json, LintOptions, Severity};
use oiso_power::{total_area, PowerEstimator};
use oiso_sim::{EngineKind, SimMemo};
use oiso_techlib::{OperatingConditions, TechLibrary};
use oiso_timing::analyze;
use oiso_verify::{
    verify_isolation_plan, CheckConfig, Proof, ReplayVerdict, VerifyConfig, VerifyOutcome,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Deadline header name (milliseconds of wall time for the request).
pub const DEADLINE_HEADER: &str = "x-oiso-deadline-ms";

/// Upper bound on `/v1/batch` fan-out width per request.
pub const MAX_BATCH_ITEMS: usize = 64;

/// The routable endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/isolate` — Algorithm 1.
    Isolate,
    /// `POST /v1/lint` — the OL001–OL014 rule set.
    Lint,
    /// `POST /v1/verify` — per-candidate equivalence checking.
    Verify,
    /// `POST /v1/simulate` — power/area/timing measurement.
    Simulate,
    /// `POST /v1/analyze` — static switching-activity & glitch report.
    Analyze,
    /// `POST /v1/batch` — many of the above under one shared budget.
    Batch,
    /// `GET /healthz` — liveness.
    Healthz,
    /// `GET /metrics` — text metrics.
    Metrics,
}

impl Endpoint {
    /// Stable lowercase label (metrics series, access logs, cache keys).
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Isolate => "isolate",
            Endpoint::Lint => "lint",
            Endpoint::Verify => "verify",
            Endpoint::Simulate => "simulate",
            Endpoint::Analyze => "analyze",
            Endpoint::Batch => "batch",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
        }
    }

    /// Maps `(method, path)` to an endpoint, or to the structured `404`
    /// / `405` the API contract specifies.
    pub fn route(method: &str, path: &str) -> Result<Endpoint, ApiError> {
        let (endpoint, allow) = match path {
            "/v1/isolate" => (Endpoint::Isolate, "POST"),
            "/v1/lint" => (Endpoint::Lint, "POST"),
            "/v1/verify" => (Endpoint::Verify, "POST"),
            "/v1/simulate" => (Endpoint::Simulate, "POST"),
            "/v1/analyze" => (Endpoint::Analyze, "POST"),
            "/v1/batch" => (Endpoint::Batch, "POST"),
            "/healthz" => (Endpoint::Healthz, "GET"),
            "/metrics" => (Endpoint::Metrics, "GET"),
            _ => return Err(ApiError::not_found(path)),
        };
        if method != allow {
            return Err(ApiError::method_not_allowed(method, path, allow));
        }
        Ok(endpoint)
    }
}

/// A fully validated pipeline request, ready to execute.
#[derive(Debug)]
pub struct ApiRequest {
    /// Which handler runs.
    pub endpoint: Endpoint,
    /// The design to operate on (stimulus reseed already applied).
    pub design: Design,
    /// `design` name, or `"inline"` for `source` / raw bodies.
    pub design_label: String,
    /// Isolation style for isolate/verify.
    pub style: IsolationStyle,
    /// Simulated cycles for isolate/simulate.
    pub cycles: u64,
    /// Activation look-ahead for isolate/verify/lint.
    pub lookahead: bool,
    /// BDD node budget for verify/lint.
    pub budget: usize,
    /// Explicit stimulus seed, if any (part of the cache key).
    pub seed: Option<u64>,
    /// Simulation engine for isolate/simulate (never part of the cache
    /// key: engines are bit-identical, so results are interchangeable).
    pub engine: EngineKind,
    /// Wall deadline from `X-Oiso-Deadline-Ms`.
    pub deadline: Option<Duration>,
    /// `"stream": true` — respond with chunked ndjson progress events
    /// instead of one JSON body (isolate only; bypasses the cache).
    pub stream: bool,
}

/// Accumulates schema fields with their defaults; [`Draft::build`] does
/// the cross-field validation shared by single requests, raw `.oiso`
/// bodies, and batch items.
struct Draft {
    design_name: Option<String>,
    source: Option<String>,
    style: IsolationStyle,
    cycles: u64,
    lookahead: bool,
    budget: Option<usize>,
    seed: Option<u64>,
    engine: EngineKind,
    stream: bool,
}

impl Draft {
    fn new() -> Draft {
        Draft {
            design_name: None,
            source: None,
            style: IsolationStyle::And,
            cycles: 3000,
            lookahead: false,
            budget: None,
            seed: None,
            engine: EngineKind::default(),
            stream: false,
        }
    }

    fn apply(&mut self, key: &str, value: &JsonValue) -> Result<(), ApiError> {
        let text = || typed(key, value.as_str(), "a string");
        let int = || typed(key, value.as_int(), "an unsigned integer");
        let flag = || typed(key, value.as_bool(), "a boolean");
        match key {
            "design" => self.design_name = Some(text()?.to_string()),
            "source" => self.source = Some(text()?.to_string()),
            "style" => {
                let raw = text()?;
                self.style = IsolationStyle::parse(raw).ok_or_else(|| {
                    ApiError::bad_field(format!("\"style\" must be and|or|latch|bdd, got {raw:?}"))
                })?
            }
            "cycles" => self.cycles = int()?,
            "lookahead" => self.lookahead = flag()?,
            "budget" => self.budget = Some(int()? as usize),
            "seed" => self.seed = Some(int()?),
            "engine" => self.engine = parse_engine(text()?)?,
            "stream" => self.stream = flag()?,
            other => return Err(ApiError::unknown_field(other)),
        }
        Ok(())
    }

    fn build(self, endpoint: Endpoint, deadline: Option<Duration>) -> Result<ApiRequest, ApiError> {
        let (mut design, design_label) = match (self.design_name, self.source) {
            (Some(name), None) => (
                bundled(&name).ok_or_else(|| ApiError::unknown_design(&name))?,
                name,
            ),
            (None, Some(text)) => (
                textfmt::parse(&text).map_err(|e| ApiError::bad_design(e.to_string()))?,
                "inline".to_string(),
            ),
            (Some(_), Some(_)) => {
                return Err(ApiError::bad_field(
                    "specify exactly one of \"design\" and \"source\", not both",
                ))
            }
            (None, None) => {
                return Err(ApiError::bad_field(
                    "specify a bundled \"design\" name or inline \"source\" text",
                ))
            }
        };
        if self.cycles == 0 || self.cycles > 1_000_000 {
            return Err(ApiError::bad_field(format!(
                "\"cycles\" must be in 1..=1000000, got {}",
                self.cycles
            )));
        }
        if self.stream && endpoint != Endpoint::Isolate {
            return Err(ApiError::bad_field(
                "\"stream\" is only supported on /v1/isolate and /v1/batch",
            ));
        }
        if let Some(s) = self.seed {
            design = design.with_seed(s);
        }
        // Per-endpoint budget default: verify/lint BDDs are per-cone and
        // get the checker's default, as on the CLI; the activity pass
        // covers whole netlists and needs its much larger default to stay
        // exact on the big designs.
        let budget = self.budget.unwrap_or(match endpoint {
            Endpoint::Analyze => oiso_activity::DEFAULT_ACTIVITY_NODE_BUDGET,
            _ => CheckConfig::default().node_budget,
        });
        Ok(ApiRequest {
            endpoint,
            design,
            design_label,
            style: self.style,
            cycles: self.cycles,
            lookahead: self.lookahead,
            budget,
            seed: self.seed,
            engine: self.engine,
            deadline,
            stream: self.stream,
        })
    }
}

/// Parses the `X-Oiso-Deadline-Ms` header, if present.
pub fn parse_deadline(req: &Request) -> Result<Option<Duration>, ApiError> {
    match req.header(DEADLINE_HEADER) {
        None => Ok(None),
        Some(raw) => Ok(Some(Duration::from_millis(raw.parse::<u64>().map_err(
            |e| ApiError::bad_deadline(format!("bad {DEADLINE_HEADER} {raw:?}: {e}")),
        )?))),
    }
}

/// Folds `s` into a request fingerprint one byte at a time, each byte
/// widened to a full [`Fnv::u64`] word — the encoding every persisted
/// cache key was computed with.
fn eat_str(h: &mut Fnv, s: &str) {
    for b in s.bytes() {
        h.u64(u64::from(b));
    }
}

impl ApiRequest {
    /// Parses and validates one POST request against the schema.
    pub fn parse(endpoint: Endpoint, req: &Request) -> Result<ApiRequest, ApiError> {
        let deadline = parse_deadline(req)?;
        let body = std::str::from_utf8(&req.body)
            .map_err(|_| ApiError::bad_request("request body is not UTF-8"))?;
        let mut draft = Draft::new();
        if body.trim_start().starts_with('{') {
            let value = json::parse(body).map_err(ApiError::bad_json)?;
            let fields = value.as_object().unwrap_or_default();
            // The single-request schema is flat, so a nested value makes
            // the body malformed before any field is looked at.
            if let Some((key, _)) = fields.iter().find(|(_, v)| !v.is_scalar()) {
                return Err(ApiError::bad_json(format!(
                    "field {key:?} must be a scalar"
                )));
            }
            for (key, value) in fields {
                draft.apply(key, value)?;
            }
        } else if body.trim().is_empty() {
            return Err(ApiError::bad_json(
                "empty body; send a JSON object or raw .oiso text",
            ));
        } else {
            // Raw `.oiso` text with default config.
            draft.source = Some(body.to_string());
        }
        draft.build(endpoint, deadline)
    }

    /// The request's semantic fingerprint: a pure function of *what* is
    /// computed (endpoint, design, stimuli, config) — never of *how*
    /// (engine choice) or *when* (deadline, streaming).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        eat_str(&mut h, self.endpoint.label());
        h.u64(self.design.netlist.fingerprint());
        h.u64(self.design.stimuli.fingerprint());
        eat_str(&mut h, self.style.name());
        h.u64(self.cycles);
        h.u64(u64::from(self.lookahead));
        h.u64(self.budget as u64);
        h.u64(self.seed.map_or(u64::MAX, |s| s));
        // `engine` is deliberately absent: both engines produce the same
        // bytes, so a cached scalar result may answer a compiled request.
        h.finish()
    }

    /// The result-cache key, or `None` when the response may depend on
    /// wall time (a deadline is set) or is a progress stream, and must
    /// not be cached.
    pub fn cache_key(&self) -> Option<u64> {
        if self.deadline.is_some() || self.stream {
            return None;
        }
        Some(self.fingerprint())
    }

    /// Runs the handler. Engine failures become structured `422`
    /// responses; this never panics for malformed *input* (panics from
    /// pipeline bugs are caught by the worker's `catch_unwind`).
    pub fn execute(&self, memo: &SimMemo) -> Response {
        self.execute_at(memo, self.deadline.map(|d| Instant::now() + d))
    }

    /// [`Self::execute`] against an *absolute* wall deadline — the
    /// batch handler anchors one `Instant` and shares it across every
    /// item, so the whole fan-out runs under a single budget instead of
    /// each item restarting the clock.
    pub fn execute_at(&self, memo: &SimMemo, deadline_at: Option<Instant>) -> Response {
        match self.endpoint {
            Endpoint::Isolate => self.isolate(memo, deadline_at),
            Endpoint::Lint => self.lint(),
            Endpoint::Verify => self.verify(deadline_at),
            Endpoint::Simulate => self.simulate(memo),
            Endpoint::Analyze => self.analyze_activity(deadline_at),
            // GET endpoints are answered by the server, not here; a
            // batch inside a batch is rejected at parse time.
            Endpoint::Batch | Endpoint::Healthz | Endpoint::Metrics => {
                ApiError::not_found(self.endpoint.label()).to_response()
            }
        }
    }

    fn activation(&self) -> ActivationConfig {
        if self.lookahead {
            ActivationConfig::default().with_lookahead()
        } else {
            ActivationConfig::default()
        }
    }

    /// The isolation config shared by the blocking and streaming paths.
    fn isolation_config(&self, deadline_at: Option<Instant>) -> IsolationConfig {
        let mut run_budget = RunBudget::unlimited();
        if let Some(at) = deadline_at {
            run_budget = run_budget.with_wall_deadline(at);
        }
        let mut config = IsolationConfig::default()
            .with_style(self.style)
            .with_sim_cycles(self.cycles)
            .with_threads(1)
            .with_engine(self.engine)
            .with_budget(run_budget);
        config.activation = self.activation();
        config
    }

    fn isolate(&self, memo: &SimMemo, deadline_at: Option<Instant>) -> Response {
        let config = self.isolation_config(deadline_at);
        let outcome =
            match optimize_with_memo(&self.design.netlist, &self.design.stimuli, &config, memo)
            {
                Ok(outcome) => outcome,
                Err(e) => return ApiError::engine(e.to_string()).to_response(),
            };
        ok_json(self.render_isolate(&outcome))
    }

    fn render_isolate(&self, outcome: &IsolationOutcome) -> String {
        let isolated = json_array(outcome.isolated.iter().map(|record| {
            let mut item = JsonObj::new();
            item.str("cell", outcome.netlist.cell(record.candidate).name())
                .int("bits", record.isolated_bits as u64)
                .str("style", record.style.name());
            item.finish()
        }));
        let mut obj = self.request_echo();
        obj.bool("truncated", outcome.truncated)
            .int("iterations", outcome.iterations.len() as u64)
            .int("evaluated", outcome.evaluated as u64)
            .int("pre_skipped", outcome.pre_skipped.len() as u64)
            .int("skipped", outcome.skipped.len() as u64)
            .int("num_isolated", outcome.num_isolated() as u64)
            .raw("isolated", &isolated)
            .float("power_before_mw", outcome.power_before.as_mw())
            .float("power_after_mw", outcome.power_after.as_mw())
            .float("power_reduction_percent", outcome.power_reduction_percent())
            .float("area_before_um2", outcome.area_before.as_um2())
            .float("area_after_um2", outcome.area_after.as_um2())
            .float("area_increase_percent", outcome.area_increase_percent())
            .float("slack_before_ns", outcome.slack_before.as_ns())
            .float("slack_after_ns", outcome.slack_after.as_ns())
            .float("slack_reduction_percent", outcome.slack_reduction_percent());
        obj.finish()
    }

    fn lint(&self) -> Response {
        let options = LintOptions {
            activation: self.activation(),
            bdd_node_budget: self.budget,
        };
        let report = lint_netlist(&self.design.netlist, &options);
        let count = |sev: Severity| {
            report.diagnostics.iter().filter(|d| d.severity == sev).count() as u64
        };
        let mut obj = self.request_echo();
        obj.int("findings", report.diagnostics.len() as u64)
            .int("errors", count(Severity::Error))
            .int("warnings", count(Severity::Warn))
            .int("infos", count(Severity::Info))
            .raw("report", render_lint_json(&report).trim_end());
        ok_json(obj.finish())
    }

    fn verify(&self, deadline_at: Option<Instant>) -> Response {
        let acts = derive_activation_functions(&self.design.netlist, &self.activation());
        let plan: Vec<_> = self
            .design
            .netlist
            .arithmetic_cells()
            .filter_map(|cid| acts.get(&cid).map(|a| (cid, a.clone(), self.style)))
            .collect();
        let config = VerifyConfig {
            check: CheckConfig {
                node_budget: self.budget,
                assumption: None,
                deadline: deadline_at,
            },
            ..VerifyConfig::default()
        };
        let (_, checks) = match verify_isolation_plan(&self.design.netlist, &plan, &config) {
            Ok(result) => result,
            Err(e) => return ApiError::engine(e.to_string()).to_response(),
        };
        let (mut proved, mut sampled, mut skipped, mut violations) = (0u64, 0u64, 0u64, 0u64);
        let rendered = json_array(checks.iter().map(|check| {
            let mut item = JsonObj::new();
            item.str("candidate", &check.candidate)
                .str("style", check.style.name());
            match &check.outcome {
                VerifyOutcome::Verified(Proof::Bdd { observables }) => {
                    proved += 1;
                    item.str("outcome", "proved").int("observables", *observables as u64);
                }
                VerifyOutcome::Verified(Proof::Sampled { vectors }) => {
                    sampled += 1;
                    item.str("outcome", "sampled").int("vectors", *vectors as u64);
                }
                VerifyOutcome::Skipped { reason } => {
                    skipped += 1;
                    item.str("outcome", "skipped").str("reason", reason);
                }
                VerifyOutcome::Violation { replay, .. } => {
                    violations += 1;
                    item.str("outcome", "violation").str(
                        "replay",
                        match replay {
                            ReplayVerdict::Confirmed { .. } => "confirmed",
                            ReplayVerdict::Refuted => "refuted",
                        },
                    );
                }
            }
            item.finish()
        }));
        let mut obj = self.request_echo();
        obj.int("candidates", checks.len() as u64)
            .int("proved", proved)
            .int("sampled", sampled)
            .int("skipped", skipped)
            .int("violations", violations)
            .bool("clean", violations == 0)
            .raw("checks", &rendered);
        ok_json(obj.finish())
    }

    fn simulate(&self, memo: &SimMemo) -> Response {
        let lib = TechLibrary::generic_250nm();
        let cond = OperatingConditions::default();
        let report = match memo.run_with_engine(
            &self.design.netlist,
            &self.design.stimuli,
            self.cycles,
            self.engine,
        ) {
            Ok(report) => report,
            Err(e) => return ApiError::engine(e.to_string()).to_response(),
        };
        let breakdown = PowerEstimator::new(&lib, cond).estimate(&self.design.netlist, &report);
        let timing = analyze(&lib, &self.design.netlist, cond.clock_period());
        let mut obj = self.request_echo();
        obj.float("power_mw", breakdown.total.as_mw())
            .float("leakage_mw", breakdown.leakage.as_mw())
            .float("clock_mw", breakdown.clock.as_mw())
            .float("area_um2", total_area(&lib, &self.design.netlist).as_um2())
            .float("worst_slack_ns", timing.worst_slack.as_ns());
        ok_json(obj.finish())
    }

    fn analyze_activity(&self, deadline_at: Option<Instant>) -> Response {
        // The activity pass has no cooperative checkpoints, so deadline
        // awareness is a gate, not a truncation: an already-expired
        // budget sheds the work instead of starting an unbounded BDD
        // build it cannot stop.
        if let Some(at) = deadline_at {
            if Instant::now() >= at {
                return ApiError::engine("deadline expired before analysis started")
                    .to_response();
            }
        }
        let opts = oiso_activity::ActivityOptions {
            node_budget: self.budget,
            clock_period: None,
        };
        let report = oiso_activity::analyze_activity_with_plan(
            &self.design.netlist,
            &self.design.stimuli,
            &opts,
        );
        let cones = json_array(report.cones().iter().map(|cone| {
            let mut item = JsonObj::new();
            item.str("cell", self.design.netlist.cell(cone.cell).name())
                .float("operand_density", cone.operand_density)
                .float("output_density", cone.output_density)
                .float("glitch", cone.glitch);
            item.finish()
        }));
        let mut obj = self.request_echo();
        obj.float("clock_period_ns", report.clock_period_ns())
            .float("total_density", report.total_density())
            .float("total_glitch", report.total_glitch())
            .int("exact_nets", report.exact_nets as u64)
            .int("nets", self.design.netlist.num_nets() as u64)
            .int("bdd_nodes", report.bdd_nodes as u64)
            .bool("budget_blown", report.budget_blown)
            .raw("cones", &cones);
        ok_json(obj.finish())
    }

    /// The common response prefix echoing what was run on what — so a
    /// response is self-describing even when it came out of the cache.
    fn request_echo(&self) -> JsonObj {
        let mut obj = JsonObj::new();
        obj.str("endpoint", self.endpoint.label())
            .str("design", &self.design_label)
            .str("style", self.style.name())
            .int("cycles", self.cycles)
            .bool("lookahead", self.lookahead);
        obj
    }
}

/// A parsed `/v1/batch` request: items fan out under one shared budget.
///
/// Item-level *schema* failures (unknown design, bad field value) are
/// captured per item and reported in that item's result slot — one bad
/// item must not void sixty-three good ones. Envelope-level failures
/// (not an object, unknown top-level key, too many items) reject the
/// whole request with a structured `400`.
#[derive(Debug)]
pub struct BatchRequest {
    /// Items in request order; `Err` slots echo their parse failure.
    pub items: Vec<Result<ApiRequest, ApiError>>,
    /// Shared wall budget from `X-Oiso-Deadline-Ms`.
    pub deadline: Option<Duration>,
    /// `"stream": true` — emit per-item ndjson events as items finish
    /// (in item order) instead of one JSON body.
    pub stream: bool,
}

impl BatchRequest {
    /// Parses `{"items":[{...}, ...], "stream": bool}`.
    pub fn parse(req: &Request) -> Result<BatchRequest, ApiError> {
        let deadline = parse_deadline(req)?;
        let body = std::str::from_utf8(&req.body)
            .map_err(|_| ApiError::bad_request("request body is not UTF-8"))?;
        if !body.trim_start().starts_with('{') {
            return Err(ApiError::bad_json("batch body must be a JSON object"));
        }
        let value = json::parse(body).map_err(ApiError::bad_json)?;
        let fields = value
            .as_object()
            .ok_or_else(|| ApiError::bad_json("batch body must be a JSON object"))?;
        let mut items_value: Option<&[JsonValue]> = None;
        let mut stream = false;
        for (key, value) in fields {
            match key.as_str() {
                "items" => {
                    items_value = Some(value.as_array().ok_or_else(|| {
                        ApiError::bad_field("field \"items\" must be an array of objects")
                    })?)
                }
                "stream" => stream = typed(key, value.as_bool(), "a boolean")?,
                other => return Err(ApiError::unknown_field(other)),
            }
        }
        let items_value = items_value
            .ok_or_else(|| ApiError::bad_field("batch requires an \"items\" array"))?;
        if items_value.is_empty() {
            return Err(ApiError::bad_field("\"items\" must not be empty"));
        }
        if items_value.len() > MAX_BATCH_ITEMS {
            return Err(ApiError::bad_field(format!(
                "\"items\" holds {} entries; the cap is {MAX_BATCH_ITEMS}",
                items_value.len()
            )));
        }
        let items = items_value.iter().map(Self::parse_item).collect();
        Ok(BatchRequest {
            items,
            deadline,
            stream,
        })
    }

    fn parse_item(item: &JsonValue) -> Result<ApiRequest, ApiError> {
        let fields = item
            .as_object()
            .ok_or_else(|| ApiError::bad_field("batch item must be a JSON object"))?;
        let mut endpoint = Endpoint::Isolate;
        let mut draft = Draft::new();
        for (key, value) in fields {
            if !value.is_scalar() {
                return Err(ApiError::bad_field(format!("field {key:?} must be a scalar")));
            }
            match key.as_str() {
                "endpoint" => {
                    endpoint = parse_item_endpoint(typed(key, value.as_str(), "a string")?)?
                }
                "stream" => {
                    return Err(ApiError::bad_field(
                        "items may not set \"stream\"; stream the whole batch instead",
                    ))
                }
                _ => draft.apply(key, value)?,
            }
        }
        // Items carry no own deadline: the batch's budget is shared.
        draft.build(endpoint, None)
    }
}

fn parse_item_endpoint(raw: &str) -> Result<Endpoint, ApiError> {
    match raw {
        "isolate" => Ok(Endpoint::Isolate),
        "lint" => Ok(Endpoint::Lint),
        "verify" => Ok(Endpoint::Verify),
        "simulate" => Ok(Endpoint::Simulate),
        "analyze" => Ok(Endpoint::Analyze),
        other => Err(ApiError::bad_field(format!(
            "\"endpoint\" must be isolate|lint|verify|simulate|analyze, got {other:?}"
        ))),
    }
}

/// What [`run_batch`] produced, with the per-status counts the server
/// records as metrics.
#[derive(Debug)]
pub struct BatchOutcome {
    /// The rendered `200` envelope (always `200`; failures are
    /// per-item).
    pub response: Response,
    /// Items that returned `200`.
    pub ok: usize,
    /// Items that returned a structured error.
    pub error: usize,
    /// Items shed by the shared budget before they ran.
    pub shed: usize,
}

/// One executed batch item, rendered for embedding.
struct ItemResult {
    /// Inner response JSON, trailing newline trimmed.
    body: String,
    status: &'static str,
    cache: &'static str,
}

fn run_item(
    item: &Result<ApiRequest, ApiError>,
    memo: &SimMemo,
    cache: &ResultCache,
    store: Option<&ResultStore>,
    deadline_at: Option<Instant>,
    use_cache: bool,
) -> ItemResult {
    let render = |resp: &Response| String::from_utf8_lossy(&resp.body).trim_end().to_string();
    let req = match item {
        Ok(req) => req,
        Err(e) => {
            return ItemResult {
                body: render(&e.to_response()),
                status: "error",
                cache: CacheRole::Bypass.label(),
            }
        }
    };
    if deadline_at.is_some_and(|at| Instant::now() >= at) {
        return ItemResult {
            body: render(&ApiError::batch_shed().to_response()),
            status: "shed",
            cache: CacheRole::Bypass.label(),
        };
    }
    // A panicking handler must produce a well-formed slot, not tear the
    // batch envelope: catch it here, exactly like the worker does for
    // single requests.
    let compute = || {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            req.execute_at(memo, deadline_at)
        })) {
            Ok(resp) => resp,
            Err(payload) => {
                ApiError::internal_panic(oiso_par::panic_payload_text(&payload)).to_response()
            }
        }
    };
    let (response, role) = match req.cache_key().filter(|_| use_cache) {
        Some(key) => {
            cache.get_or_compute_with_store(key, store, req.endpoint.label(), compute)
        }
        None => (compute(), CacheRole::Bypass),
    };
    ItemResult {
        status: if response.status == 200 { "ok" } else { "error" },
        body: render(&response),
        cache: role.label(),
    }
}

/// Executes a non-streaming batch: dedups identical items, fans the
/// unique work out through [`oiso_par::parallel_map`] (`threads` wide),
/// and renders the envelope with results in item order — completion
/// order never leaks into the bytes.
pub fn run_batch(
    batch: &BatchRequest,
    memo: &SimMemo,
    cache: &ResultCache,
    store: Option<&ResultStore>,
    threads: usize,
) -> BatchOutcome {
    let deadline_at = batch.deadline.map(|d| Instant::now() + d);
    // A deadline-bearing batch bypasses the result cache: where the
    // budget lands is wall-clock dependent, so nothing it produces is a
    // function of the request alone.
    let use_cache = batch.deadline.is_none();

    // Dedup identical items up front so a batch of sixty-four copies
    // computes once, and so cache roles are deterministic: the first
    // occurrence computes (miss), duplicates report as hits.
    let mut first_of: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut unique: Vec<usize> = Vec::new();
    let mut slot: Vec<usize> = Vec::with_capacity(batch.items.len());
    for (i, item) in batch.items.iter().enumerate() {
        let fp = item.as_ref().ok().map(|r| r.fingerprint());
        match fp.and_then(|fp| first_of.get(&fp).copied()) {
            Some(existing) => slot.push(existing),
            None => {
                if let Some(fp) = fp {
                    first_of.insert(fp, unique.len());
                }
                slot.push(unique.len());
                unique.push(i);
            }
        }
    }
    let computed = oiso_par::parallel_map(threads, &unique, |_, &i| {
        run_item(&batch.items[i], memo, cache, store, deadline_at, use_cache)
    });

    let (mut ok, mut error, mut shed) = (0usize, 0usize, 0usize);
    let results = json_array((0..batch.items.len()).map(|i| {
        let r = &computed[slot[i]];
        let cache_label = if unique[slot[i]] == i { r.cache } else { "hit" };
        match r.status {
            "ok" => ok += 1,
            "shed" => shed += 1,
            _ => error += 1,
        }
        let mut obj = JsonObj::new();
        obj.int("index", i as u64)
            .str("status", r.status)
            .str("cache", cache_label)
            .raw("response", &r.body);
        obj.finish()
    }));
    let mut obj = JsonObj::new();
    obj.str("endpoint", "batch")
        .int("items", batch.items.len() as u64)
        .int("ok", ok as u64)
        .int("error", error as u64)
        .int("shed", shed as u64)
        .raw("results", &results);
    BatchOutcome {
        response: ok_json(obj.finish()),
        ok,
        error,
        shed,
    }
}

/// What a streaming handler did, for the server's metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamSummary {
    /// ndjson events written (including the terminal one).
    pub events: u64,
    /// Batch items that returned `200` (batch streams only).
    pub batch_ok: usize,
    /// Batch items that errored (batch streams only).
    pub batch_error: usize,
    /// Batch items shed by the shared budget (batch streams only).
    pub batch_shed: usize,
}

/// Streams one isolate run as ndjson progress events: an `accept` event
/// per accepted candidate — a [`StepTap`] observer on the same journal
/// append the checkpoint writer uses — then a `done` event carrying the
/// full report (or an `error` event). Write failures (client hung up)
/// are swallowed: the optimizer finishes on its own terms.
pub fn stream_isolate<W: std::io::Write + Send + 'static>(
    req: &ApiRequest,
    memo: &SimMemo,
    out: &Arc<Mutex<ChunkedWriter<W>>>,
) -> StreamSummary {
    let deadline_at = req.deadline.map(|d| Instant::now() + d);
    let accepts = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let tap_out = Arc::clone(out);
    let tap_accepts = Arc::clone(&accepts);
    let config = req
        .isolation_config(deadline_at)
        .with_progress(StepTap::new(move |step| {
            tap_accepts.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let mut obj = JsonObj::new();
            obj.str("event", "accept")
                .int("iteration", step.iteration as u64)
                .str("cell", &step.cell)
                .float("h", step.h)
                .float("saved_mw", step.saved)
                .float("power_mw", step.power);
            emit_event(&tap_out, obj.finish());
        }));
    let last = match optimize_with_memo(&req.design.netlist, &req.design.stimuli, &config, memo) {
        Ok(outcome) => {
            let mut obj = JsonObj::new();
            obj.str("event", "done")
                .raw("report", &req.render_isolate(&outcome));
            obj.finish()
        }
        Err(e) => {
            let mut obj = JsonObj::new();
            obj.str("event", "error")
                .str("code", "engine_error")
                .str("message", &e.to_string());
            obj.finish()
        }
    };
    emit_event(out, last);
    if let Ok(mut w) = out.lock() {
        let _ = w.finish();
    }
    StreamSummary {
        events: accepts.load(std::sync::atomic::Ordering::Relaxed) + 1,
        ..StreamSummary::default()
    }
}

/// Streams a batch as ndjson: one `item` event per item **in item
/// order** (items run sequentially — a progress stream that reordered
/// or interleaved items would be useless to tail), then a `done`
/// summary.
pub fn stream_batch<W: std::io::Write + Send + 'static>(
    batch: &BatchRequest,
    memo: &SimMemo,
    cache: &ResultCache,
    store: Option<&ResultStore>,
    out: &Arc<Mutex<ChunkedWriter<W>>>,
) -> StreamSummary {
    let deadline_at = batch.deadline.map(|d| Instant::now() + d);
    let use_cache = batch.deadline.is_none();
    let (mut ok, mut error, mut shed) = (0usize, 0usize, 0usize);
    for (i, item) in batch.items.iter().enumerate() {
        let r = run_item(item, memo, cache, store, deadline_at, use_cache);
        match r.status {
            "ok" => ok += 1,
            "shed" => shed += 1,
            _ => error += 1,
        }
        let mut obj = JsonObj::new();
        obj.str("event", "item")
            .int("index", i as u64)
            .str("status", r.status)
            .str("cache", r.cache)
            .raw("response", &r.body);
        emit_event(out, obj.finish());
    }
    let mut obj = JsonObj::new();
    obj.str("event", "done")
        .int("items", batch.items.len() as u64)
        .int("ok", ok as u64)
        .int("error", error as u64)
        .int("shed", shed as u64);
    emit_event(out, obj.finish());
    if let Ok(mut w) = out.lock() {
        let _ = w.finish();
    }
    StreamSummary {
        events: batch.items.len() as u64 + 1,
        batch_ok: ok,
        batch_error: error,
        batch_shed: shed,
    }
}

fn emit_event<W: std::io::Write>(out: &Arc<Mutex<ChunkedWriter<W>>>, mut line: String) {
    line.push('\n');
    if let Ok(mut w) = out.lock() {
        let _ = w.chunk(line.as_bytes());
    }
}

fn parse_engine(raw: &str) -> Result<EngineKind, ApiError> {
    raw.parse::<EngineKind>()
        .map_err(|e| ApiError::bad_field(format!("\"engine\": {e}")))
}

/// A field's value read by one of the `JsonValue::as_*` accessors, or
/// `400 bad_field` saying which type the field must have.
fn typed<T>(key: &str, value: Option<T>, kind: &str) -> Result<T, ApiError> {
    value.ok_or_else(|| ApiError::bad_field(format!("field {key:?} must be {kind}")))
}

fn ok_json(mut body: String) -> Response {
    body.push('\n');
    Response::json(200, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn routing_covers_every_endpoint_and_both_error_kinds() {
        assert_eq!(Endpoint::route("POST", "/v1/isolate").unwrap(), Endpoint::Isolate);
        assert_eq!(Endpoint::route("POST", "/v1/lint").unwrap(), Endpoint::Lint);
        assert_eq!(Endpoint::route("POST", "/v1/verify").unwrap(), Endpoint::Verify);
        assert_eq!(Endpoint::route("POST", "/v1/simulate").unwrap(), Endpoint::Simulate);
        assert_eq!(Endpoint::route("POST", "/v1/analyze").unwrap(), Endpoint::Analyze);
        assert_eq!(Endpoint::route("POST", "/v1/batch").unwrap(), Endpoint::Batch);
        assert_eq!(Endpoint::route("GET", "/healthz").unwrap(), Endpoint::Healthz);
        assert_eq!(Endpoint::route("GET", "/metrics").unwrap(), Endpoint::Metrics);
        assert_eq!(Endpoint::route("GET", "/nope").unwrap_err().code, "not_found");
        assert_eq!(
            Endpoint::route("GET", "/v1/isolate").unwrap_err().code,
            "method_not_allowed"
        );
        assert_eq!(
            Endpoint::route("POST", "/metrics").unwrap_err().code,
            "method_not_allowed"
        );
    }

    #[test]
    fn schema_rejections_have_stable_codes() {
        let cases: &[(&str, &str)] = &[
            ("{\"design\":\"figure1\",\"bogus\":1}", "unknown_field"),
            ("{\"design\":\"not_a_design\"}", "unknown_design"),
            ("{\"design\":\"figure1\",\"source\":\"x\"}", "bad_field"),
            ("{}", "bad_field"),
            ("{\"design\":\"figure1\",\"style\":\"nand\"}", "bad_field"),
            ("{\"design\":\"figure1\",\"cycles\":0}", "bad_field"),
            ("{\"design\":\"figure1\",\"cycles\":\"many\"}", "bad_field"),
            ("{\"design\":\"figure1\",\"lookahead\":\"yes\"}", "bad_field"),
            ("{\"design\":\"figure1\",\"engine\":\"verilog\"}", "bad_field"),
            ("{\"design\":\"figure1\",\"engine\":\"packed\"}", "bad_field"),
            ("{\"design\":\"figure1\",\"engine\":7}", "bad_field"),
            ("{\"design\":1}", "bad_field"),
            ("{\"design\"", "bad_json"),
            ("{\"design\":[\"figure1\"]}", "bad_json"),
            ("{\"design\":\"figure1\",\"seed\":{}}", "bad_json"),
            ("{\"design\":\"figure1\\ud83d\"}", "bad_json"),
            ("{\"design\":\"\\ude00\\ud83d\"}", "bad_json"),
            ("", "bad_json"),
            ("not an oiso design", "bad_design"),
        ];
        for (body, code) in cases {
            let err = ApiRequest::parse(Endpoint::Isolate, &post("/v1/isolate", body))
                .unwrap_err();
            assert_eq!(err.code, *code, "{body:?} -> {err}");
        }
    }

    #[test]
    fn batch_items_must_be_flat_objects_of_scalars() {
        let batch = BatchRequest::parse(&post(
            "/v1/batch",
            "{\"items\":[{\"design\":{\"name\":\"figure1\"}},7,\
             {\"design\":\"figure1\",\"lookahead\":1}],\"stream\":0}",
        ))
        .unwrap();
        assert!(!batch.stream);
        let codes: Vec<&str> = batch
            .items
            .iter()
            .map(|item| item.as_ref().map_or_else(|e| e.code, |_| "ok"))
            .collect();
        assert_eq!(codes, ["bad_field", "bad_field", "ok"]);
        assert!(batch.items[2].as_ref().unwrap().lookahead, "0/1 still read as booleans");
    }

    #[test]
    fn bad_deadline_header_is_rejected() {
        let mut req = post("/v1/isolate", "{\"design\":\"figure1\"}");
        req.headers
            .push((DEADLINE_HEADER.to_string(), "soon".to_string()));
        let err = ApiRequest::parse(Endpoint::Isolate, &req).unwrap_err();
        assert_eq!(err.code, "bad_deadline");
    }

    #[test]
    fn deadline_disables_the_cache_key() {
        let req = ApiRequest::parse(
            Endpoint::Isolate,
            &post("/v1/isolate", "{\"design\":\"figure1\"}"),
        )
        .unwrap();
        assert!(req.cache_key().is_some());
        let mut with_deadline = post("/v1/isolate", "{\"design\":\"figure1\"}");
        with_deadline
            .headers
            .push((DEADLINE_HEADER.to_string(), "1000".to_string()));
        let req = ApiRequest::parse(Endpoint::Isolate, &with_deadline).unwrap();
        assert!(req.cache_key().is_none());
    }

    #[test]
    fn cache_keys_separate_config_and_endpoint() {
        let key = |endpoint, body: &str| {
            ApiRequest::parse(endpoint, &post("/x", body))
                .unwrap()
                .cache_key()
                .unwrap()
        };
        let base = key(Endpoint::Isolate, "{\"design\":\"figure1\"}");
        assert_eq!(base, key(Endpoint::Isolate, "{ \"design\" : \"figure1\" }"));
        assert_ne!(base, key(Endpoint::Lint, "{\"design\":\"figure1\"}"));
        assert_ne!(base, key(Endpoint::Isolate, "{\"design\":\"figure1\",\"style\":\"or\"}"));
        assert_ne!(base, key(Endpoint::Isolate, "{\"design\":\"figure1\",\"cycles\":100}"));
        assert_ne!(base, key(Endpoint::Isolate, "{\"design\":\"figure1\",\"seed\":9}"));
        assert_ne!(base, key(Endpoint::Isolate, "{\"design\":\"design1\"}"));
        // Engines are bit-identical, so the engine choice shares the key.
        assert_eq!(base, key(Endpoint::Isolate, "{\"design\":\"figure1\",\"engine\":\"scalar\"}"));
        assert_eq!(base, key(Endpoint::Isolate, "{\"design\":\"figure1\",\"engine\":\"compiled\"}"));
    }

    #[test]
    fn analyze_reports_activity_and_defaults_its_own_budget() {
        let req = ApiRequest::parse(
            Endpoint::Analyze,
            &post("/v1/analyze", "{\"design\":\"figure1\"}"),
        )
        .unwrap();
        assert_eq!(req.budget, oiso_activity::DEFAULT_ACTIVITY_NODE_BUDGET);
        assert!(req.cache_key().is_some(), "analyze responses are cacheable");
        let resp = req.execute(&SimMemo::new());
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body.clone()).unwrap();
        assert!(body.contains("\"endpoint\":\"analyze\""), "{body}");
        assert!(body.contains("\"total_density\""), "{body}");
        assert!(body.contains("\"budget_blown\":false"), "{body}");
        assert!(body.contains("\"cones\""), "{body}");

        // An explicit budget overrides the analyze default.
        let req = ApiRequest::parse(
            Endpoint::Analyze,
            &post("/v1/analyze", "{\"design\":\"figure1\",\"budget\":5}"),
        )
        .unwrap();
        assert_eq!(req.budget, 5);

        // Other endpoints keep their historical 200k default.
        let req = ApiRequest::parse(
            Endpoint::Lint,
            &post("/v1/lint", "{\"design\":\"figure1\"}"),
        )
        .unwrap();
        assert_eq!(req.budget, 200_000);
    }

    #[test]
    fn analyze_sheds_on_an_expired_deadline() {
        let req = ApiRequest::parse(
            Endpoint::Analyze,
            &post("/v1/analyze", "{\"design\":\"figure1\"}"),
        )
        .unwrap();
        let resp = req.execute_at(&SimMemo::new(), Some(Instant::now() - Duration::from_secs(1)));
        assert_eq!(resp.status, 422, "expired deadline sheds the request");
    }

    #[test]
    fn engine_choice_shares_the_memo_and_the_bytes() {
        let parse = |engine: &str| {
            ApiRequest::parse(
                Endpoint::Simulate,
                &post(
                    "/v1/simulate",
                    &format!("{{\"design\":\"figure1\",\"cycles\":200,\"engine\":\"{engine}\"}}"),
                ),
            )
            .unwrap()
        };
        let memo = SimMemo::new();
        let scalar = parse("scalar").execute(&memo);
        assert_eq!(scalar.status, 200);
        assert_eq!(memo.stats().misses, 1);
        // A compiled request is served from the scalar-engine memo entry
        // and produces byte-identical output.
        let compiled = parse("compiled").execute(&memo);
        assert_eq!(compiled.status, 200);
        assert_eq!(memo.stats().hits, 1);
        assert_eq!(scalar.body, compiled.body);
        let fresh = parse("compiled").execute(&SimMemo::new());
        assert_eq!(scalar.body, fresh.body);
    }

    #[test]
    fn raw_oiso_bodies_parse_with_default_config() {
        let source = textfmt::emit(&oiso_designs::figure1::build());
        let req = ApiRequest::parse(Endpoint::Simulate, &post("/v1/simulate", &source)).unwrap();
        assert_eq!(req.design_label, "inline");
        assert_eq!(req.design.netlist.name(), "figure1");
        assert_eq!(req.cycles, 3000);
    }

    #[test]
    fn simulate_executes_end_to_end() {
        let req = ApiRequest::parse(
            Endpoint::Simulate,
            &post("/v1/simulate", "{\"design\":\"figure1\",\"cycles\":200}"),
        )
        .unwrap();
        let memo = SimMemo::new();
        let resp = req.execute(&memo);
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"endpoint\":\"simulate\""), "{body}");
        assert!(body.contains("\"power_mw\":"), "{body}");
        assert!(body.ends_with('\n'));
        // Identical request, same memo: the sim report is reused.
        assert_eq!(memo.stats().misses, 1);
        let resp2 = req.execute(&memo);
        assert_eq!(resp2.status, 200);
        assert_eq!(memo.stats().hits, 1);
    }

    #[test]
    fn isolate_responses_are_deterministic_bytes() {
        let parse = || {
            ApiRequest::parse(
                Endpoint::Isolate,
                &post(
                    "/v1/isolate",
                    "{\"design\":\"figure1\",\"cycles\":300,\"style\":\"and\"}",
                ),
            )
            .unwrap()
        };
        let a = parse().execute(&SimMemo::new());
        let b = parse().execute(&SimMemo::new());
        assert_eq!(a.status, 200);
        assert_eq!(a.body, b.body, "fresh memos, identical bytes");
        let body = String::from_utf8(a.body).unwrap();
        assert!(body.contains("\"truncated\":false"), "{body}");
        assert!(body.contains("\"num_isolated\":"), "{body}");
    }
}
