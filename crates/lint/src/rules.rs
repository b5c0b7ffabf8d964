//! The rule registry and the paper-grounded rules themselves.
//!
//! Every rule has a stable `OLxxx` code (codes are never reused for a
//! different meaning), a default severity, and a one-line summary used by
//! the SARIF renderer's rule metadata. See DESIGN.md §10 for the catalog
//! with the paper equation each rule guards.

use crate::dataflow::{self, Dataflow, NetValue};
use crate::diag::{Diagnostic, LintReport, Severity, Span};
use oiso_activity::{ActivityOptions, ActivityReport};
use oiso_boolex::BoolExpr;
use oiso_core::activation::{derive_activation_functions, ActivationConfig};
use oiso_core::precheck::{
    constant_check, feedback_net, ConstCheck, PrecheckVerdict, DEFAULT_PRECHECK_NODE_BUDGET,
};
use oiso_netlist::{CellId, CellKind, Fnv, NetId, Netlist, ValidateError};
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};

/// Knobs for one lint run.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Activation-function derivation knobs (shared with the optimizer so
    /// lint judges the same `f_c` the algorithm would use).
    pub activation: ActivationConfig,
    /// BDD node budget for the constant-activation rules; cones larger
    /// than this are left undecided rather than exploding.
    pub bdd_node_budget: usize,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            activation: ActivationConfig::default(),
            bdd_node_budget: DEFAULT_PRECHECK_NODE_BUDGET,
        }
    }
}

/// One registered rule.
pub struct Rule {
    /// Stable code (`OL001`…).
    pub code: &'static str,
    /// Kebab-case rule name.
    pub name: &'static str,
    /// Severity of a typical finding (individual findings may downgrade).
    pub default_severity: Severity,
    /// One-line description for rule metadata (SARIF `shortDescription`).
    pub summary: &'static str,
    check: fn(&LintContext) -> Vec<Diagnostic>,
}

/// Everything the rules share, computed once per lint run.
pub struct LintContext<'a> {
    netlist: &'a Netlist,
    options: &'a LintOptions,
    /// All structural violations (never bails on the first).
    structural: Vec<ValidateError>,
    /// `None` when structural errors make the semantic analyses unsafe
    /// (e.g. a combinational cycle would wedge the topological order).
    dataflow: Option<Dataflow>,
    /// Derived activation functions, keyed by cell. `None` like above.
    activations: Option<HashMap<CellId, BoolExpr>>,
    /// Constant-activation decisions, computed lazily on first use and
    /// shared by OL003/OL004 (so each candidate is decided — and counted —
    /// exactly once).
    constancy: OnceCell<Constancy>,
    /// Static switching-activity report, computed lazily on first use and
    /// shared by the activity rules OL011–OL014. Only built on
    /// structurally-sound netlists (the engine needs a topological order).
    activity: OnceCell<ActivityReport>,
}

/// How a candidate's constant-activation query was decided.
enum ConstDecision {
    /// The BDD fit the budget: the value is definitive.
    Proved(Option<bool>),
    /// Budget blown; the value comes from deterministic input sampling.
    Sampled(Option<bool>),
}

/// The shared OL003/OL004 work product plus the confidence counters that
/// end up on [`LintReport`].
struct Constancy {
    decisions: HashMap<CellId, ConstDecision>,
    proved: usize,
    sampled: usize,
}

/// Number of deterministic input vectors tried when the BDD budget blows.
const SAMPLE_VECTORS: u64 = 256;

/// Deterministic sampling fallback: evaluates `expr` on pseudo-random
/// input vectors (FNV-mixed from the vector index and signal identity, so
/// runs are reproducible) and reports `Some(value)` only if every vector
/// agreed.
fn sampled_constant(expr: &BoolExpr) -> Option<bool> {
    let mut all_true = true;
    let mut all_false = true;
    for v in 0..SAMPLE_VECTORS {
        let value = expr.eval(&|sig| {
            let mut h = Fnv::new();
            for word in [v, sig.net.index() as u64, sig.bit as u64] {
                h.u64(word);
            }
            h.finish().count_ones() % 2 == 1
        });
        all_true &= value;
        all_false &= !value;
        if !all_true && !all_false {
            return None;
        }
    }
    if all_true {
        Some(true)
    } else {
        Some(false)
    }
}

impl<'a> LintContext<'a> {
    fn new(netlist: &'a Netlist, options: &'a LintOptions) -> Self {
        let structural = netlist.validate_all();
        let sound = structural.is_empty();
        LintContext {
            netlist,
            options,
            structural,
            dataflow: sound.then(|| dataflow::analyze(netlist)),
            activations: sound.then(|| derive_activation_functions(netlist, &options.activation)),
            constancy: OnceCell::new(),
            activity: OnceCell::new(),
        }
    }

    /// Constant-activation decisions for every candidate (feedback-wired
    /// candidates excluded — their constancy is masked by the loop, and
    /// OL006 owns them).
    fn constancy(&self) -> &Constancy {
        self.constancy.get_or_init(|| {
            let mut c = Constancy {
                decisions: HashMap::new(),
                proved: 0,
                sampled: 0,
            };
            for (cid, act) in self.candidates() {
                // No pre-minimization here: `minimize` is an unbudgeted BDD
                // pass, and it must not decide a query the node budget says
                // we cannot afford to prove.
                if feedback_net(self.netlist, cid, act).is_some() {
                    continue;
                }
                let decision = match constant_check(act, self.options.bdd_node_budget) {
                    ConstCheck::Proved(v) => {
                        c.proved += 1;
                        ConstDecision::Proved(v)
                    }
                    ConstCheck::Undecided => {
                        c.sampled += 1;
                        ConstDecision::Sampled(sampled_constant(act))
                    }
                };
                c.decisions.insert(cid, decision);
            }
            c
        })
    }

    /// The shared static activity report. Callers must have checked that
    /// `structural` is empty (the engine needs an acyclic netlist).
    fn activity(&self) -> &ActivityReport {
        self.activity
            .get_or_init(|| oiso_activity::analyze_activity(self.netlist, &ActivityOptions::default()))
    }

    fn signal_name(&self, sig: oiso_boolex::Signal) -> String {
        let net = self.netlist.net(sig.net);
        if net.width() == 1 {
            net.name().to_string()
        } else {
            format!("{}[{}]", net.name(), sig.bit)
        }
    }

    /// Arithmetic cells with their activation functions — the paper's
    /// isolation candidates, in cell order.
    fn candidates(&self) -> Vec<(CellId, &BoolExpr)> {
        let Some(acts) = &self.activations else {
            return Vec::new();
        };
        self.netlist
            .cells()
            .filter(|(_, c)| c.kind().is_arithmetic())
            .filter_map(|(cid, _)| acts.get(&cid).map(|a| (cid, a)))
            .collect()
    }
}

/// The registry, in execution (and report) order.
pub const REGISTRY: &[Rule] = &[
    Rule {
        code: "OL001",
        name: "combinational-cycle",
        default_severity: Severity::Error,
        summary: "A combinational cycle makes simulation and timing analysis meaningless",
        check: rule_comb_cycle,
    },
    Rule {
        code: "OL002",
        name: "structural-violation",
        default_severity: Severity::Error,
        summary: "Undriven nets, inconsistent connectivity tables, or violated port conventions",
        check: rule_structural,
    },
    Rule {
        code: "OL003",
        name: "constant-true-activation",
        default_severity: Severity::Warn,
        summary: "f_c = 1: the module is always observable, isolation would be pure overhead",
        check: rule_constant_true,
    },
    Rule {
        code: "OL004",
        name: "constant-false-activation",
        default_severity: Severity::Warn,
        summary: "f_c = 0: the module's result is never observed, it is dead logic",
        check: rule_constant_false,
    },
    Rule {
        code: "OL005",
        name: "glitch-prone-activation",
        default_severity: Severity::Warn,
        summary: "The activation cone passes through a latch output (transparent-window hazard)",
        check: rule_glitch_prone,
    },
    Rule {
        code: "OL006",
        name: "isolation-feedback",
        default_severity: Severity::Error,
        summary: "The activation cone depends on the gated module's own output",
        check: rule_feedback,
    },
    Rule {
        code: "OL007",
        name: "double-isolation",
        default_severity: Severity::Warn,
        summary: "Stacked isolation banks with the same control gate the same operand twice",
        check: rule_double_isolation,
    },
    Rule {
        code: "OL008",
        name: "x-propagation",
        default_severity: Severity::Warn,
        summary: "A never-initialized state element drives a primary output with undefined values",
        check: rule_x_propagation,
    },
    Rule {
        code: "OL009",
        name: "width-truncation",
        default_severity: Severity::Info,
        summary: "A slice discards high bits of an arithmetic result",
        check: rule_width_truncation,
    },
    Rule {
        code: "OL010",
        name: "unobservable-cone",
        default_severity: Severity::Warn,
        summary: "Logic no primary output or state element observes; pruning should remove it",
        check: rule_unobservable,
    },
    Rule {
        code: "OL011",
        name: "activation-outtoggles-operands",
        default_severity: Severity::Warn,
        summary: "The activation cone toggles more than the operand activity isolation would save",
        check: rule_activation_outtoggles,
    },
    Rule {
        code: "OL012",
        name: "late-arriving-activation",
        default_severity: Severity::Warn,
        summary: "The activation signal arrives later than the operands it must gate (glitch-prone overlap)",
        check: rule_late_activation,
    },
    Rule {
        code: "OL013",
        name: "never-idle-cone",
        default_severity: Severity::Info,
        summary: "The cone's static idle probability is ~0, making isolation pure overhead",
        check: rule_never_idle,
    },
    Rule {
        code: "OL014",
        name: "clock-gating-candidate",
        default_severity: Severity::Info,
        summary: "A register feeds only always-observed arithmetic; clock gating would save what isolation cannot",
        check: rule_clock_gating_candidate,
    },
];

/// Lints one netlist with the full registry.
pub fn lint_netlist(netlist: &Netlist, options: &LintOptions) -> LintReport {
    let ctx = LintContext::new(netlist, options);
    let mut diagnostics = Vec::new();
    for rule in REGISTRY {
        diagnostics.extend((rule.check)(&ctx));
    }
    // The counters reflect what actually ran: on a structurally-broken
    // netlist OL003/OL004 never query, and both stay zero.
    let (proved, sampled) = ctx
        .constancy
        .get()
        .map_or((0, 0), |c| (c.proved, c.sampled));
    LintReport {
        design: netlist.name().to_string(),
        diagnostics,
        proved,
        sampled,
    }
}

// ---------------------------------------------------------------------------
// Structural rules (promoted `validate` findings)

fn rule_comb_cycle(ctx: &LintContext) -> Vec<Diagnostic> {
    ctx.structural
        .iter()
        .filter_map(|e| match e {
            ValidateError::CombinationalCycle(cell) => Some(Diagnostic {
                code: "OL001",
                name: "combinational-cycle",
                severity: Severity::Error,
                message: format!("combinational cycle passes through cell `{cell}`"),
                span: Span::Cell(cell.clone()),
                fix: Some("break the loop with a register or latch".to_string()),
            }),
            _ => None,
        })
        .collect()
}

fn rule_structural(ctx: &LintContext) -> Vec<Diagnostic> {
    ctx.structural
        .iter()
        .filter_map(|e| {
            let (message, span) = match e {
                ValidateError::CombinationalCycle(_) | ValidateError::DanglingNet(_) => {
                    return None; // covered by OL001 / OL010
                }
                ValidateError::UndrivenNet(net) => {
                    (format!("net `{net}` has no driver"), Span::Net(net.clone()))
                }
                ValidateError::InconsistentConnectivity(d) => {
                    (format!("inconsistent connectivity: {d}"), Span::Design)
                }
                ValidateError::PortViolation { cell, detail } => (
                    format!("cell `{cell}` violates its port convention: {detail}"),
                    Span::Cell(cell.clone()),
                ),
            };
            Some(Diagnostic {
                code: "OL002",
                name: "structural-violation",
                severity: Severity::Error,
                message,
                span,
                fix: None,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Activation rules (Section 3 of the paper)

fn rule_constant_true(ctx: &LintContext) -> Vec<Diagnostic> {
    constant_activation(ctx, PrecheckVerdict::ConstantTrue)
}

fn rule_constant_false(ctx: &LintContext) -> Vec<Diagnostic> {
    constant_activation(ctx, PrecheckVerdict::ConstantFalse)
}

fn constant_activation(ctx: &LintContext, want: PrecheckVerdict) -> Vec<Diagnostic> {
    let want_value = matches!(want, PrecheckVerdict::ConstantTrue);
    let mut out = Vec::new();
    for (cid, act) in ctx.candidates() {
        let Some(decision) = ctx.constancy().decisions.get(&cid) else {
            continue; // feedback-wired: OL006 owns it
        };
        let (value, sampled) = match decision {
            ConstDecision::Proved(v) => (*v, false),
            ConstDecision::Sampled(v) => (*v, true),
        };
        if value != Some(want_value) {
            continue;
        }
        // A sampled verdict is strong evidence, not a proof: say so.
        let confidence = if sampled {
            format!(" [sampled on {SAMPLE_VECTORS} vectors; BDD node budget exceeded]")
        } else {
            String::new()
        };
        let cell = ctx.netlist.cell(cid).name().to_string();
        let rendered = act.render(&|s| ctx.signal_name(s));
        out.push(match want {
            PrecheckVerdict::ConstantTrue => Diagnostic {
                code: "OL003",
                name: "constant-true-activation",
                severity: Severity::Warn,
                message: format!(
                    "activation of `{cell}` is constant 1 (f_c = {rendered}): the module is \
                     always observable, so isolating it would be pure overhead{confidence}"
                ),
                span: Span::Cell(cell),
                fix: Some(
                    "exclude this module from isolation, or revisit the control logic that \
                     keeps it always-on"
                        .to_string(),
                ),
            },
            PrecheckVerdict::ConstantFalse => Diagnostic {
                code: "OL004",
                name: "constant-false-activation",
                severity: Severity::Warn,
                message: format!(
                    "activation of `{cell}` is constant 0 (f_c = {rendered}): its result is \
                     never observed, the module is dead logic{confidence}"
                ),
                span: Span::Cell(cell),
                fix: Some("remove the module (run the optimizer) instead of isolating it".to_string()),
            },
            PrecheckVerdict::Feedback { .. } => unreachable!("filtered above"),
        });
    }
    out
}

fn rule_glitch_prone(ctx: &LintContext) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (cid, act) in ctx.candidates() {
        // Walk each support net's combinational fanin; a latch there means
        // the synthesized AS signal can glitch while the latch is
        // transparent, defeating the isolation bank.
        let mut latch_via: Option<(String, String)> = None;
        'support: for sig in act.support() {
            let mut stack = vec![sig.net];
            let mut seen: HashSet<NetId> = HashSet::new();
            while let Some(net) = stack.pop() {
                if !seen.insert(net) {
                    continue;
                }
                let Some(driver) = ctx.netlist.net(net).driver() else {
                    continue;
                };
                let kind = ctx.netlist.cell(driver).kind();
                if kind == CellKind::Latch {
                    latch_via = Some((
                        ctx.signal_name(sig),
                        ctx.netlist.cell(driver).name().to_string(),
                    ));
                    break 'support;
                }
                if kind.is_register() {
                    continue; // registered boundary: glitch-free
                }
                stack.extend(ctx.netlist.cell(driver).inputs().iter().copied());
            }
        }
        if let Some((signal, latch)) = latch_via {
            let cell = ctx.netlist.cell(cid).name().to_string();
            out.push(Diagnostic {
                code: "OL005",
                name: "glitch-prone-activation",
                severity: Severity::Warn,
                message: format!(
                    "activation of `{cell}` depends on `{signal}`, which is driven through \
                     latch `{latch}`: the activation signal can glitch while the latch is \
                     transparent"
                ),
                span: Span::Cell(cell),
                fix: Some(
                    "register the latch output before it enters the activation cone, or use \
                     LATCH-style isolation which is level-sensitive by construction"
                        .to_string(),
                ),
            });
        }
    }
    out
}

fn rule_feedback(ctx: &LintContext) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (cid, act) in ctx.candidates() {
        if let Some(net) = feedback_net(ctx.netlist, cid, act) {
            let via = ctx.netlist.net(net).name();
            let cell = ctx.netlist.cell(cid).name().to_string();
            out.push(Diagnostic {
                code: "OL006",
                name: "isolation-feedback",
                severity: Severity::Error,
                message: format!(
                    "activation of `{cell}` depends on net `{via}`, which `{cell}`'s own \
                     combinational fanout drives: isolating would create a combinational cycle"
                ),
                span: Span::Cell(cell),
                fix: Some(format!(
                    "register `{via}` (one cycle of delay breaks the loop) or exclude this \
                     module from isolation"
                )),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Structure rules

/// An isolation-bank-shaped cell: `(control net, gated data input net)`.
///
/// AND/OR banks gate a multi-bit operand with a replicated 1-bit control
/// (a `Concat` of the same bit); latch banks are recognized by their
/// enable directly.
fn bank_shape(netlist: &Netlist, cid: CellId) -> Option<(NetId, NetId)> {
    let cell = netlist.cell(cid);
    match cell.kind() {
        CellKind::Latch => Some((cell.inputs()[1], cell.inputs()[0])),
        CellKind::And | CellKind::Or => {
            let ins = cell.inputs();
            if ins.len() != 2 || netlist.net(cell.output()).width() < 2 {
                return None;
            }
            for (ctl_idx, data_idx) in [(0usize, 1usize), (1, 0)] {
                if let Some(ctl) = replicated_control(netlist, ins[ctl_idx]) {
                    return Some((ctl, ins[data_idx]));
                }
            }
            None
        }
        _ => None,
    }
}

/// The 1-bit net a `Concat`-replicated bundle fans out, if `net` is one.
fn replicated_control(netlist: &Netlist, net: NetId) -> Option<NetId> {
    let driver = netlist.net(net).driver()?;
    let cell = netlist.cell(driver);
    if cell.kind() != CellKind::Concat {
        return None;
    }
    let first = *cell.inputs().first()?;
    if netlist.net(first).width() != 1 {
        return None;
    }
    cell.inputs().iter().all(|&n| n == first).then_some(first)
}

fn rule_double_isolation(ctx: &LintContext) -> Vec<Diagnostic> {
    if ctx.structural.iter().any(|e| {
        !matches!(e, ValidateError::DanglingNet(_))
    }) {
        return Vec::new(); // structure is unreliable
    }
    let mut out = Vec::new();
    for (cid, _) in ctx.netlist.cells() {
        let Some((ctl_outer, data)) = bank_shape(ctx.netlist, cid) else {
            continue;
        };
        let Some(inner) = ctx.netlist.net(data).driver() else {
            continue;
        };
        let Some((ctl_inner, _)) = bank_shape(ctx.netlist, inner) else {
            continue;
        };
        // Identical controls gate the operand twice: the outer bank is
        // pure overhead. Different controls may be intentional nesting
        // (or a master-slave latch pair), so only same-control stacks are
        // flagged.
        if ctl_outer == ctl_inner {
            let outer_name = ctx.netlist.cell(cid).name().to_string();
            let inner_name = ctx.netlist.cell(inner).name().to_string();
            out.push(Diagnostic {
                code: "OL007",
                name: "double-isolation",
                severity: Severity::Warn,
                message: format!(
                    "isolation banks `{inner_name}` and `{outer_name}` gate the same operand \
                     with the same control `{}`: the outer bank is redundant overhead",
                    ctx.netlist.net(ctl_outer).name()
                ),
                span: Span::Cell(outer_name),
                fix: Some(format!("remove `{inner_name}` or the outer bank")),
            });
        }
    }
    out
}

fn rule_x_propagation(ctx: &LintContext) -> Vec<Diagnostic> {
    let Some(df) = &ctx.dataflow else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for &po in ctx.netlist.primary_outputs() {
        if df.value(po) == NetValue::X {
            let name = ctx.netlist.net(po).name().to_string();
            out.push(Diagnostic {
                code: "OL008",
                name: "x-propagation",
                severity: Severity::Warn,
                message: format!(
                    "primary output `{name}` can carry a permanently undefined value: a state \
                     element in its cone provably never loads defined data"
                ),
                span: Span::Net(name),
                fix: Some(
                    "fix the enable of the never-loading register/latch in the cone (the \
                     dataflow report marks it X)"
                        .to_string(),
                ),
            });
        }
    }
    out
}

fn rule_width_truncation(ctx: &LintContext) -> Vec<Diagnostic> {
    if !ctx.structural.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (_, cell) in ctx.netlist.cells() {
        let CellKind::Slice { hi, .. } = cell.kind() else {
            continue;
        };
        let src = cell.inputs()[0];
        let src_width = ctx.netlist.net(src).width();
        if hi + 1 >= src_width {
            continue; // keeps the MSBs: no truncation
        }
        let Some(driver) = ctx.netlist.net(src).driver() else {
            continue;
        };
        if !ctx.netlist.cell(driver).kind().is_arithmetic() {
            continue;
        }
        let cell_name = cell.name().to_string();
        let driver_name = ctx.netlist.cell(driver).name().to_string();
        out.push(Diagnostic {
            code: "OL009",
            name: "width-truncation",
            severity: Severity::Info,
            message: format!(
                "slice `{cell_name}` drops the top {} bit(s) of arithmetic result `{}` from \
                 `{driver_name}`: overflow is silently discarded",
                src_width - hi - 1,
                ctx.netlist.net(src).name()
            ),
            span: Span::Cell(cell_name),
            fix: Some("widen the slice or document the intended modular arithmetic".to_string()),
        });
    }
    out
}

fn rule_unobservable(ctx: &LintContext) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if let Some(df) = &ctx.dataflow {
        for (cid, cell) in ctx.netlist.cells() {
            if df.is_dead(cid) {
                let name = cell.name().to_string();
                out.push(Diagnostic {
                    code: "OL010",
                    name: "unobservable-cone",
                    severity: Severity::Warn,
                    message: format!(
                        "no primary output or state element observes cell `{name}`: it burns \
                         power for nothing"
                    ),
                    span: Span::Cell(name),
                    fix: Some("run the optimizer (`oiso_netlist::optimize_netlist`) to prune it".to_string()),
                });
            }
        }
    }
    // Dangling nets (the `validate_strict` findings, promoted): an unread
    // primary input is an interface choice (info); an unread internal net
    // is leftover logic (warn).
    for (_, net) in ctx.netlist.nets() {
        if net.loads().is_empty() && !net.is_primary_output() {
            let name = net.name().to_string();
            let (severity, message) = if net.is_primary_input() {
                (
                    Severity::Info,
                    format!("primary input `{name}` is never read"),
                )
            } else {
                (
                    Severity::Warn,
                    format!("net `{name}` is dangling: no loads and not a primary output"),
                )
            };
            out.push(Diagnostic {
                code: "OL010",
                name: "unobservable-cone",
                severity,
                message,
                span: Span::Net(name),
                fix: Some("remove the net or export it as a primary output".to_string()),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Activity rules (static switching-activity & arrival-window analysis)

/// Idle-probability threshold above which a cone counts as "never idle".
const NEVER_IDLE_P: f64 = 0.99;

/// Activation toggle rates below this never fire OL011 (the control power
/// of a near-silent activation signal is noise either way).
const OUTTOGGLE_FLOOR: f64 = 0.01;

/// Fraction of the clock period the activation may lag the operands
/// before OL012 calls the overlap glitch-prone.
const LATE_ARRIVAL_SLACK: f64 = 0.05;

fn rule_activation_outtoggles(ctx: &LintContext) -> Vec<Diagnostic> {
    if !ctx.structural.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (cid, act) in ctx.candidates() {
        let activity = ctx.activity();
        let ea = activity.expr_activity(act, ctx.options.bdd_node_budget);
        let operand_density: f64 = ctx
            .netlist
            .cell(cid)
            .data_inputs()
            .map(|n| activity.density(n))
            .sum();
        // Expected savings scale with operand activity *while idle*; the
        // isolation bank's control input burns `d_act` regardless.
        let expected_savings = (1.0 - ea.p).clamp(0.0, 1.0) * operand_density;
        if ea.d > OUTTOGGLE_FLOOR && ea.d > expected_savings {
            let cell = ctx.netlist.cell(cid).name().to_string();
            out.push(Diagnostic {
                code: "OL011",
                name: "activation-outtoggles-operands",
                severity: Severity::Warn,
                message: format!(
                    "activation of `{cell}` toggles {:.3}/cycle but would save only \
                     {:.3}/cycle of idle operand activity: the isolation control costs \
                     more switching than it suppresses",
                    ea.d, expected_savings
                ),
                span: Span::Cell(cell),
                fix: Some(
                    "derive a calmer activation (register it, or AND it with a coarser \
                     enable) or exclude this module from isolation"
                        .to_string(),
                ),
            });
        }
    }
    out
}

fn rule_late_activation(ctx: &LintContext) -> Vec<Diagnostic> {
    if !ctx.structural.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (cid, act) in ctx.candidates() {
        let activity = ctx.activity();
        let act_arrival = act
            .support()
            .iter()
            .map(|s| activity.arrival_ns(s.net))
            .fold(0.0f64, f64::max);
        let operand_arrival = ctx
            .netlist
            .cell(cid)
            .data_inputs()
            .map(|n| activity.arrival_ns(n))
            .fold(0.0f64, f64::max);
        let slack = LATE_ARRIVAL_SLACK * activity.clock_period_ns();
        if act_arrival > operand_arrival + slack {
            let cell = ctx.netlist.cell(cid).name().to_string();
            out.push(Diagnostic {
                code: "OL012",
                name: "late-arriving-activation",
                severity: Severity::Warn,
                message: format!(
                    "activation of `{cell}` settles at {act_arrival:.2} ns, after its \
                     operands ({operand_arrival:.2} ns): the isolation bank re-evaluates \
                     on every activation glitch in the overlap window"
                ),
                span: Span::Cell(cell),
                fix: Some(
                    "retime the activation cone (compute it a cycle early and register \
                     it) so the gate is stable before the operands arrive"
                        .to_string(),
                ),
            });
        }
    }
    out
}

fn rule_never_idle(ctx: &LintContext) -> Vec<Diagnostic> {
    if !ctx.structural.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (cid, act) in ctx.candidates() {
        // Proved constants are OL003's finding; this rule is about cones
        // that are *statistically* always-on without being constant.
        if matches!(
            ctx.constancy().decisions.get(&cid),
            Some(ConstDecision::Proved(Some(_))) | None
        ) {
            continue;
        }
        let ea = ctx.activity().expr_activity(act, ctx.options.bdd_node_budget);
        if ea.p >= NEVER_IDLE_P {
            let cell = ctx.netlist.cell(cid).name().to_string();
            out.push(Diagnostic {
                code: "OL013",
                name: "never-idle-cone",
                severity: Severity::Info,
                message: format!(
                    "`{cell}` is observable {:.1}% of cycles under the static activity \
                     model: isolation hardware would almost never engage",
                    ea.p * 100.0
                ),
                span: Span::Cell(cell),
                fix: Some(
                    "deprioritize this candidate; its savings term is statistically \
                     negligible (paper Eq. 1)"
                        .to_string(),
                ),
            });
        }
    }
    out
}

fn rule_clock_gating_candidate(ctx: &LintContext) -> Vec<Diagnostic> {
    if !ctx.structural.is_empty() {
        return Vec::new();
    }
    let Some(acts) = &ctx.activations else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (_, cell) in ctx.netlist.cells() {
        if !cell.kind().is_register() {
            continue;
        }
        let q = cell.output();
        let loads = ctx.netlist.net(q).loads();
        if loads.is_empty() {
            continue;
        }
        // Every consumer must be an always-observed arithmetic candidate:
        // operand isolation can save nothing downstream, but gating this
        // register's clock would stop the whole cone from re-evaluating.
        let all_always_observed = loads.iter().all(|&(load, _)| {
            ctx.netlist.cell(load).kind().is_arithmetic()
                && acts.get(&load).is_some_and(|act| {
                    ctx.activity()
                        .expr_activity(act, ctx.options.bdd_node_budget)
                        .p
                        >= NEVER_IDLE_P
                })
        });
        if all_always_observed {
            let name = cell.name().to_string();
            out.push(Diagnostic {
                code: "OL014",
                name: "clock-gating-candidate",
                severity: Severity::Info,
                message: format!(
                    "register `{name}` feeds only always-observed arithmetic: operand \
                     isolation cannot help downstream, but clock-gating this register \
                     would idle the whole cone"
                ),
                span: Span::Cell(name),
                fix: Some(
                    "consider a clock-gating transform for this register (future work; \
                     the activity report already provides the enable statistics)"
                        .to_string(),
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oiso_netlist::{CellKind, NetlistBuilder};

    fn lint(netlist: &Netlist) -> LintReport {
        lint_netlist(netlist, &LintOptions::default())
    }

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn constant_true_activation_through_mux_is_flagged() {
        // The adder feeds BOTH data inputs of the output mux, so its
        // activation is `!s + s` — a tautology over one variable that only
        // the BDD (not the syntactic filter) can prove constant.
        let mut b = NetlistBuilder::new("ct");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let s = b.input("s", 1);
        let sum = b.wire("sum", 8);
        let m = b.wire("m", 8);
        b.cell("add", CellKind::Add, &[a, c], sum).unwrap();
        b.cell("mx", CellKind::Mux, &[s, sum, sum], m).unwrap();
        b.mark_output(m);
        let n = b.build().unwrap();
        let r = lint(&n);
        assert!(codes(&r).contains(&"OL003"), "{r:?}");
        let d = r.diagnostics.iter().find(|d| d.code == "OL003").unwrap();
        assert_eq!(d.severity, Severity::Warn);
        assert_eq!(d.span, crate::diag::Span::Cell("add".into()));
        assert!(d.fix.is_some());
    }

    #[test]
    fn dead_adder_is_constant_false_and_unobservable() {
        let mut b = NetlistBuilder::new("cf");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let s = b.wire("s", 8);
        let o = b.wire("o", 8);
        b.cell("add", CellKind::Add, &[a, c], s).unwrap();
        b.cell("buf", CellKind::Buf, &[a], o).unwrap();
        b.mark_output(o);
        let n = b.build().unwrap();
        let r = lint(&n);
        let cs = codes(&r);
        assert!(cs.contains(&"OL004"), "dead module activation: {r:?}");
        assert!(cs.contains(&"OL010"), "dead cell + dangling net: {r:?}");
    }

    #[test]
    fn latch_fed_activation_cone_is_glitch_prone() {
        let mut b = NetlistBuilder::new("gl");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let d = b.input("d", 1);
        let len = b.input("len", 1);
        let lq = b.wire("lq", 1);
        let p = b.wire("p", 8);
        let q = b.wire("q", 8);
        b.cell("lat", CellKind::Latch, &[d, len], lq).unwrap();
        b.cell("mul", CellKind::Mul, &[a, c], p).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[p, lq], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let r = lint(&n);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "OL005")
            .unwrap_or_else(|| panic!("expected OL005 in {r:?}"));
        assert!(d.message.contains("lat"), "{}", d.message);
        assert_eq!(d.span, crate::diag::Span::Cell("mul".into()));
    }

    #[test]
    fn activation_feedback_is_an_error() {
        // Self-gating: the register loads the sum only when the sum is
        // nonzero (and `g`), so the enable `w` is computed from the adder's
        // own output. AS_add = w + g, and `w` lives inside the adder's
        // combinational fanout — isolating would tie a loop.
        let mut b = NetlistBuilder::new("fb");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let g = b.input("g", 1);
        let s = b.wire("s", 8);
        let nz = b.wire("nz", 1);
        let w = b.wire("w", 1);
        let q = b.wire("q", 8);
        b.cell("add", CellKind::Add, &[a, c], s).unwrap();
        b.cell("red", CellKind::RedOr, &[s], nz).unwrap();
        b.cell("gate", CellKind::And, &[nz, g], w).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[s, w], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let r = lint(&n);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "OL006")
            .unwrap_or_else(|| panic!("expected OL006 in {r:?}"));
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("`w`"), "{}", d.message);
        assert!(!r.clean(Severity::Error));
    }

    #[test]
    fn stacked_banks_with_same_control_are_double_isolation() {
        let mut b = NetlistBuilder::new("di");
        let data = b.input("data", 8);
        let ctl = b.input("ctl", 1);
        let rep = b.wire("rep", 8);
        let g1 = b.wire("g1", 8);
        let g2 = b.wire("g2", 8);
        b.cell("rep8", CellKind::Concat, &[ctl; 8], rep).unwrap();
        b.cell("bank_in", CellKind::And, &[rep, data], g1).unwrap();
        b.cell("bank_out", CellKind::And, &[rep, g1], g2).unwrap();
        b.mark_output(g2);
        let n = b.build().unwrap();
        let r = lint(&n);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "OL007")
            .unwrap_or_else(|| panic!("expected OL007 in {r:?}"));
        assert!(d.message.contains("bank_in") && d.message.contains("bank_out"));
    }

    #[test]
    fn different_controls_are_not_double_isolation() {
        let mut b = NetlistBuilder::new("nd");
        let data = b.input("data", 8);
        let c0 = b.input("c0", 1);
        let c1 = b.input("c1", 1);
        let r0 = b.wire("r0", 8);
        let r1 = b.wire("r1", 8);
        let g1 = b.wire("g1", 8);
        let g2 = b.wire("g2", 8);
        b.cell("rep0", CellKind::Concat, &[c0; 8], r0).unwrap();
        b.cell("rep1", CellKind::Concat, &[c1; 8], r1).unwrap();
        b.cell("bank_in", CellKind::And, &[r0, data], g1).unwrap();
        b.cell("bank_out", CellKind::And, &[r1, g1], g2).unwrap();
        b.mark_output(g2);
        let n = b.build().unwrap();
        assert!(!codes(&lint(&n)).contains(&"OL007"));
    }

    #[test]
    fn never_enabled_register_propagates_x_to_output() {
        let mut b = NetlistBuilder::new("xp");
        let d = b.input("d", 8);
        let zero = b.constant("zero", 1, 0).unwrap();
        let q = b.wire("q", 8);
        b.cell("r", CellKind::Reg { has_enable: true }, &[d, zero], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let r = lint(&n);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "OL008")
            .unwrap_or_else(|| panic!("expected OL008 in {r:?}"));
        assert_eq!(d.span, crate::diag::Span::Net("q".into()));
    }

    #[test]
    fn sliced_arithmetic_result_is_width_truncation() {
        let mut b = NetlistBuilder::new("wt");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let s = b.wire("s", 8);
        let lo = b.wire("lo", 4);
        b.cell("add", CellKind::Add, &[a, c], s).unwrap();
        b.cell("sl", CellKind::Slice { lo: 0, hi: 3 }, &[s], lo)
            .unwrap();
        b.mark_output(lo);
        let n = b.build().unwrap();
        let r = lint(&n);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "OL009")
            .unwrap_or_else(|| panic!("expected OL009 in {r:?}"));
        assert_eq!(d.severity, Severity::Info);
        assert!(d.message.contains("4 bit(s)"), "{}", d.message);
    }

    #[test]
    fn msb_slice_is_not_truncation() {
        let mut b = NetlistBuilder::new("ms");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let s = b.wire("s", 8);
        let hi = b.wire("hi", 4);
        b.cell("add", CellKind::Add, &[a, c], s).unwrap();
        b.cell("sl", CellKind::Slice { lo: 4, hi: 7 }, &[s], hi)
            .unwrap();
        b.mark_output(s);
        b.mark_output(hi);
        let n = b.build().unwrap();
        assert!(!codes(&lint(&n)).contains(&"OL009"));
    }

    #[test]
    fn unread_primary_input_is_info_only() {
        let mut b = NetlistBuilder::new("pi");
        let a = b.input("a", 8);
        let _unused = b.input("unused", 4);
        let o = b.wire("o", 8);
        b.cell("buf", CellKind::Buf, &[a], o).unwrap();
        b.mark_output(o);
        let n = b.build().unwrap();
        let r = lint(&n);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "OL010")
            .unwrap_or_else(|| panic!("expected OL010 in {r:?}"));
        assert_eq!(d.severity, Severity::Info);
        assert!(r.clean(Severity::Warn));
    }

    #[test]
    fn combinational_cycle_suppresses_semantic_rules() {
        // Corrupt a valid netlist into a self-loop, the way a buggy
        // transform would.
        let mut b = NetlistBuilder::new("cy");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let x = b.wire("x", 8);
        let y = b.wire("y", 8);
        b.cell("g", CellKind::And, &[a, c], x).unwrap();
        b.cell("h", CellKind::Buf, &[x], y).unwrap();
        b.mark_output(y);
        let mut n = b.build().unwrap();
        let g = n.find_cell("g").unwrap();
        let xn = n.find_net("x").unwrap();
        n.rewire_input(g, 1, xn).unwrap();
        let r = lint(&n);
        let cs = codes(&r);
        assert!(cs.contains(&"OL001"), "{r:?}");
        assert!(
            !cs.iter().any(|c| matches!(
                *c,
                "OL003" | "OL004" | "OL005" | "OL006" | "OL008" | "OL011" | "OL012" | "OL013"
                    | "OL014"
            )),
            "semantic rules must not run on a cyclic netlist: {r:?}"
        );
        assert!(!r.clean(Severity::Error));
    }

    #[test]
    fn clean_design_yields_no_errors() {
        let mut b = NetlistBuilder::new("ok");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let g = b.input("g", 1);
        let s = b.wire("s", 8);
        let q = b.wire("q", 8);
        b.cell("add", CellKind::Add, &[a, c], s).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[s, g], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let r = lint(&n);
        assert!(r.clean(Severity::Info), "expected a fully clean report: {r:?}");
    }

    #[test]
    fn blown_budget_falls_back_to_sampling() {
        // The adder feeds all four legs of a 4-way mux, so its activation is
        // the sum of all four select minterms — a two-variable tautology the
        // expression smart constructors cannot collapse. With a 1-node BDD
        // budget the prover cannot decide it either, so the verdict must
        // come from the deterministic sampler — still flagged, but counted
        // as sampled and labeled in the message.
        let mut b = NetlistBuilder::new("bb");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let s = b.input("s", 2);
        let sum = b.wire("sum", 8);
        let m = b.wire("m", 8);
        b.cell("add", CellKind::Add, &[a, c], sum).unwrap();
        b.cell("mx", CellKind::Mux, &[s, sum, sum, sum, sum], m)
            .unwrap();
        b.mark_output(m);
        let n = b.build().unwrap();
        let opts = LintOptions {
            bdd_node_budget: 1,
            ..LintOptions::default()
        };
        let r = lint_netlist(&n, &opts);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "OL003")
            .unwrap_or_else(|| panic!("expected OL003 via sampling in {r:?}"));
        assert!(
            d.message.contains("sampled on 256 vectors"),
            "sampled verdicts must be labeled: {}",
            d.message
        );
        assert_eq!(r.proved, 0, "nothing fits in a 1-node budget: {r:?}");
        assert!(r.sampled > 0, "{r:?}");

        // The same design under the default budget is proved, not sampled.
        let r = lint(&n);
        assert!(r.proved > 0, "{r:?}");
        assert_eq!(r.sampled, 0, "{r:?}");
        let d = r.diagnostics.iter().find(|d| d.code == "OL003").unwrap();
        assert!(!d.message.contains("sampled"), "{}", d.message);
    }

    #[test]
    fn noisy_activation_of_quiet_operands_outtoggles() {
        // The adder's operands are literal constants (zero switching), so
        // any activity on the activation net costs more than isolation saves.
        let mut b = NetlistBuilder::new("ot");
        let g = b.input("g", 1);
        let k1 = b.constant("k1", 8, 5).unwrap();
        let k2 = b.constant("k2", 8, 3).unwrap();
        let s = b.wire("s", 8);
        let q = b.wire("q", 8);
        b.cell("add", CellKind::Add, &[k1, k2], s).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[s, g], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let r = lint(&n);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "OL011")
            .unwrap_or_else(|| panic!("expected OL011 in {r:?}"));
        assert_eq!(d.severity, Severity::Warn);
        assert_eq!(d.span, crate::diag::Span::Cell("add".into()));
    }

    #[test]
    fn activation_through_multiplier_arrives_late() {
        // The adder's enable is a zero-detect on a multiplier product:
        // ~3.3 ns of settling versus operands that arrive at t=0, far past
        // the 5%-of-period (0.5 ns at 100 MHz) slack OL012 allows.
        let mut b = NetlistBuilder::new("la");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let d_in = b.input("d", 8);
        let p = b.wire("p", 8);
        let nz = b.wire("nz", 1);
        let s = b.wire("s", 8);
        let q = b.wire("q", 8);
        b.cell("mul", CellKind::Mul, &[a, c], p).unwrap();
        b.cell("red", CellKind::RedOr, &[p], nz).unwrap();
        b.cell("add", CellKind::Add, &[a, d_in], s).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[s, nz], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let r = lint(&n);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "OL012" && d.span == crate::diag::Span::Cell("add".into()))
            .unwrap_or_else(|| panic!("expected OL012 on `add` in {r:?}"));
        assert_eq!(d.severity, Severity::Warn);
    }

    #[test]
    fn statistically_always_on_cone_is_never_idle() {
        // en = OR over 7 equiprobable bits: observable 127/128 ≈ 99.2% of
        // cycles — not provably constant (OL003 stays silent), but idle so
        // rarely that isolation hardware is statistically dead weight.
        let mut b = NetlistBuilder::new("ni");
        let a = b.input("a", 8);
        let c = b.input("c", 8);
        let g7 = b.input("g7", 7);
        let en = b.wire("en", 1);
        let s = b.wire("s", 8);
        let q = b.wire("q", 8);
        b.cell("red", CellKind::RedOr, &[g7], en).unwrap();
        b.cell("add", CellKind::Add, &[a, c], s).unwrap();
        b.cell("r", CellKind::Reg { has_enable: true }, &[s, en], q)
            .unwrap();
        b.mark_output(q);
        let n = b.build().unwrap();
        let r = lint(&n);
        let cs = codes(&r);
        assert!(!cs.contains(&"OL003"), "en is not constant: {r:?}");
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "OL013")
            .unwrap_or_else(|| panic!("expected OL013 in {r:?}"));
        assert_eq!(d.severity, Severity::Info);
        assert_eq!(d.span, crate::diag::Span::Cell("add".into()));
    }

    #[test]
    fn register_feeding_always_observed_adder_suggests_clock_gating() {
        // `r`'s only consumer is an adder that drives a primary output
        // directly (activation ≡ 1): operand isolation has nothing to gate
        // downstream, but stopping `r`'s clock would idle the whole cone.
        let mut b = NetlistBuilder::new("cg");
        let a = b.input("a", 8);
        let d_in = b.input("d", 8);
        let g = b.input("g", 1);
        let q = b.wire("q", 8);
        let s = b.wire("s", 8);
        b.cell("r", CellKind::Reg { has_enable: true }, &[d_in, g], q)
            .unwrap();
        b.cell("add", CellKind::Add, &[a, q], s).unwrap();
        b.mark_output(s);
        let n = b.build().unwrap();
        let r = lint(&n);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "OL014")
            .unwrap_or_else(|| panic!("expected OL014 in {r:?}"));
        assert_eq!(d.severity, Severity::Info);
        assert_eq!(d.span, crate::diag::Span::Cell("r".into()));
    }

    #[test]
    fn registry_codes_are_unique_and_ordered() {
        let mut codes: Vec<&str> = REGISTRY.iter().map(|r| r.code).collect();
        let orig = codes.clone();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), REGISTRY.len(), "duplicate rule codes");
        assert_eq!(orig, codes, "registry should be sorted by code");
    }
}
