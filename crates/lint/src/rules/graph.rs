//! Structural netlist rules (`AQFP-E001` … `AQFP-W009`).

use std::collections::HashMap;

use aqfp_netlist::parsers::PLACEHOLDER_PREFIX;
use aqfp_netlist::{GateId, Netlist};

use crate::context::LintContext;
use crate::diagnostics::Severity;
use crate::rules::{Finding, Rule};

/// How many findings a potentially unbounded rule reports before folding the
/// rest into a single summary finding.
const FINDING_CAP: usize = 25;

/// `AQFP-E001`: the netlist contains a combinational loop. AQFP synthesis
/// requires a DAG; a loop makes levelization, simulation and path balancing
/// all impossible.
pub struct CombinationalLoop;

impl Rule for CombinationalLoop {
    fn id(&self) -> &'static str {
        "AQFP-E001"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn summary(&self) -> &'static str {
        "combinational feedback loop (the flow requires a DAG)"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Finding> {
        let Some(n) = ctx.netlist else { return Vec::new() };
        let mut findings = Vec::new();
        // Iterative three-colour DFS over fan-in edges; a grey neighbour is a
        // back edge closing a loop, and `path` holds the loop's gates.
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        let mut colour = vec![WHITE; n.gate_count()];
        for root in n.ids() {
            if colour[root.index()] != WHITE {
                continue;
            }
            colour[root.index()] = GREY;
            let mut stack = vec![(root, 0usize)];
            let mut path = vec![root];
            while let Some(frame) = stack.last_mut() {
                let (id, pin) = *frame;
                let fanin = &n.gate(id).fanin;
                if pin < fanin.len() {
                    frame.1 += 1;
                    let child = fanin[pin];
                    match colour.get(child.index()).copied() {
                        Some(WHITE) => {
                            colour[child.index()] = GREY;
                            stack.push((child, 0));
                            path.push(child);
                        }
                        Some(GREY) if findings.len() < FINDING_CAP => {
                            findings.push(loop_finding(n, &path, child));
                        }
                        // Black (done) or dangling: nothing to do here.
                        _ => {}
                    }
                } else {
                    colour[id.index()] = 2;
                    stack.pop();
                    path.pop();
                }
            }
        }
        findings
    }
}

/// Renders the loop closed by the back edge `… -> head` in signal-flow order.
fn loop_finding(netlist: &Netlist, path: &[GateId], head: GateId) -> Finding {
    let start = path.iter().position(|&id| id == head).unwrap_or(0);
    // `path` follows fan-in (gate -> driver) edges; reverse it so the arrows
    // follow signal flow (driver -> sink).
    let mut names: Vec<&str> =
        path[start..].iter().rev().map(|&id| netlist.gate(id).name.as_str()).collect();
    if let Some(&first) = names.first() {
        names.push(first);
    }
    let head_gate = netlist.gate(head);
    Finding::on(
        head_gate.name.clone(),
        netlist.span(head),
        format!("combinational loop: {}", names.join(" -> ")),
    )
}

/// `AQFP-E002`: a net is referenced but never driven. Surfaces both the
/// constant-0 placeholders the recovering parsers inject and fan-in ids that
/// point outside the gate table.
pub struct UndrivenNet;

impl Rule for UndrivenNet {
    fn id(&self) -> &'static str {
        "AQFP-E002"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn summary(&self) -> &'static str {
        "a referenced net or declared output has no driver"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Finding> {
        let Some(n) = ctx.netlist else { return Vec::new() };
        let mut findings = Vec::new();
        for (id, gate) in n.iter() {
            if let Some(signal) = gate.name.strip_prefix(PLACEHOLDER_PREFIX) {
                findings.push(Finding::on(
                    signal,
                    n.span(id),
                    format!("net `{signal}` is never driven (parser bound it to constant 0)"),
                ));
            }
            for (pin, &driver) in gate.fanin.iter().enumerate() {
                if driver.index() >= n.gate_count() {
                    findings.push(Finding::on(
                        gate.name.clone(),
                        n.span(id),
                        format!(
                            "instance `{}` pin {pin} references gate id {} outside the netlist",
                            gate.name,
                            driver.index()
                        ),
                    ));
                }
            }
        }
        findings
    }
}

/// `AQFP-E003`: a gate's fan-in count does not match its cell kind's input
/// count.
pub struct ArityMismatch;

impl Rule for ArityMismatch {
    fn id(&self) -> &'static str {
        "AQFP-E003"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn summary(&self) -> &'static str {
        "gate fan-in count does not match its cell kind"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Finding> {
        let Some(n) = ctx.netlist else { return Vec::new() };
        n.iter()
            .filter(|(_, gate)| gate.fanin.len() != gate.kind.input_count())
            .map(|(id, gate)| {
                Finding::on(
                    gate.name.clone(),
                    n.span(id),
                    format!(
                        "`{}` ({:?}) has {} fan-in{}, the cell takes {}",
                        gate.name,
                        gate.kind,
                        gate.fanin.len(),
                        if gate.fanin.len() == 1 { "" } else { "s" },
                        gate.kind.input_count()
                    ),
                )
            })
            .collect()
    }
}

/// `AQFP-E004`: two gates share an instance name, which breaks name-based
/// lookup and netlist writer round-tripping.
pub struct DuplicateName;

impl Rule for DuplicateName {
    fn id(&self) -> &'static str {
        "AQFP-E004"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn summary(&self) -> &'static str {
        "two gates share one instance name"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Finding> {
        let Some(n) = ctx.netlist else { return Vec::new() };
        let mut first_seen: HashMap<&str, GateId> = HashMap::new();
        let mut findings = Vec::new();
        for (id, gate) in n.iter() {
            if let Some(&first) = first_seen.get(gate.name.as_str()) {
                findings.push(Finding::on(
                    gate.name.clone(),
                    n.span(id),
                    format!(
                        "instance name `{}` already used ({}, {})",
                        gate.name,
                        first,
                        n.span(first)
                    ),
                ));
            } else {
                first_seen.insert(gate.name.as_str(), id);
            }
        }
        findings
    }
}

/// `AQFP-E005`: the design declares no primary outputs, so every gate is
/// dead logic and the flow has nothing to produce.
pub struct NoOutputs;

impl Rule for NoOutputs {
    fn id(&self) -> &'static str {
        "AQFP-E005"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn summary(&self) -> &'static str {
        "the design has no primary outputs"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Finding> {
        let Some(n) = ctx.netlist else { return Vec::new() };
        if n.primary_outputs().is_empty() {
            vec![Finding::global("design has no primary outputs; the whole netlist is dead")]
        } else {
            Vec::new()
        }
    }
}

/// `AQFP-W006`: a primary input drives nothing. Usually a stale port left
/// behind by an edit; harmless but wasteful (inputs still occupy row slots).
pub struct FloatingInput;

impl Rule for FloatingInput {
    fn id(&self) -> &'static str {
        "AQFP-W006"
    }

    fn severity(&self) -> Severity {
        Severity::Warn
    }

    fn summary(&self) -> &'static str {
        "a primary input drives no gate"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Finding> {
        let Some(n) = ctx.netlist else { return Vec::new() };
        n.primary_inputs()
            .iter()
            .filter(|&&pi| ctx.fanouts().row(pi.index()).is_empty())
            .map(|&pi| {
                let gate = n.gate(pi);
                Finding::on(
                    gate.name.clone(),
                    n.span(pi),
                    format!("primary input `{}` drives nothing", gate.name),
                )
            })
            .collect()
    }
}

/// `AQFP-W007`: logic that no primary output depends on. Synthesis carries
/// dead gates through splitting, balancing and placement before pruning, so
/// large dead regions waste every downstream stage.
pub struct DeadLogic;

impl Rule for DeadLogic {
    fn id(&self) -> &'static str {
        "AQFP-W007"
    }

    fn severity(&self) -> Severity {
        Severity::Warn
    }

    fn summary(&self) -> &'static str {
        "logic unreachable from every primary output"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Finding> {
        let Some(n) = ctx.netlist else { return Vec::new() };
        // With no outputs everything is trivially dead; AQFP-E005 owns that.
        // With dangling fan-ins the cone walk is unreliable; AQFP-E002 owns
        // that.
        if n.primary_outputs().is_empty() || ctx.has_dangling() {
            return Vec::new();
        }
        let mut live = vec![false; n.gate_count()];
        let mut queue: Vec<GateId> = n.primary_outputs().to_vec();
        for &po in n.primary_outputs() {
            live[po.index()] = true;
        }
        while let Some(id) = queue.pop() {
            for &driver in &n.gate(id).fanin {
                if !live[driver.index()] {
                    live[driver.index()] = true;
                    queue.push(driver);
                }
            }
        }
        let dead: Vec<GateId> = n
            .ids()
            .filter(|id| {
                let gate = n.gate(*id);
                !live[id.index()] && !gate.is_primary_input() && !gate.is_primary_output()
            })
            .collect();
        let mut findings: Vec<Finding> = dead
            .iter()
            .take(FINDING_CAP)
            .map(|&id| {
                let gate = n.gate(id);
                Finding::on(
                    gate.name.clone(),
                    n.span(id),
                    format!(
                        "`{}` ({:?}) is unreachable from every primary output",
                        gate.name, gate.kind
                    ),
                )
            })
            .collect();
        if dead.len() > FINDING_CAP {
            findings.push(Finding::global(format!(
                "… and {} more unreachable gates",
                dead.len() - FINDING_CAP
            )));
        }
        findings
    }
}

/// `AQFP-W008`: a primary output's fan-in cone contains no primary input, so
/// the output is a constant. Skipped for cones the recovering parser already
/// patched (their constant-ness is the undriven net's fault, `AQFP-E002`).
pub struct ConstantOutput;

impl Rule for ConstantOutput {
    fn id(&self) -> &'static str {
        "AQFP-W008"
    }

    fn severity(&self) -> Severity {
        Severity::Warn
    }

    fn summary(&self) -> &'static str {
        "a primary output computes a constant"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Finding> {
        let Some(n) = ctx.netlist else { return Vec::new() };
        if ctx.has_dangling() {
            return Vec::new();
        }
        // A cone holds a primary input or a patched placeholder exactly when
        // its output is reachable from one along fan-out edges. One forward
        // sweep from all of them therefore marks every output the rule
        // spares, in O(gates + edges), loops included.
        let mut reached = vec![false; n.gate_count()];
        let mut stack = Vec::new();
        for (id, gate) in n.iter() {
            if gate.is_primary_input() || gate.name.starts_with(PLACEHOLDER_PREFIX) {
                reached[id.index()] = true;
                stack.push(id);
            }
        }
        while let Some(id) = stack.pop() {
            for &sink in ctx.fanouts().row(id.index()) {
                if !reached[sink.index()] {
                    reached[sink.index()] = true;
                    stack.push(sink);
                }
            }
        }
        n.primary_outputs()
            .iter()
            .filter(|po| !reached[po.index()])
            .map(|&po| {
                let gate = n.gate(po);
                Finding::on(
                    gate.name.clone(),
                    n.span(po),
                    format!(
                        "output `{}` computes a constant (no primary input in its cone)",
                        gate.name
                    ),
                )
            })
            .collect()
    }
}

/// `AQFP-W009`: a signal's fan-out exceeds the configured threshold. The
/// flow legalizes any fan-out with a splitter tree, but past one full tree
/// level (`max_splitter_arity²` by default) the tree's depth starts to
/// dominate the path-balancing buffer bill.
pub struct ExcessiveFanout;

impl Rule for ExcessiveFanout {
    fn id(&self) -> &'static str {
        "AQFP-W009"
    }

    fn severity(&self) -> Severity {
        Severity::Warn
    }

    fn summary(&self) -> &'static str {
        "fan-out exceeds the splitter-tree threshold"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Finding> {
        let Some(n) = ctx.netlist else { return Vec::new() };
        let arity = ctx.settings.max_splitter_arity.clamp(2, 4);
        let threshold = ctx.config.effective_fanout_threshold(arity);
        let mut findings = Vec::new();
        for (id, gate) in n.iter() {
            let fanout = ctx.fanouts().row(id.index()).len();
            if fanout > threshold {
                let splitters = aqfp_synth::fanout::splitter_tree_size(fanout, arity);
                findings.push(Finding::on(
                    gate.name.clone(),
                    n.span(id),
                    format!(
                        "`{}` fans out to {fanout} sinks (threshold {threshold}); \
                         legalization will spend {splitters} splitters on it",
                        gate.name
                    ),
                ));
            }
        }
        findings
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use aqfp_cells::{CellKind, Technology};
    use aqfp_netlist::parsers::parse_verilog_recovering;
    use aqfp_netlist::Netlist;

    use crate::{lint, FlowSettings, LintConfig, LintReport};

    fn run(netlist: &Netlist) -> LintReport {
        lint(
            netlist.name(),
            netlist,
            &Technology::mit_ll_sqf5ee(),
            &FlowSettings::default(),
            &LintConfig::default(),
        )
    }

    /// A minimal design no rule fires on.
    fn clean_netlist() -> Netlist {
        let mut n = Netlist::new("clean");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(CellKind::And, "g", vec![a, b]);
        n.add_output("y", g);
        n
    }

    #[test]
    fn clean_design_has_no_findings() {
        let report = run(&clean_netlist());
        assert!(report.diagnostics.is_empty(), "{}", report.render());
    }

    #[test]
    fn e001_reports_loops_with_their_path() {
        let mut n = clean_netlist();
        let g = n.find_by_name("g").unwrap();
        let h = n.add_gate(CellKind::Inverter, "h", vec![g]);
        n.gate_mut(g).fanin[1] = h; // g -> h -> g
        let report = run(&n);
        assert!(report.mentions("AQFP-E001"), "{}", report.render());
        let diagnostic = report.diagnostics.iter().find(|d| d.rule == "AQFP-E001").unwrap();
        assert!(
            diagnostic.message.contains("g -> h -> g")
                || diagnostic.message.contains("h -> g -> h"),
            "loop path missing: {}",
            diagnostic.message
        );
        assert!(!run(&clean_netlist()).mentions("AQFP-E001"));
    }

    #[test]
    fn e002_reports_parser_patched_nets_and_dangling_ids() {
        let design = parse_verilog_recovering(
            "module m(a, y);\n input a;\n output y;\n wire u;\n and g(y, a, u);\nendmodule\n",
        )
        .unwrap();
        let report = run(&design.netlist);
        assert!(report.mentions("AQFP-E002"), "{}", report.render());
        let diagnostic = report.diagnostics.iter().find(|d| d.rule == "AQFP-E002").unwrap();
        assert_eq!(diagnostic.object.as_deref(), Some("u"));
        assert_eq!((diagnostic.line, diagnostic.column), (5, 14));

        let mut dangling = clean_netlist();
        let g = dangling.find_by_name("g").unwrap();
        dangling.gate_mut(g).fanin[0] = aqfp_netlist::GateId(999);
        let report = run(&dangling);
        assert!(report.mentions("AQFP-E002"), "{}", report.render());
    }

    #[test]
    fn e003_reports_arity_mismatches() {
        let mut n = clean_netlist();
        let a = n.find_by_name("a").unwrap();
        let g = n.find_by_name("g").unwrap();
        n.gate_mut(g).fanin.push(a); // And with 3 fan-ins
        let report = run(&n);
        assert!(report.mentions("AQFP-E003"), "{}", report.render());
    }

    #[test]
    fn e004_reports_duplicate_instance_names() {
        let mut n = clean_netlist();
        let a = n.find_by_name("a").unwrap();
        n.add_gate(CellKind::Buffer, "g", vec![a]);
        let report = run(&n);
        assert!(report.mentions("AQFP-E004"), "{}", report.render());
    }

    #[test]
    fn e005_reports_missing_outputs() {
        let mut n = Netlist::new("noout");
        let a = n.add_input("a");
        n.add_gate(CellKind::Buffer, "b", vec![a]);
        let report = run(&n);
        assert!(report.mentions("AQFP-E005"), "{}", report.render());
        // E005 owns this case: W007 must not drown it in per-gate findings.
        assert!(!report.mentions("AQFP-W007"), "{}", report.render());
    }

    #[test]
    fn w006_reports_floating_inputs() {
        let mut n = clean_netlist();
        n.add_input("unused");
        let report = run(&n);
        assert!(report.mentions("AQFP-W006"), "{}", report.render());
        let diagnostic = report.diagnostics.iter().find(|d| d.rule == "AQFP-W006").unwrap();
        assert_eq!(diagnostic.object.as_deref(), Some("unused"));
    }

    #[test]
    fn w007_reports_dead_logic() {
        let mut n = clean_netlist();
        let a = n.find_by_name("a").unwrap();
        n.add_gate(CellKind::Inverter, "dead", vec![a]);
        let report = run(&n);
        assert!(report.mentions("AQFP-W007"), "{}", report.render());
        let diagnostic = report.diagnostics.iter().find(|d| d.rule == "AQFP-W007").unwrap();
        assert_eq!(diagnostic.object.as_deref(), Some("dead"));
    }

    #[test]
    fn w008_reports_constant_outputs_but_not_patched_ones() {
        let mut n = Netlist::new("const");
        let zero = n.add_gate(CellKind::Constant0, "zero", vec![]);
        n.add_output("y", zero);
        let report = run(&n);
        assert!(report.mentions("AQFP-W008"), "{}", report.render());

        // An undriven output is patched to constant 0 by the parser; that is
        // E002's finding, not a W008 one.
        let design = parse_verilog_recovering(
            "module m(a, y);\n input a;\n output y;\n wire w;\n and g(w, a, a);\nendmodule\n",
        )
        .unwrap();
        let report = run(&design.netlist);
        assert!(report.mentions("AQFP-E002"), "{}", report.render());
        assert!(!report.mentions("AQFP-W008"), "{}", report.render());
    }

    #[test]
    fn w009_reports_fanout_above_threshold() {
        let mut n = Netlist::new("fan");
        let a = n.add_input("a");
        for i in 0..17 {
            let buf = n.add_gate(CellKind::Buffer, format!("b{i}"), vec![a]);
            n.add_output(format!("y{i}"), buf);
        }
        let report = run(&n);
        assert!(report.mentions("AQFP-W009"), "{}", report.render());
        let diagnostic = report.diagnostics.iter().find(|d| d.rule == "AQFP-W009").unwrap();
        assert!(diagnostic.message.contains("17 sinks"), "{}", diagnostic.message);

        // 16 sinks sits exactly at the default threshold: no finding.
        let mut n = Netlist::new("fan16");
        let a = n.add_input("a");
        for i in 0..16 {
            let buf = n.add_gate(CellKind::Buffer, format!("b{i}"), vec![a]);
            n.add_output(format!("y{i}"), buf);
        }
        assert!(!run(&n).mentions("AQFP-W009"));
    }
}
