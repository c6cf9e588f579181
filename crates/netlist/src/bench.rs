//! Parser and writer for the ISCAS/ITC **`.bench`** netlist format.
//!
//! `.bench` is the lingua franca of the logic-locking literature: benchmark
//! suites (ISCAS'85/'89, ITC'99) and attack tools (NEOS, RANE, FALL) all
//! exchange circuits in it. The grammar is line-oriented:
//!
//! ```text
//! # comment
//! INPUT(G0)
//! OUTPUT(G17)
//! G5  = DFF(G10)
//! G14 = NOT(G0)
//! G8  = AND(G14, G6)
//! ```
//!
//! Extensions understood by this implementation:
//!
//! * `MUX(s, a, b)` (select-first 2:1 multiplexer), `CONST0()` / `CONST1()`
//!   and the `vcc`/`gnd` aliases;
//! * an initialization directive `# @init <net> <0|1>` recording flip-flop
//!   power-up values (written and re-read by this crate, ignored as a plain
//!   comment by other tools).

use std::collections::HashMap;

use crate::{GateKind, NetId, Netlist, NetlistError};

/// Parses `.bench` source text into a [`Netlist`].
///
/// Forward references are allowed (a net may be used before the line that
/// drives it). The resulting netlist is [validated](Netlist::validate).
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] with a line number for syntax errors, or
/// the underlying structural error (duplicate driver, undriven net, cycle).
pub fn parse(name: impl Into<String>, src: &str) -> Result<Netlist, NetlistError> {
    let mut nl = Netlist::new(name);
    // name -> id of nets created on demand.
    let mut pending_inits: Vec<(String, bool, usize)> = Vec::new();
    let mut outputs: Vec<(String, usize)> = Vec::new();

    fn ensure_net(nl: &mut Netlist, name: &str) -> Result<NetId, NetlistError> {
        match nl.find_net(name) {
            Some(id) => Ok(id),
            None => nl.add_net(name.to_string()),
        }
    }

    for (lineno, raw) in src.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            // Init directive: `# @init <net> <0|1>`.
            let rest = rest.trim();
            if let Some(args) = rest.strip_prefix("@init") {
                let mut it = args.split_whitespace();
                let net = it.next().ok_or_else(|| NetlistError::Parse {
                    line: lineno,
                    message: "@init needs a net name".into(),
                })?;
                let val = it.next().ok_or_else(|| NetlistError::Parse {
                    line: lineno,
                    message: "@init needs a value".into(),
                })?;
                let bit = match val {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(NetlistError::Parse {
                            line: lineno,
                            message: format!("@init value must be 0 or 1, got `{other}`"),
                        })
                    }
                };
                pending_inits.push((net.to_string(), bit, lineno));
            }
            continue;
        }

        let upper = line.to_ascii_uppercase();
        if upper.starts_with("INPUT") || upper.starts_with("OUTPUT") {
            let (kw, is_input) = if upper.starts_with("INPUT") {
                ("INPUT", true)
            } else {
                ("OUTPUT", false)
            };
            let arg = parse_call_args(&line[kw.len()..], lineno)?;
            if arg.len() != 1 {
                return Err(NetlistError::Parse {
                    line: lineno,
                    message: format!("{kw} takes exactly one net"),
                });
            }
            let net_name = arg[0];
            if is_input {
                if nl.find_net(net_name).is_some() {
                    return Err(NetlistError::Parse {
                        line: lineno,
                        message: format!("input `{net_name}` declared after use or twice"),
                    });
                }
                nl.add_input(net_name.to_string())?;
            } else {
                outputs.push((net_name.to_string(), lineno));
            }
            continue;
        }

        // `out = KIND(a, b, ...)`
        let (lhs, rhs) = line.split_once('=').ok_or_else(|| NetlistError::Parse {
            line: lineno,
            message: "expected `net = GATE(...)`".into(),
        })?;
        let out_name = lhs.trim();
        if out_name.is_empty() {
            return Err(NetlistError::Parse {
                line: lineno,
                message: "missing output net name".into(),
            });
        }
        let rhs = rhs.trim();
        let paren = rhs.find('(').ok_or_else(|| NetlistError::Parse {
            line: lineno,
            message: "expected `GATE(inputs)`".into(),
        })?;
        let mnemonic = rhs[..paren].trim();
        let args = parse_call_args(&rhs[paren..], lineno)?;

        let out = ensure_net(&mut nl, out_name)?;
        if mnemonic.eq_ignore_ascii_case("DFF") {
            if args.len() != 1 {
                return Err(NetlistError::Parse {
                    line: lineno,
                    message: "DFF takes exactly one input".into(),
                });
            }
            let d = ensure_net(&mut nl, args[0])?;
            nl.add_dff_to(format!("dff_{out_name}"), d, out)?;
        } else {
            let kind = GateKind::from_mnemonic(mnemonic).ok_or_else(|| NetlistError::Parse {
                line: lineno,
                message: format!("unknown gate `{mnemonic}`"),
            })?;
            let mut ins = Vec::with_capacity(args.len());
            for a in &args {
                ins.push(ensure_net(&mut nl, a)?);
            }
            nl.drive_with_gate(kind, out, &ins)?;
        }
    }

    for (name, lineno) in outputs {
        let id = nl.find_net(&name).ok_or(NetlistError::Parse {
            line: lineno,
            message: format!("output `{name}` is never driven"),
        })?;
        nl.mark_output(id)?;
    }

    // Apply init directives now that all FFs exist.
    let q_index: HashMap<String, usize> = nl
        .dffs()
        .iter()
        .enumerate()
        .map(|(i, ff)| (nl.net_name(ff.q()).to_string(), i))
        .collect();
    for (net, bit, lineno) in pending_inits {
        let idx = *q_index.get(&net).ok_or(NetlistError::Parse {
            line: lineno,
            message: format!("@init target `{net}` is not a flip-flop output"),
        })?;
        nl.set_dff_init(idx, Some(bit));
    }

    nl.validate()?;
    Ok(nl)
}

/// Splits `(a, b, c)` into trimmed argument names. Empty parens yield an
/// empty vector (for `CONST0()`).
fn parse_call_args(s: &str, line: usize) -> Result<Vec<&str>, NetlistError> {
    let s = s.trim();
    let inner = s
        .strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .ok_or_else(|| NetlistError::Parse {
            line,
            message: "expected parenthesized argument list".into(),
        })?;
    let inner = inner.trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for part in inner.split(',') {
        let p = part.trim();
        if p.is_empty() {
            return Err(NetlistError::Parse {
                line,
                message: "empty argument".into(),
            });
        }
        out.push(p);
    }
    Ok(out)
}

/// Serializes a [`Netlist`] to `.bench` text.
///
/// The output is canonical: inputs first, then outputs, then flip-flops, then
/// gates in creation order. Flip-flop power-up values are recorded with
/// `# @init` directives.
pub fn write(nl: &Netlist) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n", nl.name()));
    out.push_str(&format!(
        "# {} inputs  {} outputs  {} DFFs  {} gates\n",
        nl.input_count(),
        nl.output_count(),
        nl.dff_count(),
        nl.gate_count()
    ));
    for &i in nl.inputs() {
        out.push_str(&format!("INPUT({})\n", nl.net_name(i)));
    }
    for &o in nl.outputs() {
        out.push_str(&format!("OUTPUT({})\n", nl.net_name(o)));
    }
    for ff in nl.dffs() {
        if let Some(bit) = ff.init() {
            out.push_str(&format!(
                "# @init {} {}\n",
                nl.net_name(ff.q()),
                u8::from(bit)
            ));
        }
        out.push_str(&format!(
            "{} = DFF({})\n",
            nl.net_name(ff.q()),
            nl.net_name(ff.d())
        ));
    }
    for gate in nl.gates() {
        let args: Vec<&str> = gate.inputs().iter().map(|&i| nl.net_name(i)).collect();
        out.push_str(&format!(
            "{} = {}({})\n",
            nl.net_name(gate.output()),
            gate.kind().mnemonic(),
            args.join(", ")
        ));
    }
    out
}

/// Round-trip helper used in tests and by external tools: `parse(write(nl))`.
///
/// # Errors
///
/// Propagates parse errors (which indicate a writer bug).
pub fn reparse(nl: &Netlist) -> Result<Netlist, NetlistError> {
    parse(nl.name().to_string(), &write(nl))
}

/// Structural equality modulo net ids: same inputs/outputs by name, same
/// flip-flops (q/d names), same multiset of gates (kind + input names +
/// output name).
pub fn structurally_equal(a: &Netlist, b: &Netlist) -> bool {
    fn names(nl: &Netlist, ids: &[NetId]) -> Vec<String> {
        ids.iter().map(|&i| nl.net_name(i).to_string()).collect()
    }
    if names(a, a.inputs()) != names(b, b.inputs())
        || names(a, a.outputs()) != names(b, b.outputs())
    {
        return false;
    }
    let ffs = |nl: &Netlist| -> Vec<(String, String, Option<bool>)> {
        let mut v: Vec<_> = nl
            .dffs()
            .iter()
            .map(|ff| {
                (
                    nl.net_name(ff.q()).to_string(),
                    nl.net_name(ff.d()).to_string(),
                    ff.init(),
                )
            })
            .collect();
        v.sort();
        v
    };
    if ffs(a) != ffs(b) {
        return false;
    }
    let gates = |nl: &Netlist| -> Vec<(String, GateKind, Vec<String>)> {
        let mut v: Vec<_> = nl
            .gates()
            .iter()
            .map(|g| {
                (
                    nl.net_name(g.output()).to_string(),
                    g.kind(),
                    g.inputs()
                        .iter()
                        .map(|&i| nl.net_name(i).to_string())
                        .collect(),
                )
            })
            .collect();
        v.sort();
        v
    };
    gates(a) == gates(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: &str = "\
# toy circuit
INPUT(a)
INPUT(b)
OUTPUT(y)
# @init q 1
q = DFF(d)
d = XOR(a, q)
y = AND(d, b)
";

    #[test]
    fn parse_toy() {
        let nl = parse("toy", TOY).unwrap();
        assert_eq!(nl.input_count(), 2);
        assert_eq!(nl.output_count(), 1);
        assert_eq!(nl.dff_count(), 1);
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.dffs()[0].init(), Some(true));
    }

    #[test]
    fn forward_references_ok() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(x)\nx = NOT(a)\n";
        let nl = parse("fwd", src).unwrap();
        assert_eq!(nl.gate_count(), 2);
    }

    #[test]
    fn round_trip_preserves_structure() {
        let nl = parse("toy", TOY).unwrap();
        let again = reparse(&nl).unwrap();
        assert!(structurally_equal(&nl, &again));
    }

    #[test]
    fn const_and_mux_parse() {
        let src = "INPUT(s)\nINPUT(a)\nOUTPUT(y)\nz = CONST1()\ng = gnd()\n\
                   m = MUX(s, a, z)\ny = AND(m, z)\n";
        let nl = parse("cm", src).unwrap();
        assert_eq!(nl.gate_count(), 4);
        let _ = nl.find_net("g").unwrap();
    }

    #[test]
    fn unknown_gate_rejected() {
        let err = parse("bad", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 3, .. }));
    }

    #[test]
    fn undriven_output_rejected() {
        let err = parse("bad", "INPUT(a)\nOUTPUT(y)\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }));
    }

    #[test]
    fn double_driver_rejected() {
        let err = parse("bad", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n").unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers(_)));
    }

    #[test]
    fn bad_init_target_rejected() {
        let err = parse("bad", "# @init y 1\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }));
    }

    #[test]
    fn whitespace_and_case_tolerated() {
        let src = "input( a )\noutput( y )\n  y  =  nand( a , a )  \n";
        let nl = parse("ws", src).unwrap();
        assert_eq!(nl.gate_count(), 1);
        assert_eq!(nl.gates()[0].kind(), GateKind::Nand);
    }

    #[test]
    fn structural_equality_detects_difference() {
        let a = parse("a", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let b = parse("b", "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n").unwrap();
        assert!(!structurally_equal(&a, &b));
        assert!(structurally_equal(&a, &a.clone()));
    }
}
