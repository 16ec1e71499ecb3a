//! A textual assembler and disassembler.
//!
//! Programs can be written as text instead of through the builder API —
//! convenient for experiments and for users porting kernels. The syntax
//! is RISC-flavored:
//!
//! ```text
//!     addi x1, x0, 100      # counter
//! top:
//!     ld   x2, 0(x1)
//!     addi x1, x1, -1
//!     bne  x1, x0, top
//!     halt
//! ```
//!
//! One instruction per line; `name:` defines a label (optionally on its
//! own line); `#` or `;` start comments. [`parse_asm`] returns a
//! [`Program`]; [`disassemble`] emits text that re-parses to the same
//! program (round-trip tested).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::builder::{Label, ProgramBuilder};
use crate::inst::{AluOp, BranchCond, Inst, Operand, Reg};
#[cfg(test)]
use crate::program::Pc;
use crate::program::Program;

/// Error produced by [`parse_asm`], carrying the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number of the offending source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, AsmError> {
    let tok = tok.trim();
    let Some(num) = tok.strip_prefix('x') else {
        return Err(err(
            line,
            format!("expected a register like `x5`, found `{tok}`"),
        ));
    };
    let idx: u8 = num
        .parse()
        .map_err(|_| err(line, format!("bad register number in `{tok}`")))?;
    Reg::new(idx).map_err(|e| err(line, e.to_string()))
}

fn parse_imm(tok: &str, line: usize) -> Result<i64, AsmError> {
    let tok = tok.trim();
    let (neg, body) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    // The magnitude is unsigned: `i64::MIN`'s does not fit an `i64`.
    let magnitude = if let Some(hex) = body.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        body.parse()
    };
    let value = match magnitude {
        Ok(m) if neg => 0i64.checked_sub_unsigned(m),
        Ok(m) => i64::try_from(m).ok(),
        Err(_) => None,
    };
    value.ok_or_else(|| err(line, format!("bad immediate `{tok}`")))
}

/// Parses `offset(base)` memory-operand syntax.
fn parse_mem(tok: &str, line: usize) -> Result<(Reg, i64), AsmError> {
    let tok = tok.trim();
    let open = tok
        .find('(')
        .ok_or_else(|| err(line, format!("expected `offset(base)`, found `{tok}`")))?;
    if !tok.ends_with(')') {
        return Err(err(line, format!("missing `)` in `{tok}`")));
    }
    let offset = if open == 0 {
        0
    } else {
        parse_imm(&tok[..open], line)?
    };
    let base = parse_reg(&tok[open + 1..tok.len() - 1], line)?;
    Ok((base, offset))
}

fn alu_op_of(mnemonic: &str) -> Option<AluOp> {
    Some(match mnemonic {
        "add" | "addi" => AluOp::Add,
        "sub" => AluOp::Sub,
        "mul" => AluOp::Mul,
        "and" => AluOp::And,
        "or" => AluOp::Or,
        "xor" => AluOp::Xor,
        "shl" => AluOp::Shl,
        "shr" => AluOp::Shr,
        "sltu" => AluOp::SltU,
        _ => return None,
    })
}

fn branch_cond_of(mnemonic: &str) -> Option<BranchCond> {
    Some(match mnemonic {
        "beq" => BranchCond::Eq,
        "bne" => BranchCond::Ne,
        "bltu" => BranchCond::LtU,
        "bgeu" => BranchCond::GeU,
        _ => return None,
    })
}

/// Assembles a text program.
///
/// # Errors
///
/// Returns an [`AsmError`] with the offending line for syntax errors,
/// unknown mnemonics, bad registers, or unbound/duplicate labels.
///
/// # Examples
///
/// ```
/// use pl_isa::asm::parse_asm;
/// let program = parse_asm(
///     "    addi x1, x0, 3\n\
///      loop:\n\
///          addi x1, x1, -1\n\
///          bne  x1, x0, loop\n\
///          halt\n",
/// )?;
/// assert_eq!(program.len(), 4);
/// # Ok::<(), pl_isa::asm::AsmError>(())
/// ```
pub fn parse_asm(source: &str) -> Result<Program, AsmError> {
    let mut b = ProgramBuilder::new();
    // Each label with the line that first names it: for a label that is
    // never bound, the line of its first use.
    let mut labels: HashMap<String, (Label, usize)> = HashMap::new();
    let mut bound: HashMap<String, usize> = HashMap::new();

    let mut get_label = |b: &mut ProgramBuilder, name: &str, line: usize| -> Label {
        labels
            .entry(name.to_string())
            .or_insert_with(|| (b.new_label(), line))
            .0
    };

    for (i, raw) in source.lines().enumerate() {
        let lineno = i + 1;
        let mut text = raw;
        if let Some(pos) = text.find(['#', ';']) {
            text = &text[..pos];
        }
        let mut text = text.trim();
        // Leading labels (possibly several, possibly with an instruction
        // after them).
        while let Some(colon) = text.find(':') {
            let (name, rest) = text.split_at(colon);
            let name = name.trim();
            if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return Err(err(lineno, format!("bad label `{name}`")));
            }
            if bound.insert(name.to_string(), lineno).is_some() {
                return Err(err(lineno, format!("label `{name}` defined twice")));
            }
            let l = get_label(&mut b, name, lineno);
            b.bind(l).map_err(|e| err(lineno, e.to_string()))?;
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
            Some((m, r)) => (m, r.trim()),
            None => (text, ""),
        };
        let ops: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };
        let expect = |n: usize| -> Result<(), AsmError> {
            if ops.len() == n {
                Ok(())
            } else {
                Err(err(
                    lineno,
                    format!("`{mnemonic}` takes {n} operands, got {}", ops.len()),
                ))
            }
        };
        match mnemonic {
            m if alu_op_of(m).is_some() => {
                expect(3)?;
                let op = alu_op_of(m).expect("checked");
                let dst = parse_reg(ops[0], lineno)?;
                let src1 = parse_reg(ops[1], lineno)?;
                let src2 = if m == "addi" || !ops[2].trim().starts_with('x') {
                    Operand::Imm(parse_imm(ops[2], lineno)?)
                } else {
                    Operand::Reg(parse_reg(ops[2], lineno)?)
                };
                b.alu(op, dst, src1, src2);
            }
            "ld" => {
                expect(2)?;
                let dst = parse_reg(ops[0], lineno)?;
                let (base, offset) = parse_mem(ops[1], lineno)?;
                b.load(dst, base, offset);
            }
            "st" => {
                expect(2)?;
                let src = parse_reg(ops[0], lineno)?;
                let (base, offset) = parse_mem(ops[1], lineno)?;
                b.store(src, base, offset);
            }
            m if branch_cond_of(m).is_some() => {
                expect(3)?;
                let cond = branch_cond_of(m).expect("checked");
                let a = parse_reg(ops[0], lineno)?;
                let c = parse_reg(ops[1], lineno)?;
                let l = get_label(&mut b, ops[2], lineno);
                b.branch(cond, a, c, l);
            }
            "j" | "jmp" => {
                expect(1)?;
                let l = get_label(&mut b, ops[0], lineno);
                b.jump(l);
            }
            "call" => {
                expect(1)?;
                let l = get_label(&mut b, ops[0], lineno);
                b.call(l);
            }
            "ret" => {
                expect(0)?;
                b.ret();
            }
            "mfence" => {
                expect(0)?;
                b.mfence();
            }
            "amoadd" => {
                expect(3)?;
                let dst = parse_reg(ops[0], lineno)?;
                let src = parse_reg(ops[1], lineno)?;
                let (base, offset) = parse_mem(ops[2], lineno)?;
                b.atomic_add(dst, src, base, offset);
            }
            "amocas" => {
                expect(4)?;
                let dst = parse_reg(ops[0], lineno)?;
                let cmp = parse_reg(ops[1], lineno)?;
                let src = parse_reg(ops[2], lineno)?;
                let (base, offset) = parse_mem(ops[3], lineno)?;
                b.atomic_cas(dst, cmp, src, base, offset);
            }
            "nop" => {
                expect(0)?;
                b.nop();
            }
            "halt" => {
                expect(0)?;
                b.halt();
            }
            other => return Err(err(lineno, format!("unknown mnemonic `{other}`"))),
        }
    }
    // Any label used by a branch but never bound surfaces here, at the
    // first line that uses it.
    let unbound = labels
        .iter()
        .filter(|(name, _)| !bound.contains_key(*name))
        .map(|(name, &(_, line))| (line, name))
        .min();
    if let Some((line, name)) = unbound {
        return Err(err(
            line,
            format!("label `{name}` was used but never bound"),
        ));
    }
    b.build().map_err(|e| err(0, e.to_string()))
}

/// Disassembles a program into text that [`parse_asm`] accepts, emitting
/// `L<pc>:` labels for every control-flow target.
pub fn disassemble(program: &Program) -> String {
    use std::fmt::Write as _;
    let mut targets: Vec<usize> = program
        .iter()
        .filter_map(|(_, inst)| inst.static_target().map(|t| t.index()))
        .collect();
    targets.sort_unstable();
    targets.dedup();
    let mut out = String::new();
    for (pc, inst) in program.iter() {
        if targets.binary_search(&pc.index()).is_ok() {
            let _ = writeln!(out, "L{}:", pc.index());
        }
        let text = match inst {
            Inst::Alu {
                op,
                dst,
                src1,
                src2,
            } => match src2 {
                Operand::Reg(r) => format!("{op} {dst}, {src1}, {r}"),
                Operand::Imm(v) => format!("{op} {dst}, {src1}, {v}"),
            },
            Inst::Load { dst, base, offset } => format!("ld {dst}, {offset}({base})"),
            Inst::Store { src, base, offset } => format!("st {src}, {offset}({base})"),
            Inst::Branch {
                cond,
                src1,
                src2,
                target,
            } => {
                format!("{cond} {src1}, {src2}, L{}", target.index())
            }
            Inst::Jump { target } => format!("j L{}", target.index()),
            Inst::Call { target } => format!("call L{}", target.index()),
            Inst::Ret => "ret".to_string(),
            Inst::Mfence => "mfence".to_string(),
            Inst::AtomicAdd {
                dst,
                src,
                base,
                offset,
            } => {
                format!("amoadd {dst}, {src}, {offset}({base})")
            }
            Inst::AtomicCas {
                dst,
                cmp,
                src,
                base,
                offset,
            } => {
                format!("amocas {dst}, {cmp}, {src}, {offset}({base})")
            }
            Inst::Nop => "nop".to_string(),
            Inst::Halt => "halt".to_string(),
        };
        let _ = writeln!(out, "    {text}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_doc_example() {
        let p = parse_asm(
            "    addi x1, x0, 100  # counter\n\
             top:\n\
             \tld x2, 0(x1)\n\
             \taddi x1, x1, -1\n\
             \tbne x1, x0, top ; loop back\n\
             \thalt\n",
        )
        .unwrap();
        assert_eq!(p.len(), 5);
        match p.fetch(Pc(3)) {
            Inst::Branch {
                cond: BranchCond::Ne,
                target,
                ..
            } => assert_eq!(target, Pc(1)),
            other => panic!("expected branch, got {other}"),
        }
    }

    #[test]
    fn forward_labels_and_inline_labels() {
        let p = parse_asm(
            "    j done\n\
             work: nop\n\
             done: halt\n",
        )
        .unwrap();
        assert_eq!(p.fetch(Pc(0)), Inst::Jump { target: Pc(2) });
    }

    #[test]
    fn all_mnemonics_parse() {
        let src = "\
start:
    add x1, x2, x3
    sub x1, x2, 5
    mul x1, x2, x3
    and x1, x2, 0xff
    or x1, x2, x3
    xor x1, x2, x3
    shl x1, x2, 3
    shr x1, x2, x3
    sltu x1, x2, x3
    addi x1, x2, -9
    ld x4, 8(x5)
    st x4, -8(x5)
    beq x1, x2, start
    bne x1, x2, start
    bltu x1, x2, start
    bgeu x1, x2, start
    call start
    ret
    mfence
    amoadd x1, x2, 0(x3)
    amocas x1, x2, x4, 16(x3)
    nop
    halt
";
        let p = parse_asm(src).unwrap();
        assert_eq!(p.len(), 23);
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = parse_asm("    nop\n    bogus x1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));

        let e = parse_asm("    ld x1, x2\n").unwrap_err();
        assert!(e.message.contains("offset(base)"));

        let e = parse_asm("    add x1, x2\n").unwrap_err();
        assert!(e.message.contains("3 operands"));

        let e = parse_asm("    add x99, x1, x2\n").unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = parse_asm("a: nop\na: nop\n").unwrap_err();
        assert!(e.message.contains("defined twice"));
    }

    #[test]
    fn unbound_label_rejected() {
        let e = parse_asm("    j nowhere\n").unwrap_err();
        assert!(e.message.contains("never bound"));
        // The error names the label and the first line that uses it.
        let e = parse_asm("    nop\n    beq x1, x0, later\nlater:\n    call fin\n    j fin\n")
            .unwrap_err();
        assert_eq!(
            e.to_string(),
            "line 4: label `fin` was used but never bound"
        );
    }

    #[test]
    fn disassemble_round_trips() {
        let src = "\
    addi x1, x0, 10
loop:
    ld x2, 0(x1)
    amoadd x3, x2, 8(x1)
    addi x1, x1, -1
    bne x1, x0, loop
    call fin
    halt
fin:
    st x2, 0(x1)
    addi x4, x0, -9223372036854775808
    ld x5, -9223372036854775808(x4)
    ret
";
        let p = parse_asm(src).unwrap();
        let text = disassemble(&p);
        let p2 = parse_asm(&text).unwrap();
        assert_eq!(p, p2, "disassembly must re-parse identically:\n{text}");
    }

    #[test]
    fn register_operand_vs_immediate_disambiguation() {
        let p = parse_asm("    add x1, x2, x3\n    add x1, x2, 7\n").unwrap();
        assert!(matches!(
            p.fetch(Pc(0)),
            Inst::Alu {
                src2: Operand::Reg(_),
                ..
            }
        ));
        assert!(matches!(
            p.fetch(Pc(1)),
            Inst::Alu {
                src2: Operand::Imm(7),
                ..
            }
        ));
    }
}
