//! Text-format assembler: parse the mnemonic syntax the disassembler
//! emits.
//!
//! This gives the VM a bpftool-like round trip: programs can be written
//! (or dumped, edited, and re-loaded) as plain text. Supported grammar,
//! one instruction per line:
//!
//! ```text
//! ; comments with ';' or '//'
//! entry:                      ; labels end with ':'
//!     mov   r6, 42            ; alu: add sub mul div or and lsh rsh neg
//!     add32 r6, r7            ;      mod xor mov arsh (+ '32' suffix)
//!     ldxdw r0, [r1+8]        ; loads: ldxb/ldxh/ldxw/ldxdw
//!     stxw  [r10-4], r6       ; stores: stxb/stxh/stxw/stxdw
//!     stdw  [r10-16], 7       ; imm stores: stb/sth/stw/stdw
//!     ld_dw r2, 0x1122334455  ; 64-bit immediate (two slots)
//!     ld_map_fd r1, 3         ; pseudo map-fd load (two slots)
//!     jeq   r6, 42, out       ; jumps: jeq jgt jge jset jne jsgt jsge
//!     jlt   r6, r7, +2        ;        jlt jle jslt jsle; target is a
//!     ja    out               ;        label or a relative '+N'/'-N'
//!     call  bpf_ktime_get_ns  ; helper by name or by id
//!     call  14
//! out:
//!     exit
//! ```

use std::collections::HashMap;

use crate::helpers::Helper;
use crate::insn::{
    Insn, Reg, OP_ADD, OP_AND, OP_ARSH, OP_DIV, OP_JEQ, OP_JGE, OP_JGT, OP_JLE, OP_JLT, OP_JNE,
    OP_JSET, OP_JSGE, OP_JSGT, OP_JSLE, OP_JSLT, OP_LSH, OP_MOD, OP_MOV, OP_MUL, OP_NEG, OP_OR,
    OP_RSH, OP_SUB, OP_XOR, SZ_B, SZ_DW, SZ_H, SZ_W,
};
use crate::program::Program;

/// Parse failures, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// One parsed statement before label resolution.
#[derive(Debug)]
enum Stmt {
    Fixed(Insn),
    LdDw {
        dst: Reg,
        value: u64,
    },
    LdMapFd {
        dst: Reg,
        fd: u32,
    },
    Jump {
        op: u8,
        dst: Reg,
        operand: Operand,
        is32: bool,
        target: Target,
    },
    Ja(Target),
}

#[derive(Debug)]
enum Operand {
    Reg(Reg),
    Imm(i32),
}

#[derive(Debug)]
enum Target {
    Label(String),
    Relative(i16),
}

impl Stmt {
    fn slots(&self) -> usize {
        match self {
            Stmt::LdDw { .. } | Stmt::LdMapFd { .. } => 2,
            _ => 1,
        }
    }
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, ParseError> {
    let rest = tok
        .strip_prefix('r')
        .ok_or_else(|| err(line, format!("expected register, got `{tok}`")))?;
    let n: u8 = rest
        .parse()
        .map_err(|_| err(line, format!("bad register `{tok}`")))?;
    if n > 10 {
        return Err(err(line, format!("register r{n} out of range")));
    }
    Ok(n)
}

fn parse_imm_i64(tok: &str, line: usize) -> Result<i64, ParseError> {
    let (neg, body) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok.strip_prefix('+').unwrap_or(tok)),
    };
    let value = if let Some(hex) = body.strip_prefix("0x") {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse::<i64>()
    }
    .map_err(|_| err(line, format!("bad immediate `{tok}`")))?;
    Ok(if neg { -value } else { value })
}

/// Full-width parse for `ld_dw`: accepts anything in u64 (hex or decimal)
/// or a negative i64.
fn parse_imm_u64(tok: &str, line: usize) -> Result<u64, ParseError> {
    if let Some(hex) = tok.strip_prefix("0x") {
        return u64::from_str_radix(hex, 16)
            .map_err(|_| err(line, format!("bad immediate `{tok}`")));
    }
    if let Ok(v) = tok.parse::<u64>() {
        return Ok(v);
    }
    parse_imm_i64(tok, line).map(|v| v as u64)
}

fn parse_imm_i32(tok: &str, line: usize) -> Result<i32, ParseError> {
    i32::try_from(parse_imm_i64(tok, line)?)
        .map_err(|_| err(line, format!("immediate `{tok}` out of 32-bit range")))
}

/// Parses a `[rX+off]` / `[rX-off]` memory operand.
fn parse_mem(tok: &str, line: usize) -> Result<(Reg, i16), ParseError> {
    let inner = tok
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| err(line, format!("expected [reg+off], got `{tok}`")))?;
    let split = inner.find(['+', '-']).unwrap_or(inner.len());
    let reg = parse_reg(&inner[..split], line)?;
    let off = if split == inner.len() {
        0i16
    } else {
        i16::try_from(parse_imm_i64(&inner[split..], line)?)
            .map_err(|_| err(line, "offset out of 16-bit range"))?
    };
    Ok((reg, off))
}

fn alu_op(name: &str) -> Option<u8> {
    Some(match name {
        "add" => OP_ADD,
        "sub" => OP_SUB,
        "mul" => OP_MUL,
        "div" => OP_DIV,
        "or" => OP_OR,
        "and" => OP_AND,
        "lsh" => OP_LSH,
        "rsh" => OP_RSH,
        "neg" => OP_NEG,
        "mod" => OP_MOD,
        "xor" => OP_XOR,
        "mov" => OP_MOV,
        "arsh" => OP_ARSH,
        _ => return None,
    })
}

fn jmp_op(name: &str) -> Option<u8> {
    Some(match name {
        "jeq" => OP_JEQ,
        "jgt" => OP_JGT,
        "jge" => OP_JGE,
        "jset" => OP_JSET,
        "jne" => OP_JNE,
        "jsgt" => OP_JSGT,
        "jsge" => OP_JSGE,
        "jlt" => OP_JLT,
        "jle" => OP_JLE,
        "jslt" => OP_JSLT,
        "jsle" => OP_JSLE,
        _ => return None,
    })
}

fn size_of_suffix(suffix: &str) -> Option<u8> {
    Some(match suffix {
        "b" => SZ_B,
        "h" => SZ_H,
        "w" => SZ_W,
        "dw" => SZ_DW,
        _ => return None,
    })
}

fn helper_id(tok: &str, line: usize) -> Result<i32, ParseError> {
    if let Ok(id) = tok.parse::<i32>() {
        return Ok(id);
    }
    for id in 0..256 {
        if let Some(helper) = Helper::from_id(id) {
            if helper.name() == tok {
                return Ok(id);
            }
        }
    }
    Err(err(line, format!("unknown helper `{tok}`")))
}

fn parse_target(tok: &str) -> Target {
    if tok.starts_with('+') || tok.starts_with('-') {
        if let Ok(rel) = tok.parse::<i16>() {
            return Target::Relative(rel);
        }
    }
    Target::Label(tok.to_string())
}

/// Parses one program from its textual form.
///
/// # Errors
///
/// Returns a [`ParseError`] carrying the offending line for syntax errors,
/// unknown mnemonics/helpers/labels, and out-of-range operands.
///
/// # Examples
///
/// ```
/// use kscope_ebpf::text::parse_program;
///
/// let prog = parse_program("double", r"
///     ldxdw r0, [r1+0]
///     add   r0, r0
///     exit
/// ").unwrap();
/// assert_eq!(prog.len(), 3);
/// ```
pub fn parse_program(name: &str, source: &str) -> Result<Program, ParseError> {
    let mut stmts: Vec<(usize, Stmt)> = Vec::new();
    let mut labels: HashMap<String, usize> = HashMap::new(); // label -> stmt idx

    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let mut line = raw_line;
        if let Some(pos) = line.find(';') {
            line = &line[..pos];
        }
        if let Some(pos) = line.find("//") {
            line = &line[..pos];
        }
        let line = line.trim().replace(',', " ");
        if line.is_empty() {
            continue;
        }
        // Labels, possibly followed by an instruction on the same line.
        let mut rest = line.as_str();
        while let Some(pos) = rest.find(':') {
            let (label, tail) = rest.split_at(pos);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                break; // not a label, e.g. inside an operand (none today)
            }
            if labels.insert(label.to_string(), stmts.len()).is_some() {
                return Err(err(line_no, format!("label `{label}` defined twice")));
            }
            rest = tail[1..].trim_start();
        }
        if rest.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = rest.split_whitespace().collect();
        let mnemonic = tokens[0];
        let args = &tokens[1..];
        let need = |n: usize| -> Result<(), ParseError> {
            if args.len() == n {
                Ok(())
            } else {
                Err(err(
                    line_no,
                    format!("`{mnemonic}` expects {n} operand(s), got {}", args.len()),
                ))
            }
        };

        let stmt = if mnemonic == "exit" {
            need(0)?;
            Stmt::Fixed(Insn::exit())
        } else if mnemonic == "call" {
            need(1)?;
            Stmt::Fixed(Insn::call(helper_id(args[0], line_no)?))
        } else if mnemonic == "ja" {
            need(1)?;
            Stmt::Ja(parse_target(args[0]))
        } else if mnemonic == "ld_dw" {
            need(2)?;
            Stmt::LdDw {
                dst: parse_reg(args[0], line_no)?,
                value: parse_imm_u64(args[1], line_no)?,
            }
        } else if mnemonic == "ld_map_fd" {
            need(2)?;
            let fd = parse_imm_i64(args[1], line_no)?;
            Stmt::LdMapFd {
                dst: parse_reg(args[0], line_no)?,
                fd: u32::try_from(fd).map_err(|_| err(line_no, "map fd out of range"))?,
            }
        } else if let Some(rest) = mnemonic.strip_prefix("ldx") {
            let size = size_of_suffix(rest)
                .ok_or_else(|| err(line_no, format!("bad load size in `{mnemonic}`")))?;
            need(2)?;
            let dst = parse_reg(args[0], line_no)?;
            let (src, off) = parse_mem(args[1], line_no)?;
            Stmt::Fixed(Insn::load(size, dst, src, off))
        } else if let Some(rest) = mnemonic.strip_prefix("stx") {
            let size = size_of_suffix(rest)
                .ok_or_else(|| err(line_no, format!("bad store size in `{mnemonic}`")))?;
            need(2)?;
            let (dst, off) = parse_mem(args[0], line_no)?;
            let src = parse_reg(args[1], line_no)?;
            Stmt::Fixed(Insn::store_reg(size, dst, src, off))
        } else if let Some(rest) = mnemonic.strip_prefix("st") {
            let size = size_of_suffix(rest)
                .ok_or_else(|| err(line_no, format!("bad store size in `{mnemonic}`")))?;
            need(2)?;
            let (dst, off) = parse_mem(args[0], line_no)?;
            let imm = parse_imm_i32(args[1], line_no)?;
            Stmt::Fixed(Insn::store_imm(size, dst, off, imm))
        } else if let Some((op, is32)) = {
            match jmp_op(mnemonic) {
                Some(op) => Some((op, false)),
                None => mnemonic
                    .strip_suffix("32")
                    .and_then(jmp_op)
                    .map(|op| (op, true)),
            }
        } {
            need(3)?;
            let dst = parse_reg(args[0], line_no)?;
            let operand = if args[1].starts_with('r') && parse_reg(args[1], line_no).is_ok() {
                Operand::Reg(parse_reg(args[1], line_no)?)
            } else {
                Operand::Imm(parse_imm_i32(args[1], line_no)?)
            };
            Stmt::Jump {
                op,
                dst,
                operand,
                is32,
                target: parse_target(args[2]),
            }
        } else {
            // ALU, possibly with a 32 suffix.
            let (name, is32) = match mnemonic.strip_suffix("32") {
                Some(base) => (base, true),
                None => (mnemonic, false),
            };
            let op = alu_op(name)
                .ok_or_else(|| err(line_no, format!("unknown mnemonic `{mnemonic}`")))?;
            if op == OP_NEG {
                need(1)?;
                let dst = parse_reg(args[0], line_no)?;
                Stmt::Fixed(if is32 {
                    Insn::alu32_imm(OP_NEG, dst, 0)
                } else {
                    Insn::alu64_imm(OP_NEG, dst, 0)
                })
            } else {
                need(2)?;
                let dst = parse_reg(args[0], line_no)?;
                let insn = if args[1].starts_with('r') && parse_reg(args[1], line_no).is_ok() {
                    let src = parse_reg(args[1], line_no)?;
                    if is32 {
                        Insn::alu32_reg(op, dst, src)
                    } else {
                        Insn::alu64_reg(op, dst, src)
                    }
                } else {
                    let imm = parse_imm_i32(args[1], line_no)?;
                    if is32 {
                        Insn::alu32_imm(op, dst, imm)
                    } else {
                        Insn::alu64_imm(op, dst, imm)
                    }
                };
                Stmt::Fixed(insn)
            }
        };
        stmts.push((line_no, stmt));
    }

    // Slot layout.
    let mut slot_of_stmt = Vec::with_capacity(stmts.len());
    let mut slot = 0usize;
    for (_, stmt) in &stmts {
        slot_of_stmt.push(slot);
        slot += stmt.slots();
    }
    let total = slot;
    let label_slot = |label: &str, line: usize| -> Result<usize, ParseError> {
        let idx = *labels
            .get(label)
            .ok_or_else(|| err(line, format!("undefined label `{label}`")))?;
        Ok(if idx == stmts.len() {
            total
        } else {
            slot_of_stmt[idx]
        })
    };

    let mut insns = Vec::with_capacity(total);
    for (i, (line_no, stmt)) in stmts.iter().enumerate() {
        let here = slot_of_stmt[i];
        let resolve = |target: &Target| -> Result<i16, ParseError> {
            match target {
                Target::Relative(rel) => Ok(*rel),
                Target::Label(label) => {
                    let target_slot = label_slot(label, *line_no)? as i64;
                    i16::try_from(target_slot - here as i64 - 1)
                        .map_err(|_| err(*line_no, "jump displacement out of range"))
                }
            }
        };
        match stmt {
            Stmt::Fixed(insn) => insns.push(*insn),
            Stmt::LdDw { dst, value } => {
                insns.push(Insn::ld_dw_lo(*dst, *value));
                insns.push(Insn::ld_dw_hi(*value));
            }
            Stmt::LdMapFd { dst, fd } => {
                insns.push(Insn::ld_map_fd_lo(*dst, *fd));
                insns.push(Insn::ld_dw_hi(0));
            }
            Stmt::Ja(target) => insns.push(Insn::ja(resolve(target)?)),
            Stmt::Jump {
                op,
                dst,
                operand,
                is32,
                target,
            } => {
                let off = resolve(target)?;
                let insn = match (operand, is32) {
                    (Operand::Reg(src), false) => Insn::jmp_reg(*op, *dst, *src, off),
                    (Operand::Imm(imm), false) => Insn::jmp_imm(*op, *dst, *imm, off),
                    (Operand::Reg(src), true) => Insn::jmp32_reg(*op, *dst, *src, off),
                    (Operand::Imm(imm), true) => Insn::jmp32_imm(*op, *dst, *imm, off),
                };
                insns.push(insn);
            }
        }
    }
    Ok(Program::new(name, insns))
}

/// An instruction that has no textual rendering (unknown opcode byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmitError {
    /// Slot index of the offending instruction.
    pub pc: usize,
    /// The opcode byte that could not be rendered.
    pub code: u8,
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pc {}: opcode {:#04x} has no text form",
            self.pc, self.code
        )
    }
}

impl std::error::Error for EmitError {}

fn alu_name(op: u8) -> Option<&'static str> {
    Some(match op {
        OP_ADD => "add",
        OP_SUB => "sub",
        OP_MUL => "mul",
        OP_DIV => "div",
        OP_OR => "or",
        OP_AND => "and",
        OP_LSH => "lsh",
        OP_RSH => "rsh",
        OP_NEG => "neg",
        OP_MOD => "mod",
        OP_XOR => "xor",
        OP_MOV => "mov",
        OP_ARSH => "arsh",
        _ => return None,
    })
}

fn jmp_name(op: u8) -> Option<&'static str> {
    Some(match op {
        OP_JEQ => "jeq",
        OP_JGT => "jgt",
        OP_JGE => "jge",
        OP_JSET => "jset",
        OP_JNE => "jne",
        OP_JSGT => "jsgt",
        OP_JSGE => "jsge",
        OP_JLT => "jlt",
        OP_JLE => "jle",
        OP_JSLT => "jslt",
        OP_JSLE => "jsle",
        _ => return None,
    })
}

fn size_name(size: u8) -> &'static str {
    match size {
        SZ_B => "b",
        SZ_H => "h",
        SZ_W => "w",
        _ => {
            if size == SZ_DW {
                "dw"
            } else {
                "?"
            }
        }
    }
}

/// Renders a program back into the text grammar [`parse_program`] accepts.
///
/// The output is the inverse of parsing: for any program built from the
/// canonical [`Insn`] constructors (as the assembler and parser both do),
/// `parse_program(name, &emit_program(p)?)` reproduces `p` slot for slot.
/// Jump targets are rendered as relative `+N`/`-N` displacements, so no
/// label inference is needed.
///
/// # Errors
///
/// Returns [`EmitError`] if an instruction's opcode byte has no mnemonic
/// (e.g. raw fuzzer garbage).
///
/// # Examples
///
/// ```
/// use kscope_ebpf::text::{emit_program, parse_program};
///
/// let prog = parse_program("t", "mov r0, 6\nmul r0, 7\nexit").unwrap();
/// let text = emit_program(&prog).unwrap();
/// assert_eq!(parse_program("t", &text).unwrap().insns(), prog.insns());
/// ```
pub fn emit_program(prog: &Program) -> Result<String, EmitError> {
    use crate::insn::{
        CLS_ALU, CLS_ALU64, CLS_JMP, CLS_JMP32, CLS_LD, CLS_LDX, CLS_ST, CLS_STX, MODE_IMM,
        OP_CALL, OP_EXIT, OP_JA, PSEUDO_MAP_FD,
    };

    let insns = prog.insns();
    let mut out = String::new();
    let mut pc = 0usize;
    while pc < insns.len() {
        let insn = insns[pc];
        let bad = EmitError {
            pc,
            code: insn.code,
        };
        let line = match insn.class() {
            CLS_LD if insn.size() == SZ_DW && insn.code & 0xe0 == MODE_IMM => {
                if insn.src == PSEUDO_MAP_FD {
                    pc += 1; // skip the zero hi slot
                    format!("ld_map_fd r{}, {}", insn.dst, insn.imm as u32)
                } else if insn.src == 0 {
                    let hi = insns.get(pc + 1).ok_or(bad)?;
                    pc += 1;
                    let value = (insn.imm as u32 as u64) | ((hi.imm as u32 as u64) << 32);
                    format!("ld_dw r{}, {:#x}", insn.dst, value)
                } else {
                    return Err(bad);
                }
            }
            CLS_LDX => format!(
                "ldx{} r{}, [r{}{:+}]",
                size_name(insn.size()),
                insn.dst,
                insn.src,
                insn.off
            ),
            CLS_STX => format!(
                "stx{} [r{}{:+}], r{}",
                size_name(insn.size()),
                insn.dst,
                insn.off,
                insn.src
            ),
            CLS_ST => format!(
                "st{} [r{}{:+}], {}",
                size_name(insn.size()),
                insn.dst,
                insn.off,
                insn.imm
            ),
            CLS_ALU | CLS_ALU64 => {
                let name = alu_name(insn.op()).ok_or(bad)?;
                let sfx = if insn.class() == CLS_ALU { "32" } else { "" };
                if insn.op() == OP_NEG {
                    format!("{name}{sfx} r{}", insn.dst)
                } else if insn.is_src_reg() {
                    format!("{name}{sfx} r{}, r{}", insn.dst, insn.src)
                } else {
                    format!("{name}{sfx} r{}, {}", insn.dst, insn.imm)
                }
            }
            CLS_JMP if insn.op() == OP_JA => format!("ja {:+}", insn.off),
            CLS_JMP if insn.op() == OP_CALL => match Helper::from_id(insn.imm) {
                Some(helper) => format!("call {}", helper.name()),
                None => format!("call {}", insn.imm),
            },
            CLS_JMP if insn.op() == OP_EXIT => "exit".to_string(),
            CLS_JMP | CLS_JMP32 => {
                let name = jmp_name(insn.op()).ok_or(bad)?;
                let sfx = if insn.class() == CLS_JMP32 { "32" } else { "" };
                if insn.is_src_reg() {
                    format!("{name}{sfx} r{}, r{}, {:+}", insn.dst, insn.src, insn.off)
                } else {
                    format!("{name}{sfx} r{}, {}, {:+}", insn.dst, insn.imm, insn.off)
                }
            }
            _ => return Err(bad),
        };
        out.push_str(&line);
        out.push('\n');
        pc += 1;
    }
    Ok(out)
}

#[cfg(test)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{ExecEnv, Vm};
    use crate::maps::{MapDef, MapRegistry};
    use crate::verifier::Verifier;

    fn run(src: &str, ctx: &[u8]) -> u64 {
        let prog = parse_program("t", src).unwrap();
        let mut maps = MapRegistry::new();
        Verifier::default().verify(&prog, &maps).unwrap();
        Vm::new()
            .execute(&prog, ctx, &mut maps, &mut ExecEnv::default())
            .unwrap()
            .ret
    }

    #[test]
    fn basic_program_runs() {
        assert_eq!(run("mov r0, 6\nmul r0, 7\nexit", &[]), 42);
    }

    #[test]
    fn memory_and_labels() {
        let src = r"
            ; sum two context quadwords, branch on the result
            ldxdw r0, [r1+0]
            ldxdw r2, [r1+8]
            add   r0, r2
            jgt   r0, 100, big
            mov   r0, 0
            exit
        big:
            mov   r0, 1
            exit
        ";
        let mut ctx = [0u8; 16];
        ctx[..8].copy_from_slice(&60u64.to_le_bytes());
        ctx[8..].copy_from_slice(&50u64.to_le_bytes());
        assert_eq!(run(src, &ctx), 1);
        ctx[..8].copy_from_slice(&1u64.to_le_bytes());
        assert_eq!(run(src, &ctx), 0);
    }

    #[test]
    fn stack_stores_and_calls() {
        let src = r"
            call bpf_get_current_pid_tgid
            stxdw [r10-8], r0
            ldxdw r0, [r10-8]
            rsh   r0, 32
            exit
        ";
        let prog = parse_program("t", src).unwrap();
        let mut maps = MapRegistry::new();
        Verifier::default().verify(&prog, &maps).unwrap();
        let mut env = ExecEnv {
            pid_tgid: 77u64 << 32 | 5,
            ..ExecEnv::default()
        };
        let out = Vm::new().execute(&prog, &[], &mut maps, &mut env).unwrap();
        assert_eq!(out.ret, 77);
    }

    #[test]
    fn map_fd_loads_parse() {
        let mut maps = MapRegistry::new();
        let _fd = maps.create("m", MapDef::hash(8, 8, 4));
        let src = r"
            stdw  [r10-8], 1
            ld_map_fd r1, 0
            mov   r2, r10
            add   r2, -8
            call  bpf_map_lookup_elem
            jne   r0, 0, found
            mov   r0, 0
            exit
        found:
            ldxdw r0, [r0+0]
            exit
        ";
        let prog = parse_program("t", src).unwrap();
        Verifier::default().verify(&prog, &maps).unwrap();
        maps.update(
            maps.fd_by_name("m").unwrap(),
            &1u64.to_le_bytes(),
            &99u64.to_le_bytes(),
        )
        .unwrap();
        let out = Vm::new()
            .execute(&prog, &[], &mut maps, &mut ExecEnv::default())
            .unwrap();
        assert_eq!(out.ret, 99);
    }

    #[test]
    fn relative_jumps() {
        let src = "mov r0, 1\nja +1\nmov r0, 2\nexit";
        assert_eq!(run(src, &[]), 1);
    }

    #[test]
    fn alu32_suffix() {
        let src = "ld_dw r0, 0xFF00000001\nmov32 r0, r0\nadd32 r0, 1\nexit";
        assert_eq!(run(src, &[]), 2);
    }

    #[test]
    fn neg_single_operand() {
        assert_eq!(run("mov r0, 5\nneg r0\nexit", &[]) as i64, -5);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases = [
            ("mov r99, 1\nexit", 1, "out of range"),
            ("mov r0, 1\nfrobnicate r0\nexit", 2, "unknown mnemonic"),
            ("jeq r0, 1, nowhere\nexit", 1, "undefined label"),
            ("call not_a_helper\nexit", 1, "unknown helper"),
            ("x: mov r0, 1\nx: exit", 2, "defined twice"),
            ("ldxq r0, [r1+0]\nexit", 1, "bad load size"),
            ("mov r0\nexit", 1, "expects 2 operand"),
        ];
        for (src, line, needle) in cases {
            let e = parse_program("t", src).unwrap_err();
            assert_eq!(e.line, line, "{src}");
            assert!(e.message.contains(needle), "{src}: {e}");
        }
    }

    #[test]
    fn round_trips_with_the_builder() {
        use crate::asm::Asm;
        use crate::insn::{R0, R1, SZ_DW};
        let built = Asm::new("t")
            .load(SZ_DW, R0, R1, 0)
            .jeq_imm(R0, 232, "hit")
            .mov64_imm(R0, 0)
            .exit()
            .label("hit")
            .mov64_imm(R0, 1)
            .exit()
            .assemble()
            .unwrap();
        let parsed = parse_program(
            "t",
            r"
            ldxdw r0, [r1+0]
            jeq   r0, 232, hit
            mov   r0, 0
            exit
        hit:
            mov   r0, 1
            exit
        ",
        )
        .unwrap();
        assert_eq!(built.insns(), parsed.insns());
    }
}
