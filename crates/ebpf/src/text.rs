//! Text-format assembler: parse the mnemonic syntax [`emit_program`]
//! writes.
//!
//! This gives the VM a bpftool-like round trip: programs can be written
//! (or dumped, edited, and re-loaded) as plain text. The parser builds
//! each program through [`Asm`], which lays out the slots and resolves
//! the labels. It shares its mnemonic tables with the one instruction
//! renderer, [`Decoded::text`], which both [`emit_program`] and
//! [`Program::disassemble`] print through, so a listing shows the syntax
//! this parser reads. Supported grammar, one instruction per line:
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
//!     jlt32 r6, r7, +2        ;   jlt jle jslt jsle (+ '32' suffix);
//!     ja    out               ;   target is a label or a relative '+N'/'-N'
//!     call  bpf_ktime_get_ns  ; helper by name or by id
//!     call  14
//! out:
//!     exit
//! ```

use crate::asm::{Asm, AsmError};
use crate::decode::Decoded;
use crate::helpers::Helper;
use crate::insn::{
    field_bits, Insn, Reg, ALU_MNEMONICS, CLS_ALU, CLS_ALU64, CLS_JMP, CLS_JMP32, JMP_MNEMONICS,
    OP_NEG, SIZE_SUFFIXES, SRC_K, SRC_X,
};
use crate::maps::MapFd;
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

/// The ALU or jump instruction `class_op` on `dst` whose right-hand
/// operand `tok` is a register, or else a 32-bit immediate.
fn with_operand(class_op: u8, dst: Reg, tok: &str, line: usize) -> Result<Insn, ParseError> {
    let (code, src, imm) = match parse_reg(tok, line) {
        Ok(src) => (class_op | SRC_X, src, 0),
        Err(_) => (class_op | SRC_K, 0, parse_imm_i32(tok, line)?),
    };
    Ok(Insn {
        code,
        dst,
        src,
        off: 0,
        imm,
    })
}

/// Appends the jump `insn` to `asm`: `tok` is a relative `+N`/`-N`
/// offset or a label `asm` resolves.
fn push_jump(asm: Asm, insn: Insn, tok: &str) -> Asm {
    match tok.parse::<i16>() {
        Ok(off) if tok.starts_with(['+', '-']) => asm.insn(Insn { off, ..insn }),
        _ => asm.jump(insn, tok),
    }
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
    let mut asm = Asm::new(name);
    // The source line of each item in `asm`, for its label errors.
    let mut item_lines = Vec::new();

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
            if asm.has_label(label) {
                let duplicate = AsmError::DuplicateLabel(label.to_string());
                return Err(err(line_no, duplicate.to_string()));
            }
            asm = asm.label(label);
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

        asm = if mnemonic == "exit" {
            need(0)?;
            asm.exit()
        } else if mnemonic == "call" {
            need(1)?;
            asm.insn(Insn::call(helper_id(args[0], line_no)?))
        } else if mnemonic == "ja" {
            need(1)?;
            push_jump(asm, Insn::ja(0), args[0])
        } else if mnemonic == "ld_dw" {
            need(2)?;
            let dst = parse_reg(args[0], line_no)?;
            asm.ld_dw(dst, parse_imm_u64(args[1], line_no)?)
        } else if mnemonic == "ld_map_fd" {
            need(2)?;
            let fd = parse_imm_i64(args[1], line_no)?;
            let dst = parse_reg(args[0], line_no)?;
            let fd = u32::try_from(fd).map_err(|_| err(line_no, "map fd out of range"))?;
            asm.ld_map_fd(dst, MapFd(fd))
        } else if let Some(rest) = mnemonic.strip_prefix("ldx") {
            let size = field_bits(&SIZE_SUFFIXES, rest)
                .ok_or_else(|| err(line_no, format!("bad load size in `{mnemonic}`")))?;
            need(2)?;
            let dst = parse_reg(args[0], line_no)?;
            let (src, off) = parse_mem(args[1], line_no)?;
            asm.load(size, dst, src, off)
        } else if let Some(rest) = mnemonic.strip_prefix("stx") {
            let size = field_bits(&SIZE_SUFFIXES, rest)
                .ok_or_else(|| err(line_no, format!("bad store size in `{mnemonic}`")))?;
            need(2)?;
            let (dst, off) = parse_mem(args[0], line_no)?;
            asm.store_reg(size, dst, parse_reg(args[1], line_no)?, off)
        } else if let Some(rest) = mnemonic.strip_prefix("st") {
            let size = field_bits(&SIZE_SUFFIXES, rest)
                .ok_or_else(|| err(line_no, format!("bad store size in `{mnemonic}`")))?;
            need(2)?;
            let (dst, off) = parse_mem(args[0], line_no)?;
            asm.store_imm(size, dst, off, parse_imm_i32(args[1], line_no)?)
        } else {
            // ALU or conditional jump, possibly with a 32 suffix.
            let (base, is32) = match mnemonic.strip_suffix("32") {
                Some(base) => (base, true),
                None => (mnemonic, false),
            };
            if let Some(op) = field_bits(&JMP_MNEMONICS, base) {
                need(3)?;
                let class = if is32 { CLS_JMP32 } else { CLS_JMP };
                let dst = parse_reg(args[0], line_no)?;
                let insn = with_operand(class | op, dst, args[1], line_no)?;
                push_jump(asm, insn, args[2])
            } else {
                let op = field_bits(&ALU_MNEMONICS, base)
                    .ok_or_else(|| err(line_no, format!("unknown mnemonic `{mnemonic}`")))?;
                let class = if is32 { CLS_ALU } else { CLS_ALU64 };
                // `neg` has no operand; it encodes an immediate 0.
                need(if op == OP_NEG { 1 } else { 2 })?;
                let dst = parse_reg(args[0], line_no)?;
                let operand = if op == OP_NEG { "0" } else { args[1] };
                asm.insn(with_operand(class | op, dst, operand, line_no)?)
            }
        };
        item_lines.push(line_no);
    }
    asm.resolve()
        .map_err(|(item, e)| err(item_lines[item], e.to_string()))
}

/// A slot that has no textual rendering: a trap ([`Decoded::has_text`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmitError {
    /// Slot index of the offending instruction.
    pub pc: usize,
    /// The trap decoded there.
    pub slot: Decoded,
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pc {}: {} has no text form",
            self.pc,
            self.slot.text(self.pc)
        )
    }
}

impl std::error::Error for EmitError {}

/// Renders a program back into the text grammar [`parse_program`] accepts,
/// one [`Decoded::text`] line per instruction.
///
/// The output is the inverse of parsing: for any program built from the
/// canonical [`Insn`] constructors (as the assembler and parser both do),
/// `parse_program(name, &emit_program(p)?)` reproduces `p` slot for slot.
/// Jump targets are rendered as relative `+N`/`-N` displacements, so no
/// label inference is needed.
///
/// # Errors
///
/// Returns [`EmitError`] at the first trap with no text form: an
/// undefined opcode byte, a malformed `ld_dw` or a register past r10
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
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut pc = 0;
    while let Some(&slot) = prog.decoded().get(pc) {
        if !slot.has_text() {
            return Err(EmitError { pc, slot });
        }
        let _ = writeln!(out, "{}", slot.text(pc));
        pc += slot.width();
    }
    Ok(out)
}

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
        // The second jump to `far` is 32,771 slots back, past i16.
        let far = format!(
            "far: mov r0, 0\nja far\n{}ja far\nexit",
            "ld_dw r0, 0\n".repeat(16_384)
        );
        let label_rows = [
            (far.as_str(), 16_387, "out of 16-bit range"),
            (
                "jeq r0, 1, ok\njne r0, 0, nowhere\nok: exit",
                2,
                "undefined label",
            ),
        ];
        for (src, line, needle) in cases.into_iter().chain(label_rows) {
            let e = parse_program("t", src).unwrap_err();
            assert_eq!(e.line, line, "{src}");
            assert!(e.message.contains(needle), "{src}: {e}");
        }
    }

    #[test]
    fn jmp32_label_jumps_resolve() {
        use crate::insn::{OP_JEQ, R1};
        let prog = parse_program("t", "jeq32 r1, 5, out\nmov r0, 1\nout:\nexit").unwrap();
        assert_eq!(prog.insns()[0], Insn::jmp32_imm(OP_JEQ, R1, 5, 1));
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
