//! PoC: verifier accepts, interpreter faults (ptr - i64::MIN wrap).
use kscope_ebpf::asm::Asm;
use kscope_ebpf::insn::{R0, R1, R10, R2, SZ_DW, SZ_W};
use kscope_ebpf::interp::ExecEnv;
use kscope_ebpf::maps::{MapDef, MapRegistry};
use kscope_ebpf::verifier::Verifier;
use kscope_ebpf::{Helper, Vm};

#[test]
fn ptr_sub_i64_min_is_unsound() {
    let mut maps = MapRegistry::new();
    let fd = maps.create("v", MapDef::array(8, 1));
    let prog = Asm::new("poc")
        .store_imm(SZ_W, R10, -4, 0)
        .ld_map_fd(R1, fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -4)
        .call(Helper::MapLookupElem)
        .jeq_imm(R0, 0, "out")
        .ld_dw(R2, 0x7FFF_FFFF_FFFF_FFFF)
        .sub64_reg(R0, R2)
        .ld_dw(R2, 0x8000_0000_0000_0000)
        .sub64_reg(R0, R2)
        // verifier believes offset is back to 0; runtime ptr is base+1
        .load(SZ_DW, R1, R0, 0)
        .label("out")
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .unwrap();
    let verdict = Verifier::default().verify(&prog, &maps);
    println!("verifier: {verdict:?}");
    if verdict.is_ok() {
        let res = Vm::new().execute(&prog, &[], &mut maps, &mut ExecEnv::default());
        println!("interpreter: {res:?}");
        assert!(res.is_ok(), "UNSOUND: verified program faulted: {res:?}");
    }
}
