"""Scope of the assemblers' per-call parse/encode memos.

Both assemblers parse and encode each distinct instruction line once
per ``assemble()`` call and reuse the result for repeated copies of
the line.  These tests check the emitted words against values derived
from addresses and symbols alone, so a memo that reuses too much fails
them:

* an address-dependent line (branches, ``adr``, literal-pool loads)
  repeated at two addresses encodes relative to each address;
* a symbol-dependent line (``movw #:lower16:``, ``la``, ``%hi``) keeps
  no value from one ``assemble()`` call to the next;
* an error reports the line number of the occurrence that failed.
"""

import pytest

from repro.arch import get_arch
from repro.errors import AssemblyError


def _arm_text(prog):
    arch = get_arch("arm")
    base, data = prog.sections[".text"]
    return base, data, list(arch.disassembler().disasm_range(data, base))


def _mips_text(prog):
    arch = get_arch("mips")
    base, data = prog.sections[".text"]
    return base, data, list(arch.disassembler().disasm_range(data, base))


class TestArmAddressDependentLines:
    def test_branch_repeated_at_two_addresses(self):
        src = (".text\ntarget:\n nop\n b target\n bl target\n nop\n"
               " b target\n bl target\n")
        prog = get_arch("arm").assembler().assemble(src)
        _base, _data, insns = _arm_text(prog)
        branches = [i for i in insns if i.mnemonic in ("b", "bl")]
        assert len(branches) == 4
        assert len({i.raw for i in branches}) == 4
        for insn in branches:
            assert insn.branch_target() == prog.symbols["target"]

    def test_adr_repeated_at_two_addresses(self):
        src = ".text\n adr r0, msg\n nop\n adr r0, msg\nmsg: .word 7\n"
        prog = get_arch("arm").assembler().assemble(src)
        _base, _data, insns = _arm_text(prog)
        first, second = insns[0], insns[2]
        assert first.raw != second.raw
        # msg lies after the first copy and before the second's pc+8.
        assert (first.mnemonic, second.mnemonic) == ("add", "sub")
        for insn in (first, second):
            sign = 1 if insn.mnemonic == "add" else -1
            assert insn.rn == 15
            assert insn.addr + 8 + sign * insn.imm == prog.symbols["msg"]

    def test_literal_load_repeated_in_one_pool_and_across_pools(self):
        src = (".text\nf:\n ldr r0, =f\n ldr r0, =f\n b skip\n.ltorg\n"
               "skip:\n ldr r0, =f\n bx lr\n.ltorg\n")
        prog = get_arch("arm").assembler().assemble(src)
        base, data, _insns = _arm_text(prog)
        dis = get_arch("arm").disassembler()
        loads = [dis.disasm_one(data, off, base + off) for off in (0, 4, 16)]
        literal_addrs = []
        for insn in loads:
            assert insn.mnemonic == "ldr" and insn.rn == 15
            sign = 1 if insn.u_bit else -1
            literal = insn.addr + 8 + sign * insn.imm
            literal_addrs.append(literal)
            off = literal - base
            assert int.from_bytes(data[off:off + 4], "little") == \
                prog.symbols["f"]
        # The first two share the first pool; the third reads its own.
        assert literal_addrs[0] == literal_addrs[1] == base + 12
        assert literal_addrs[2] == base + 24


class TestArmSymbolDependentLines:
    def test_movw_movt_do_not_outlive_one_call(self):
        asm = get_arch("arm").assembler()
        src = (".text\n movw r0, #:lower16:sym\n movt r0, #:upper16:sym\n"
               " movw r1, #:lower16:sym\n")
        for value in (0x12345678, 0x9ABCDEF0):
            prog = asm.assemble(src, extern_symbols={"sym": value})
            _base, _data, insns = _arm_text(prog)
            assert [i.imm for i in insns] == [
                value & 0xFFFF, value >> 16, value & 0xFFFF,
            ]

    def test_literal_pool_value_does_not_outlive_one_call(self):
        asm = get_arch("arm").assembler()
        for value in (0x1111, 0x2222):
            prog = asm.assemble(".text\n ldr r0, =sym\n.ltorg\n",
                                extern_symbols={"sym": value})
            data = prog.sections[".text"][1]
            assert int.from_bytes(data[4:8], "little") == value


class TestMipsAddressDependentLines:
    def test_conditional_branch_repeated_at_two_addresses(self):
        src = (".text\ntop:\n beq $t0, $t1, top\n nop\n"
               " beq $t0, $t1, top\n nop\n")
        prog = get_arch("mips").assembler().assemble(src)
        _base, _data, insns = _mips_text(prog)
        first, second = insns[0], insns[2]
        assert first.raw != second.raw
        assert first.branch_target() == prog.symbols["top"]
        assert second.branch_target() == prog.symbols["top"]

    def test_jump_repeated_at_two_addresses(self):
        src = (".text\nmain:\n jal helper\n nop\n j helper\n nop\n"
               " jal helper\n nop\nhelper:\n jr $ra\n nop\n")
        prog = get_arch("mips").assembler().assemble(src)
        _base, _data, insns = _mips_text(prog)
        jumps = [i for i in insns if i.mnemonic in ("j", "jal")]
        assert len(jumps) == 3
        for insn in jumps:
            assert insn.target == prog.symbols["helper"]

    def test_jump_region_checked_per_address(self):
        # The same ``j`` text is in range at the first address and out of
        # the 256 MiB region at the second.
        src = ".text\n j 0x0ffffff0\n nop\n.space 0x20\n j 0x0ffffff0\n"
        asm = get_arch("mips").assembler()
        with pytest.raises(AssemblyError) as info:
            asm.assemble(src, section_bases={".text": 0x0fffffe0})
        assert info.value.line == 5


class TestMipsSymbolDependentLines:
    def test_la_and_hi_lo_do_not_outlive_one_call(self):
        asm = get_arch("mips").assembler()
        src = (".text\n la $t0, sym\n lui $t1, %hi(sym)\n"
               " addiu $t1, $t1, %lo(sym)\n la $t0, sym\n")
        for value in (0x00418000, 0x10007FF0):
            prog = asm.assemble(src, extern_symbols={"sym": value})
            _base, _data, insns = _mips_text(prog)
            pairs = [(insns[0], insns[1]), (insns[2], insns[3]),
                     (insns[4], insns[5])]
            for lui, addiu in pairs:
                rebuilt = ((lui.imm & 0xFFFF) << 16) + addiu.imm
                assert rebuilt & 0xFFFFFFFF == value


class TestErrorLineNumbers:
    @pytest.mark.parametrize("arch,bad", [
        ("arm", "mov r0, #0x101"),
        ("arm", "frob r0, r1"),
        ("arm", "ldr r0, [r1, #0x1000]"),
        ("mips", "addiu $t0, $t1, 0x9000"),
        ("mips", "frob $t0"),
        ("mips", "lw $t0, bogus"),
    ])
    def test_repeated_bad_line_reports_first_occurrence(self, arch, bad):
        src = ".text\n nop\n %s\n nop\n %s\n" % (bad, bad)
        with pytest.raises(AssemblyError) as info:
            get_arch(arch).assembler().assemble(src)
        assert info.value.line == 3

    def test_arm_adr_out_of_range_only_at_second_copy(self):
        # 0x1000 (first copy) is an encodable rotated immediate, 0xff8
        # (second copy, two words later) is not.
        src = ".text\n adr r0, msg\n nop\n adr r0, msg\n.space 0xffc\nmsg:\n"
        with pytest.raises(AssemblyError) as info:
            get_arch("arm").assembler().assemble(src)
        assert info.value.line == 4

    def test_mips_branch_out_of_range_only_at_second_copy(self):
        src = (".text\ntop:\n beq $t0, $t1, top\n nop\n.space 0x20000\n"
               " beq $t0, $t1, top\n nop\n")
        with pytest.raises(AssemblyError) as info:
            get_arch("mips").assembler().assemble(src)
        assert info.value.line == 6
