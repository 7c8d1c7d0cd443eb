"""Two-pass MIPS32 (big-endian) assembler.

Pseudo-instructions expand the way GNU ``as`` does:

* ``move rd, rs``      → ``addu rd, rs, $zero``
* ``li rt, imm``       → ``addiu``/``ori``/``lui+ori`` depending on range
* ``la rt, symbol``    → ``lui rt, %hi(sym); addiu rt, rt, %lo(sym)``
* ``b label``          → ``beq $zero, $zero, label``
* ``beqz/bnez rs, l``  → ``beq/bne rs, $zero, l``
* ``nop``              → ``sll $zero, $zero, 0``
* ``jalr rs``          → ``jalr $ra, rs``

``%hi``/``%lo`` use the carry-compensating convention so that
``lui+addiu`` reconstructs the full address.  Branch delay slots are
*not* filled automatically; the code generator emits them explicitly.

Comment markers are ``#`` and ``;``.
"""

import re

from repro.arch import asmlang
from repro.arch.archinfo import MIPS_REG_NAMES
from repro.arch.asmlang import AssembledProgram, parse_int
from repro.arch.mips import encoding as enc
from repro.errors import AssemblyError
from repro.utils.bits import align_up

_REG_BY_NAME = dict(enc.REG_BY_NAME)
_REG_BY_NAME["s8"] = _REG_BY_NAME["fp"]

_MEM_RE = re.compile(r"^(-?\w+|%lo\([^)]+\))\(([^)]+)\)$")
_RELOC_RE = re.compile(r"^%(hi|lo)\(([^)]+)\)$")

_DEFAULT_BASES = {".text": 0x400000, ".rodata": None, ".data": None, ".bss": None}

_SHIFTS = ("sll", "srl", "sra")
_SHIFT_VARS = ("sllv", "srlv", "srav")
_THREE_REG = ("addu", "subu", "and", "or", "xor", "nor", "slt", "sltu")
_IMM_OPS = ("addiu", "slti", "sltiu", "andi", "ori", "xori")
# Encoded relative to their own address; every other primitive encodes
# the same wherever it sits (%hi/%lo only read the fixed symbol table).
_PC_RELATIVE = frozenset(
    ("beq", "bne", "blez", "bgtz", "bltz", "bgez", "j", "jal")
)


def parse_register(token, line=None):
    token = token.strip().lstrip("$").lower()
    if token in _REG_BY_NAME:
        return _REG_BY_NAME[token]
    if token.isdigit() and int(token) < 32:
        return int(token)
    raise AssemblyError("bad register %r" % token, line)


def hi16(value):
    """%hi with carry compensation: lui+addiu reconstructs ``value``."""
    return ((value + 0x8000) >> 16) & 0xFFFF


def lo16(value):
    return value & 0xFFFF


class _InsnSpec:
    """One primitive instruction occurrence.

    ``form`` is ``(mnemonic, operands)``, shared by every copy of the
    same primitive in one :meth:`MipsAssembler.assemble` call.
    """

    __slots__ = ("form", "line")

    def __init__(self, form, line):
        self.form = form
        self.line = line


class MipsAssembler:
    """Assembles MIPS source to absolute-addressed section images."""

    comment_chars = "#;"

    def assemble(self, source, section_bases=None, extern_symbols=None):
        parsed = asmlang.parse_source(source, self.comment_chars)
        extern_symbols = dict(extern_symbols or {})

        # Each distinct line text is split and expanded once per call.
        forms = {}
        layouts = {
            name: self._layout_section(items, forms)
            for name, items in parsed.sections.items()
        }
        bases = self._place_sections(layouts, section_bases)

        symbols = dict(extern_symbols)
        for name, layout in layouts.items():
            for label, offset in layout["labels"].items():
                if label in symbols:
                    raise AssemblyError("duplicate label %r" % label)
                symbols[label] = bases[name] + offset

        # Each distinct address-free primitive is encoded once per call;
        # ``symbols`` is fixed for the call.
        words = {}
        sections = {}
        for name, layout in layouts.items():
            sections[name] = (
                bases[name],
                self._encode_section(layout, bases[name], symbols, words),
            )
        return AssembledProgram(
            sections=sections, symbols=symbols, exported=set(parsed.exported)
        )

    # ------------------------------------------------------------------

    def _expand_pseudo(self, mnemonic, ops, line):
        """Expand one source line to a list of primitive forms."""
        if mnemonic == "nop":
            return [("sll", ("$zero", "$zero", "0"))]
        if mnemonic == "move":
            return [("addu", (ops[0], ops[1], "$zero"))]
        if mnemonic == "b":
            return [("beq", ("$zero", "$zero", ops[0]))]
        if mnemonic == "beqz":
            return [("beq", (ops[0], "$zero", ops[1]))]
        if mnemonic == "bnez":
            return [("bne", (ops[0], "$zero", ops[1]))]
        if mnemonic == "li":
            value = parse_int(ops[1], line)
            if -0x8000 <= value <= 0x7FFF:
                return [("addiu", (ops[0], "$zero", str(value)))]
            if 0 <= value <= 0xFFFF:
                return [("ori", (ops[0], "$zero", str(value)))]
            low = lo16(value)
            if low >= 0x8000:
                low -= 0x10000
            return [
                ("lui", (ops[0], str(hi16(value)))),
                ("addiu", (ops[0], ops[0], str(low))),
            ]
        if mnemonic == "la":
            return [
                ("lui", (ops[0], "%%hi(%s)" % ops[1])),
                ("addiu", (ops[0], ops[0], "%%lo(%s)" % ops[1])),
            ]
        if mnemonic == "jalr" and len(ops) == 1:
            return [("jalr", ("$ra", ops[0]))]
        return [(mnemonic, tuple(ops))]

    def _parse_line(self, text, line):
        """Split one instruction line and expand it to primitive forms."""
        parts = text.split(None, 1)
        ops = (
            [op.strip() for op in parts[1].split(",")]
            if len(parts) > 1
            else []
        )
        return self._expand_pseudo(parts[0].lower(), ops, line)

    def _layout_section(self, items, forms):
        records = []
        labels = {}
        offset = 0
        for item in items:
            if item.kind == "label":
                labels[item.text] = offset
            elif item.kind == "insn":
                expanded = forms.get(item.text)
                if expanded is None:
                    expanded = forms[item.text] = self._parse_line(
                        item.text, item.line)
                for form in expanded:
                    records.append(
                        (offset, 4, "insn", _InsnSpec(form, item.line))
                    )
                    offset += 4
            elif item.kind == "align":
                boundary = 1 << parse_int(item.args[0], item.line)
                new_offset = align_up(offset, boundary)
                if new_offset != offset:
                    records.append((offset, new_offset - offset, "zeros", None))
                offset = new_offset
            elif item.kind == "space":
                size = parse_int(item.args[0], item.line)
                records.append((offset, size, "zeros", None))
                offset += size
            elif item.kind == "string":
                data = item.text.encode("latin-1")
                records.append((offset, len(data), "bytes", data))
                offset += len(data)
            elif item.kind in ("word", "half", "byte"):
                width = {"word": 4, "half": 2, "byte": 1}[item.kind]
                size = width * len(item.args)
                records.append(
                    (offset, size, "ints", (width, item.args, item.line))
                )
                offset += size
            elif item.kind == "ltorg":
                pass  # ARM-only; harmless no-op on MIPS
            else:
                raise AssemblyError("unhandled item %r" % item.kind, item.line)
        return {"records": records, "labels": labels, "size": offset}

    def _place_sections(self, layouts, section_bases):
        bases = {}
        cursor = None
        for name in asmlang.SECTIONS:
            requested = (section_bases or {}).get(name)
            if requested is not None:
                bases[name] = requested
                cursor = requested + layouts[name]["size"]
                continue
            if cursor is None:
                cursor = _DEFAULT_BASES[".text"]
            bases[name] = align_up(cursor, 0x1000) if layouts[name]["size"] else cursor
            cursor = bases[name] + layouts[name]["size"]
        return bases

    # ------------------------------------------------------------------

    def _imm_value(self, token, symbols, line):
        """Resolve an immediate token, including %hi/%lo relocations."""
        match = _RELOC_RE.match(token.strip())
        if match:
            value = asmlang.eval_symbol_expr(match.group(2), symbols, line)
            if match.group(1) == "hi":
                return hi16(value)
            low = lo16(value)
            return low - 0x10000 if low >= 0x8000 else low
        return asmlang.eval_symbol_expr(token, symbols, line)

    def _encode_section(self, layout, base, symbols, words):
        out = bytearray(layout["size"])
        for offset, size, kind, payload in layout["records"]:
            if kind == "insn":
                if payload.form[0] in _PC_RELATIVE:
                    word = self._encode_insn(
                        payload, base + offset, symbols).to_bytes(4, "big")
                else:
                    word = words.get(payload.form)
                    if word is None:
                        word = words[payload.form] = self._encode_insn(
                            payload, base + offset, symbols,
                        ).to_bytes(4, "big")
                out[offset:offset + 4] = word
            elif kind == "bytes":
                out[offset:offset + size] = payload
            elif kind == "ints":
                width, args, line = payload
                for i, arg in enumerate(args):
                    value = asmlang.eval_symbol_expr(arg, symbols, line)
                    value &= (1 << (8 * width)) - 1
                    out[offset + width * i:offset + width * (i + 1)] = (
                        value.to_bytes(width, "big")
                    )
        return bytes(out)

    def _encode_insn(self, spec, addr, symbols):
        (m, ops), line = spec.form, spec.line
        insn = None
        if m in _SHIFTS:
            insn = enc.MipsInsn(
                kind="r", mnemonic=m,
                rd=parse_register(ops[0], line), rt=parse_register(ops[1], line),
                shamt=parse_int(ops[2], line) & 0x1F,
            )
        elif m in _SHIFT_VARS:
            insn = enc.MipsInsn(
                kind="r", mnemonic=m,
                rd=parse_register(ops[0], line), rt=parse_register(ops[1], line),
                rs=parse_register(ops[2], line),
            )
        elif m in _THREE_REG:
            insn = enc.MipsInsn(
                kind="r", mnemonic=m,
                rd=parse_register(ops[0], line), rs=parse_register(ops[1], line),
                rt=parse_register(ops[2], line),
            )
        elif m == "jr":
            insn = enc.MipsInsn(kind="r", mnemonic="jr",
                                rs=parse_register(ops[0], line))
        elif m == "jalr":
            insn = enc.MipsInsn(
                kind="r", mnemonic="jalr",
                rd=parse_register(ops[0], line), rs=parse_register(ops[1], line),
            )
        elif m in _IMM_OPS:
            imm = self._imm_value(ops[2], symbols, line)
            if m in ("andi", "ori", "xori"):
                if not 0 <= imm <= 0xFFFF:
                    imm &= 0xFFFF
            elif not -0x8000 <= imm <= 0x7FFF:
                raise AssemblyError("immediate %d out of range for %s" % (imm, m), line)
            insn = enc.MipsInsn(
                kind="i", mnemonic=m,
                rt=parse_register(ops[0], line), rs=parse_register(ops[1], line),
                imm=imm,
            )
        elif m == "lui":
            insn = enc.MipsInsn(
                kind="i", mnemonic="lui",
                rt=parse_register(ops[0], line),
                imm=self._imm_value(ops[1], symbols, line) & 0xFFFF,
            )
        elif m in enc.LOADS or m in enc.STORES:
            match = _MEM_RE.match(ops[1].replace(" ", ""))
            if not match:
                raise AssemblyError("bad memory operand %r" % ops[1], line)
            imm = self._imm_value(match.group(1), symbols, line)
            insn = enc.MipsInsn(
                kind="i", mnemonic=m,
                rt=parse_register(ops[0], line),
                rs=parse_register(match.group(2), line),
                imm=imm,
            )
        elif m in ("beq", "bne"):
            target = asmlang.eval_symbol_expr(ops[2], symbols, line)
            insn = enc.MipsInsn(
                kind="i", mnemonic=m,
                rs=parse_register(ops[0], line), rt=parse_register(ops[1], line),
                imm=self._branch_offset(target, addr, line),
            )
        elif m in ("blez", "bgtz", "bltz", "bgez"):
            target = asmlang.eval_symbol_expr(ops[1], symbols, line)
            insn = enc.MipsInsn(
                kind="i", mnemonic=m, rs=parse_register(ops[0], line),
                imm=self._branch_offset(target, addr, line),
            )
        elif m in ("j", "jal"):
            target = asmlang.eval_symbol_expr(ops[0], symbols, line)
            if (target & 0xF0000000) != ((addr + 4) & 0xF0000000):
                raise AssemblyError("jump target out of region", line)
            insn = enc.MipsInsn(kind="j", mnemonic=m, target=target)
        if insn is None:
            raise AssemblyError("unknown mnemonic %r" % m, line)
        try:
            return enc.encode(insn)
        except AssemblyError as exc:
            raise AssemblyError(str(exc), line)

    @staticmethod
    def _branch_offset(target, addr, line):
        delta = target - (addr + 4)
        if delta % 4:
            raise AssemblyError("unaligned branch target", line)
        offset = delta >> 2
        if not -0x8000 <= offset <= 0x7FFF:
            raise AssemblyError("branch target out of range", line)
        return offset
