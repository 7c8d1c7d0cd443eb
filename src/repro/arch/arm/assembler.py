"""Two-pass ARM32 assembler.

Supports the instruction subset in :mod:`repro.arch.arm.encoding`, the
common directives from :mod:`repro.arch.asmlang`, literal pools
(``ldr rd, =expr`` plus ``.ltorg``), label arithmetic in ``.word``, and
register-list syntax for ``push``/``pop``/``ldm``/``stm``.

Comment markers are ``@`` and ``;`` (``#`` introduces immediates).
"""

import re

from repro.arch import asmlang
from repro.arch.arm import encoding as enc
from repro.arch.asmlang import AssembledProgram, parse_int
from repro.errors import AssemblyError
from repro.utils.bits import align_up

_REG_ALIASES = {"sp": 13, "lr": 14, "pc": 15, "ip": 12, "fp": 11, "sl": 10}
_BLOCK_MODES = ("ia", "ib", "da", "db")
_BASES = sorted(
    list(enc.DP_OPCODES)
    + ["mul", "ldr", "str", "ldrb", "strb", "ldrh", "strh", "ldrsb", "ldrsh",
       "ldm", "stm", "push", "pop", "b", "bl", "bx", "blx", "movw", "movt",
       "nop", "adr"]
    + ["ldm%s" % m for m in _BLOCK_MODES]
    + ["stm%s" % m for m in _BLOCK_MODES],
    key=len,
    reverse=True,
)
_NO_FLAGS = frozenset(
    ["b", "bl", "bx", "blx", "ldr", "str", "ldrb", "strb", "ldrh", "strh",
     "ldrsb", "ldrsh", "ldm", "stm", "push", "pop", "movw", "movt", "nop",
     "adr"]
    + ["ldm%s" % m for m in _BLOCK_MODES]
    + ["stm%s" % m for m in _BLOCK_MODES]
)

_DEFAULT_BASES = {".text": 0x10000, ".rodata": None, ".data": None, ".bss": None}


def parse_register(token, line=None):
    token = token.strip().lower()
    if token in _REG_ALIASES:
        return _REG_ALIASES[token]
    match = re.fullmatch(r"r(\d{1,2})", token)
    if match and int(match.group(1)) < 16:
        return int(match.group(1))
    raise AssemblyError("bad register %r" % token, line)


def _parse_mnemonic(word, line):
    """Split ``word`` into (base, cond, set_flags).

    Suffix parsing is ambiguous (``movvs`` is mov+vs, ``movs`` is
    mov+S, ``subles`` is sub+le+S); every consistent reading of the
    remainder as ``[cond][s]`` is tried.
    """
    word = word.lower()
    for base in _BASES:
        if not word.startswith(base):
            continue
        rest = word[len(base):]
        allows_flags = base not in _NO_FLAGS and base not in enc.DP_COMPARE
        candidates = [(rest, False)]
        if allows_flags and rest.endswith("s"):
            candidates.append((rest[:-1], True))
        for cond_part, flags in candidates:
            if not cond_part:
                return base, enc.COND_AL, flags
            if cond_part in enc.COND_BY_NAME:
                return base, enc.COND_BY_NAME[cond_part], flags
    raise AssemblyError("unknown mnemonic %r" % word, line)


def _split_operands(text):
    """Split an operand string on top-level commas."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "[{(":
            depth += 1
        elif ch in "]})":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_reglist(token, line):
    if not (token.startswith("{") and token.endswith("}")):
        raise AssemblyError("expected register list, got %r" % token, line)
    regs = []
    for part in token[1:-1].split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo_s, hi_s = part.split("-", 1)
            lo, hi = parse_register(lo_s, line), parse_register(hi_s, line)
            regs.extend(range(lo, hi + 1))
        else:
            regs.append(parse_register(part, line))
    return tuple(sorted(set(regs)))


def _parse_shift(tokens, line):
    """Parse optional trailing ``lsl #n`` shift tokens."""
    if not tokens:
        return 0, 0
    if len(tokens) != 1:
        raise AssemblyError("trailing operands %r" % (list(tokens),), line)
    parts = tokens[0].split()
    if len(parts) != 2 or parts[0].lower() not in enc.SHIFT_BY_NAME:
        raise AssemblyError("bad shift %r" % tokens[0], line)
    amount_tok = parts[1]
    if not amount_tok.startswith("#"):
        raise AssemblyError("shift amount must be immediate", line)
    amount = parse_int(amount_tok[1:], line)
    stype = enc.SHIFT_BY_NAME[parts[0].lower()]
    if stype == 0 and not 0 <= amount <= 31:
        raise AssemblyError("lsl amount out of range", line)
    if stype in (1, 2) and not 1 <= amount <= 32:
        raise AssemblyError("shift amount out of range", line)
    return stype, amount % 32


class _InsnSpec:
    """One occurrence of a parsed instruction awaiting final encoding.

    ``form`` is the parse of the line's text, shared by every copy of
    that text in one :meth:`ArmAssembler.assemble` call:
    ``(base, cond, flags, operands, pool_expr, label_expr)``.
    ``pool_expr`` is set for ``ldr rd, =expr`` pseudo-instructions,
    ``label_expr`` for branch targets and ``adr``.  ``pool_offset``
    (the literal's section offset) is set when its pool is placed.
    """

    __slots__ = (
        "text", "base", "cond", "flags", "operands", "line",
        "pool_expr", "pool_offset", "label_expr",
    )

    def __init__(self, text, form, line):
        self.text = text
        (self.base, self.cond, self.flags, self.operands,
         self.pool_expr, self.label_expr) = form
        self.line = line
        self.pool_offset = None


class ArmAssembler:
    """Assembles ARM source to absolute-addressed section images."""

    comment_chars = "@;"

    def assemble(self, source, section_bases=None, extern_symbols=None):
        """Assemble ``source``; return an :class:`AssembledProgram`."""
        parsed = asmlang.parse_source(source, self.comment_chars)
        extern_symbols = dict(extern_symbols or {})

        # Pass 1: parse instructions, compute layout per section.  Each
        # distinct line text is parsed once per call (``forms``).
        forms = {}
        layouts = {}
        for name, items in parsed.sections.items():
            layouts[name] = self._layout_section(items, forms)

        bases = self._place_sections(layouts, section_bases)

        # Collect the symbol table.
        symbols = dict(extern_symbols)
        for name, layout in layouts.items():
            base = bases[name]
            for label, offset in layout["labels"].items():
                if label in symbols:
                    raise AssemblyError("duplicate label %r" % label)
                symbols[label] = base + offset

        # Pass 2: encode.  ``words`` holds the encoding of each
        # address-free line text; ``symbols`` is fixed for the call, so
        # movw/movt against a label may be reused too.
        words = {}
        sections = {}
        for name, layout in layouts.items():
            data = self._encode_section(layout, bases[name], symbols, words)
            sections[name] = (bases[name], data)

        return AssembledProgram(
            sections=sections, symbols=symbols, exported=set(parsed.exported)
        )

    # ------------------------------------------------------------------
    # Pass 1.

    def _layout_section(self, items, forms):
        records = []        # (offset, size, kind, payload)
        labels = {}
        offset = 0
        pool = {}           # pending literal expression -> pool index
        pooled = []         # specs loading from the pending pool

        def flush_pool():
            nonlocal offset, pool, pooled
            if not pool:
                return
            records.append((offset, 4 * len(pool), "pool", list(pool)))
            for spec in pooled:
                spec.pool_offset = offset + 4 * pool[spec.pool_expr]
            offset += 4 * len(pool)
            pool, pooled = {}, []

        for item in items:
            if item.kind == "label":
                labels[item.text] = offset
            elif item.kind == "insn":
                form = forms.get(item.text)
                if form is None:
                    form = forms[item.text] = self._parse_insn(
                        item.text, item.line)
                spec = _InsnSpec(item.text, form, item.line)
                if spec.pool_expr is not None:
                    pool.setdefault(spec.pool_expr, len(pool))
                    pooled.append(spec)
                records.append((offset, 4, "insn", spec))
                offset += 4
            elif item.kind == "ltorg":
                flush_pool()
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
            else:
                raise AssemblyError("unhandled item %r" % item.kind, item.line)
        flush_pool()
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
    # Instruction parsing.

    def _parse_insn(self, text, line):
        """Parse one line's text into an :class:`_InsnSpec` ``form``."""
        parts = text.split(None, 1)
        base, cond, flags = _parse_mnemonic(parts[0], line)
        operands = tuple(_split_operands(parts[1])) if len(parts) > 1 else ()
        pool_expr = label_expr = None
        if base == "ldr" and operands and operands[-1].startswith("="):
            pool_expr = operands[-1][1:].strip()
        elif base in ("b", "bl"):
            if len(operands) != 1:
                raise AssemblyError("branch needs one target", line)
            label_expr = operands[0]
        elif base == "adr":
            if len(operands) != 2:
                raise AssemblyError("adr needs rd, label", line)
            label_expr = operands[1]
        return base, cond, flags, operands, pool_expr, label_expr

    # ------------------------------------------------------------------
    # Pass 2.

    def _encode_section(self, layout, base, symbols, words):
        out = bytearray(layout["size"])
        for offset, size, kind, payload in layout["records"]:
            if kind == "insn":
                # Only b/bl/adr (label_expr) and literal loads (pool_expr)
                # are pc-relative; every other line encodes alike anywhere.
                if payload.pool_expr is None and payload.label_expr is None:
                    word = words.get(payload.text)
                    if word is None:
                        word = words[payload.text] = self._encode_insn(
                            payload, base + offset, symbols, None,
                        ).to_bytes(4, "little")
                else:
                    word = self._encode_insn(
                        payload, base + offset, symbols,
                        base + payload.pool_offset
                        if payload.pool_expr is not None else None,
                    ).to_bytes(4, "little")
                out[offset:offset + 4] = word
            elif kind == "pool":
                for i, expr in enumerate(payload):
                    value = asmlang.eval_symbol_expr(expr, symbols) & 0xFFFFFFFF
                    out[offset + 4 * i:offset + 4 * i + 4] = value.to_bytes(
                        4, "little"
                    )
            elif kind == "bytes":
                out[offset:offset + size] = payload
            elif kind == "ints":
                width, args, line = payload
                for i, arg in enumerate(args):
                    value = asmlang.eval_symbol_expr(arg, symbols, line)
                    value &= (1 << (8 * width)) - 1
                    out[offset + width * i:offset + width * (i + 1)] = (
                        value.to_bytes(width, "little")
                    )
            # 'zeros' records stay zero-filled.
        return bytes(out)

    def _encode_insn(self, spec, addr, symbols, pool_addr):
        base, cond, flags, ops, line = (
            spec.base, spec.cond, spec.flags, spec.operands, spec.line
        )
        insn = None
        if base == "nop":
            insn = enc.ArmInsn(kind="dp", mnemonic="mov", cond=cond, rd=0, rm=0)
        elif base in enc.DP_BY_NAME:
            insn = self._build_dp(base, cond, flags, ops, line)
        elif base == "mul":
            rd = parse_register(ops[0], line)
            rm = parse_register(ops[1], line)
            rs = parse_register(ops[2], line)
            insn = enc.ArmInsn(
                kind="mul", mnemonic="mul", cond=cond, set_flags=flags,
                rd=rd, rm=rm, rs=rs,
            )
        elif base in ("ldr", "str", "ldrb", "strb") and spec.pool_expr is None:
            insn = self._build_mem(base, cond, ops, line)
        elif base == "ldr" and spec.pool_expr is not None:
            rd = parse_register(ops[0], line)
            delta = pool_addr - (addr + 8)
            insn = enc.ArmInsn(
                kind="mem", mnemonic="ldr", cond=cond, load=True,
                rd=rd, rn=enc.PC, imm=abs(delta), uses_imm=True,
                u_bit=delta >= 0,
            )
        elif base in ("ldrh", "strh", "ldrsb", "ldrsh"):
            insn = self._build_memh(base, cond, ops, line)
        elif base in ("push", "pop") or base.startswith(("ldm", "stm")):
            insn = self._build_block(base, cond, ops, line)
        elif base in ("b", "bl"):
            target = asmlang.eval_symbol_expr(spec.label_expr, symbols, line)
            delta = target - (addr + 8)
            if delta % 4:
                raise AssemblyError("unaligned branch target", line)
            insn = enc.ArmInsn(
                kind="branch", mnemonic=base, cond=cond, imm=delta >> 2,
            )
        elif base in ("bx", "blx"):
            insn = enc.ArmInsn(
                kind="bx", mnemonic=base, cond=cond,
                rm=parse_register(ops[0], line),
            )
        elif base in ("movw", "movt"):
            rd = parse_register(ops[0], line)
            tok = ops[1]
            if tok.startswith("#"):
                tok = tok[1:]
            shift = 0
            if tok.startswith(":upper16:"):
                tok, shift = tok[len(":upper16:"):], 16
            elif tok.startswith(":lower16:"):
                tok = tok[len(":lower16:"):]
            value = asmlang.eval_symbol_expr(tok, symbols, line)
            value = (value >> shift) & 0xFFFF
            insn = enc.ArmInsn(kind=base, mnemonic=base, cond=cond, rd=rd, imm=value)
        elif base == "adr":
            rd = parse_register(ops[0], line)
            target = asmlang.eval_symbol_expr(spec.label_expr, symbols, line)
            delta = target - (addr + 8)
            mnem = "add" if delta >= 0 else "sub"
            insn = enc.ArmInsn(
                kind="dp", mnemonic=mnem, cond=cond, rd=rd, rn=enc.PC,
                imm=abs(delta), uses_imm=True,
            )
        if insn is None:
            raise AssemblyError("cannot assemble %r" % base, line)
        try:
            return enc.encode(insn)
        except AssemblyError as exc:
            raise AssemblyError(str(exc), line)

    def _build_dp(self, base, cond, flags, ops, line):
        if base in enc.DP_COMPARE:
            rd, rn, rest = None, parse_register(ops[0], line), ops[1:]
        elif base in enc.DP_UNARY:
            rd, rn, rest = parse_register(ops[0], line), None, ops[1:]
        else:
            rd = parse_register(ops[0], line)
            rn = parse_register(ops[1], line)
            rest = ops[2:]
        if not rest:
            raise AssemblyError("missing operand2", line)
        op2 = rest[0]
        if op2.startswith("#"):
            imm = parse_int(op2[1:], line)
            if imm < 0:
                # Canonicalise negative immediates where an equivalent exists.
                if base == "add":
                    base, imm = "sub", -imm
                elif base == "sub":
                    base, imm = "add", -imm
                elif base == "cmp":
                    base, imm = "cmn", -imm
                elif base == "mov":
                    base, imm = "mvn", ~imm & 0xFFFFFFFF
                else:
                    imm &= 0xFFFFFFFF
            return enc.ArmInsn(
                kind="dp", mnemonic=base, cond=cond, set_flags=flags,
                rd=rd, rn=rn, imm=imm, uses_imm=True,
            )
        rm = parse_register(op2, line)
        stype, samount = _parse_shift(rest[1:], line)
        return enc.ArmInsn(
            kind="dp", mnemonic=base, cond=cond, set_flags=flags,
            rd=rd, rn=rn, rm=rm, uses_imm=False,
            shift_type=stype, shift_amount=samount % 32,
        )

    def _parse_mem_operand(self, token, line):
        if not (token.startswith("[") and token.endswith("]")):
            raise AssemblyError("expected memory operand, got %r" % token, line)
        inner = _split_operands(token[1:-1])
        rn = parse_register(inner[0], line)
        if len(inner) == 1:
            return dict(rn=rn, imm=0, uses_imm=True, u_bit=True,
                        shift_type=0, shift_amount=0, rm=None)
        second = inner[1]
        if second.startswith("#"):
            imm = parse_int(second[1:], line)
            return dict(rn=rn, imm=abs(imm), uses_imm=True, u_bit=imm >= 0,
                        shift_type=0, shift_amount=0, rm=None)
        u_bit = True
        if second.startswith("-"):
            u_bit = False
            second = second[1:]
        rm = parse_register(second, line)
        stype, samount = _parse_shift(inner[2:], line)
        return dict(rn=rn, imm=None, uses_imm=False, u_bit=u_bit,
                    shift_type=stype, shift_amount=samount, rm=rm)

    def _build_mem(self, base, cond, ops, line):
        rd = parse_register(ops[0], line)
        mem = self._parse_mem_operand(ops[1], line)
        return enc.ArmInsn(
            kind="mem", mnemonic=base, cond=cond,
            load=base.startswith("ldr"), byte=base.endswith("b"),
            rd=rd, **mem,
        )

    def _build_memh(self, base, cond, ops, line):
        rd = parse_register(ops[0], line)
        mem = self._parse_mem_operand(ops[1], line)
        if not mem["uses_imm"]:
            raise AssemblyError("halfword transfers need immediate offsets", line)
        signed = "s" in base[3:]
        halfword = base.endswith("h")
        return enc.ArmInsn(
            kind="memh", mnemonic=base, cond=cond, load=base.startswith("ldr"),
            signed=signed, halfword=halfword, rd=rd, rn=mem["rn"],
            imm=mem["imm"], uses_imm=True, u_bit=mem["u_bit"],
        )

    def _build_block(self, base, cond, ops, line):
        if base == "push":
            reglist = _parse_reglist(ops[0], line)
            return enc.ArmInsn(
                kind="block", mnemonic="stm", cond=cond, load=False,
                rn=enc.SP, reglist=reglist, p_bit=True, u_bit=False, w_bit=True,
            )
        if base == "pop":
            reglist = _parse_reglist(ops[0], line)
            return enc.ArmInsn(
                kind="block", mnemonic="ldm", cond=cond, load=True,
                rn=enc.SP, reglist=reglist, p_bit=False, u_bit=True, w_bit=True,
            )
        mode = base[3:] or "ia"
        p_bit = mode in ("ib", "db")
        u_bit = mode in ("ia", "ib")
        rn_tok = ops[0]
        w_bit = rn_tok.endswith("!")
        if w_bit:
            rn_tok = rn_tok[:-1]
        reglist = _parse_reglist(ops[1], line)
        return enc.ArmInsn(
            kind="block", mnemonic=base[:3], cond=cond, load=base.startswith("ldm"),
            rn=parse_register(rn_tok, line), reglist=reglist,
            p_bit=p_bit, u_bit=u_bit, w_bit=w_bit,
        )
