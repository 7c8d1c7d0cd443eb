"""Unit tests for the shared assembly-source parser."""

import pytest

from repro.arch.asmlang import (
    AssembledProgram,
    eval_symbol_expr,
    parse_int,
    parse_source,
    strip_comment,
)
from repro.errors import AssemblyError


class TestStripComment:
    def test_at_and_semicolon(self):
        assert strip_comment("mov r0, r1 @ hello", "@;") == "mov r0, r1 "
        assert strip_comment("mov r0, r1 ; hi", "@;") == "mov r0, r1 "

    def test_double_slash(self):
        assert strip_comment("add r0, r1 // c-style", "@;") == "add r0, r1 "

    def test_first_marker_wins(self):
        assert strip_comment("mov r0, r1 ; a @ b // c", "@;") == "mov r0, r1 "
        assert strip_comment("mov r0, r1 // a ; b @ c", "@;") == "mov r0, r1 "
        assert strip_comment("mov r0, r1 @ a // b ; c", "@;") == "mov r0, r1 "
        assert strip_comment("mov r0, r1", "@;") == "mov r0, r1"

    def test_comment_char_inside_string_preserved(self):
        line = '.asciz "a;b@c"'
        assert strip_comment(line, "@;") == line

    def test_hash_for_mips(self):
        assert strip_comment("lw $t0, 4($sp) # load", "#;") == "lw $t0, 4($sp) "


class TestParseSource:
    def test_sections_and_labels(self):
        parsed = parse_source(
            ".text\nf:\n mov r0, r1\n.rodata\nmsg: .asciz \"x\"\n", "@;"
        )
        text_kinds = [i.kind for i in parsed.sections[".text"]]
        assert text_kinds == ["label", "insn"]
        ro_kinds = [i.kind for i in parsed.sections[".rodata"]]
        assert ro_kinds == ["label", "string"]

    def test_label_and_code_same_line(self):
        parsed = parse_source("f: mov r0, r1\n", "@;")
        kinds = [i.kind for i in parsed.sections[".text"]]
        assert kinds == ["label", "insn"]

    def test_globl_collects_exports(self):
        parsed = parse_source(".globl main\n.global other\n", "@;")
        assert parsed.exported == {"main", "other"}

    def test_word_args_split(self):
        parsed = parse_source(".data\nt: .word 1, 2, foo+4\n", "@;")
        item = parsed.sections[".data"][1]
        assert item.kind == "word"
        assert item.args == ["1", "2", "foo+4"]

    def test_string_escapes(self):
        parsed = parse_source('.rodata\ns: .asciz "a\\n\\t\\x41"\n', "@;")
        item = parsed.sections[".rodata"][1]
        assert item.text == "a\n\tA\x00"

    def test_unknown_directive_rejected(self):
        with pytest.raises(AssemblyError):
            parse_source(".bogus 4\n", "@;")

    def test_unknown_section_rejected(self):
        with pytest.raises(AssemblyError):
            parse_source(".section .evil\n", "@;")


class TestExpressions:
    def test_parse_int_forms(self):
        assert parse_int("42") == 42
        assert parse_int("0x2a") == 42
        assert parse_int("-8") == -8
        assert parse_int("'A'") == 65
        with pytest.raises(AssemblyError):
            parse_int("nope")

    def test_symbol_arithmetic(self):
        symbols = {"base": 0x1000}
        assert eval_symbol_expr("base", symbols) == 0x1000
        assert eval_symbol_expr("base+8", symbols) == 0x1008
        assert eval_symbol_expr("base - 4", symbols) == 0xFFC
        assert eval_symbol_expr("0x20", symbols) == 0x20

    def test_undefined_symbol_raises(self):
        with pytest.raises(AssemblyError):
            eval_symbol_expr("missing", {})


class TestAssembledProgram:
    def test_flat_image_zero_fills_gaps(self):
        program = AssembledProgram(
            sections={
                ".text": (0x1000, b"\xaa\xbb"),
                ".data": (0x1008, b"\xcc"),
            },
            symbols={},
            exported=set(),
        )
        base, image = program.flat_image()
        assert base == 0x1000
        assert image[0:2] == b"\xaa\xbb"
        assert image[2:8] == b"\x00" * 6
        assert image[8] == 0xCC

    def test_flat_image_empty(self):
        program = AssembledProgram(sections={}, symbols={}, exported=set())
        assert program.flat_image() == (0, b"")
