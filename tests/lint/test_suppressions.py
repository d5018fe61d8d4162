"""Suppression placement and hygiene.

A suppression comment must work where the code reads naturally: on
the flagged line, at the end of a multi-line statement, or on any
header line of a multi-line ``def`` — but a comment buried in a body
must never silence the enclosing statement.
"""

import ast

from repro.lint.engine import (
    build_suppressions,
    lint_source,
    suppressed_codes,
)


def build(source, path="repro/x.py"):
    return build_suppressions(source, path, ast.parse(source))


def codes(findings):
    return sorted(f.code for f in findings)


class TestPlacement:
    def test_end_of_multiline_statement(self):
        # The finding lands on the statement's first line; the comment
        # sits where the statement ends.
        source = (
            "import random\n"
            "value = random.choice(\n"
            "    [1, 2, 3]\n"
            ")  # lint: disable=DET001 — ablation arm\n"
        )
        assert codes(lint_source(source)) == []

    def test_multiline_def_header(self):
        # DET004 attributes to the def line; the suppression reads
        # naturally next to the offending default on line 3.
        source = (
            "def merge(\n"
            "    items,\n"
            "    seen=[],  # lint: disable=DET004 — intentional memo\n"
            "):\n"
            "    return seen + items\n"
        )
        assert codes(lint_source(source)) == []

    def test_body_comment_does_not_cover_the_def(self):
        source = (
            "def merge(items, seen=[]):\n"
            "    x = 1  # lint: disable=DET004 — misplaced\n"
            "    return seen + [x]\n"
        )
        assert "DET004" in codes(lint_source(source))

    def test_decorator_lines_belong_to_the_header(self):
        source = (
            "@decorate  # lint: disable=DET004 — registry default\n"
            "def merge(items, seen=[]):\n"
            "    return seen + items\n"
        )
        assert "DET004" not in codes(lint_source(source))


class TestFileLevel:
    def test_disable_file_covers_every_line(self):
        source = (
            "# lint: disable-file=DET001 — fixture exercises global rng\n"
            "import random\n"
            "a = random.random()\n"
            "b = random.choice([1])\n"
        )
        assert codes(lint_source(source)) == []

    def test_disable_file_is_per_code(self):
        source = (
            "# lint: disable-file=DET004 — wrong code\n"
            "import random\n"
            "a = random.random()\n"
        )
        assert "DET001" in codes(lint_source(source))


class TestHygiene:
    def test_unjustified_suppression_warns(self):
        source = (
            "import random\n"
            "a = random.random()  # lint: disable=DET001\n"
        )
        assert codes(lint_source(source)) == ["SUP001"]

    def test_unjustified_file_suppression_warns(self):
        source = "# lint: disable-file=DET001\nx = 1\n"
        assert codes(lint_source(source)) == ["SUP001"]

    def test_justified_suppression_is_silent(self):
        source = (
            "import random\n"
            "a = random.random()  # lint: disable=DET001 — seeded later\n"
        )
        assert codes(lint_source(source)) == []

    def test_plain_dash_justification_counts(self):
        source = (
            "import random\n"
            "a = random.random()  # lint: disable=DET001 - control arm\n"
        )
        assert codes(lint_source(source)) == []

    def test_docstring_prose_is_not_a_suppression(self):
        # ``disable=DETxxx`` in documentation has no trailing digit
        # and must not parse as a code.
        assert suppressed_codes(
            "    suppress with ``# lint: disable=DETxxx`` comments"
        ) == frozenset()


class TestIndex:
    def test_multiple_codes_one_comment(self):
        assert suppressed_codes(
            "x = 1  # lint: disable=DET001,DET003 — both intentional"
        ) == frozenset({"DET001", "DET003"})

    def test_line_and_file_codes_resolve(self):
        source = (
            "# lint: disable-file=DET005 — fixture\n"
            "import random\n"
            "a = random.random()  # lint: disable=DET001 — fixture\n"
        )
        index = build(source)
        assert index.covers(3, "DET001")
        assert index.covers(2, "DET005")
        assert not index.covers(2, "DET001")
