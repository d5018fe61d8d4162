"""Negative-path DSL tests: every loader error is file:line anchored.

Each case writes a deliberately broken scenario to disk and pins both
the error's location (``path``/``line`` attributes and the rendered
``path:line:`` prefix) and its wording — these messages are CI's only
pointer at the offending scenario text, so they are part of the
contract.
"""

import pytest

from repro.scenarios.spec import ScenarioError
from repro.scenarios.loader import load_scenario

# Lines 1-11 of every BGMP-flavored case; the first [[step]] header
# lands on line 12.
PREAMBLE = """\
[scenario]
name = "neg"

[topology]
builder = "figure3"

[[group]]
address = "224.0.128.1"
range = "224.0.0.0/16"
root = "A"

"""
STEP_LINE = PREAMBLE.count("\n") + 1

# MASC-only preamble: the [[step]] header lands on line 11.
MASC_PREAMBLE = """\
[scenario]
name = "neg"

[masc]
[[masc.node]]
name = "MP"
[[masc.node]]
name = "M1"
parent = "MP"

"""
MASC_STEP_LINE = MASC_PREAMBLE.count("\n") + 1


def expect_error(tmp_path, text, *, line, contains):
    path = tmp_path / "neg.toml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    error = excinfo.value
    assert error.path == str(path)
    assert error.line == line
    assert str(error).startswith(f"{path}:{line}: ")
    assert contains in str(error)
    return error


class TestUnknownVerbs:
    def test_unknown_step_verb(self, tmp_path):
        expect_error(
            tmp_path,
            PREAMBLE + '[[step]]\nat = 1.0\ndo = "jion"\n'
            'host = "F:m"\ngroup = "224.0.128.1"\n',
            line=STEP_LINE,
            contains="unknown step verb 'jion' (known: claim,",
        )

    def test_unknown_assert_verb(self, tmp_path):
        expect_error(
            tmp_path,
            PREAMBLE + '[[step]]\nat = 1.0\nassert = "roots"\n',
            line=STEP_LINE,
            contains="unknown assertion verb 'roots'",
        )


class TestUndeclaredReferences:
    def test_assertion_on_undeclared_group(self, tmp_path):
        expect_error(
            tmp_path,
            PREAMBLE + '[[step]]\nat = 1.0\n'
            'assert = "members-reachable"\ngroup = "224.9.9.9"\n'
            'source = "E:s"\n',
            line=STEP_LINE,
            contains="references unknown group '224.9.9.9' "
                     "(known: 224.0.128.1)",
        )

    def test_assertion_on_undeclared_masc_node(self, tmp_path):
        expect_error(
            tmp_path,
            MASC_PREAMBLE + '[[step]]\nat = 9.0\n'
            'assert = "claim-count"\nnode = "M9"\n',
            line=MASC_STEP_LINE,
            contains="references unknown MASC node 'M9' "
                     "(known: M1, MP)",
        )

    def test_mutation_on_undeclared_router(self, tmp_path):
        expect_error(
            tmp_path,
            PREAMBLE + '[[step]]\nat = 1.0\ndo = "crash-router"\n'
            'router = "Z9"\n',
            line=STEP_LINE,
            contains="references unknown router 'Z9' (known: A1,",
        )

    def test_assertion_on_undeclared_member_domain(self, tmp_path):
        expect_error(
            tmp_path,
            PREAMBLE + '[[step]]\nat = 1.0\n'
            'assert = "members-reachable"\ngroup = "224.0.128.1"\n'
            'source = "E:s"\nmembers = ["ZZ"]\n',
            line=STEP_LINE,
            contains="references unknown domain 'ZZ' (known: A, B,",
        )


class TestMalformedSchedule:
    def test_missing_at(self, tmp_path):
        expect_error(
            tmp_path,
            PREAMBLE + '[[step]]\ndo = "recover"\n',
            line=STEP_LINE,
            contains="missing its 'at' time (malformed schedule)",
        )

    def test_negative_at(self, tmp_path):
        expect_error(
            tmp_path,
            PREAMBLE + '[[step]]\nat = -2.0\ndo = "recover"\n',
            line=STEP_LINE,
            contains="'at' is before time zero (malformed schedule)",
        )

    def test_nan_at(self, tmp_path):
        expect_error(
            tmp_path,
            PREAMBLE + '[[step]]\nat = nan\ndo = "recover"\n',
            line=STEP_LINE,
            contains="'at' must be finite, got nan (malformed schedule)",
        )

    def test_non_numeric_at(self, tmp_path):
        expect_error(
            tmp_path,
            PREAMBLE + '[[step]]\nat = "soon"\ndo = "recover"\n',
            line=STEP_LINE,
            contains="'at' must be a number (malformed schedule)",
        )


class TestStepShape:
    def test_both_do_and_assert(self, tmp_path):
        expect_error(
            tmp_path,
            PREAMBLE + '[[step]]\nat = 1.0\ndo = "recover"\n'
            'assert = "root-domain"\n',
            line=STEP_LINE,
            contains="exactly one of 'do' or 'assert'",
        )

    def test_neither_do_nor_assert(self, tmp_path):
        expect_error(
            tmp_path,
            PREAMBLE + '[[step]]\nat = 1.0\n',
            line=STEP_LINE,
            contains="exactly one of 'do' or 'assert'",
        )

    def test_toml_syntax_error_carries_its_line(self, tmp_path):
        expect_error(
            tmp_path,
            PREAMBLE + '[[step]\nat = 1.0\n',
            line=STEP_LINE,
            contains="TOML syntax error",
        )

    def test_second_step_errors_on_its_own_line(self, tmp_path):
        # The i-th [[step]] table maps to the i-th header line: the
        # broken *second* step must not be blamed on the first.
        good = '[[step]]\nat = 1.0\ndo = "recover"\n\n'
        expect_error(
            tmp_path,
            PREAMBLE + good + '[[step]]\nat = 2.0\ndo = "jion"\n',
            line=STEP_LINE + good.count("\n"),
            contains="unknown step verb 'jion'",
        )


class TestWorldValidation:
    def test_unknown_topology_builder(self, tmp_path):
        expect_error(
            tmp_path,
            '[scenario]\nname = "neg"\n\n[topology]\n'
            'builder = "ring"\n',
            line=4,
            contains="unknown topology builder 'ring'",
        )

    def test_group_root_must_exist(self, tmp_path):
        expect_error(
            tmp_path,
            '[scenario]\nname = "neg"\n\n[topology]\n'
            'builder = "figure3"\n\n[[group]]\n'
            'address = "224.0.128.1"\nrange = "224.0.0.0/16"\n'
            'root = "Q"\n',
            line=7,
            contains="unknown domain 'Q'",
        )

    def test_masc_parent_declared_above(self, tmp_path):
        expect_error(
            tmp_path,
            '[scenario]\nname = "neg"\n\n[masc]\n[[masc.node]]\n'
            'name = "M1"\nparent = "MP"\n',
            line=5,
            contains="parent 'MP'",
        )
