"""Lint driver: read each file once, run the per-file rules, link the
project model, run the whole-program rules, apply suppressions.

Suppression syntax — an inline comment with a mandatory justification
after the code list::

    self._rng = random.Random()  # lint: disable=DET001 — ablation arm

Multiple codes separate with commas (``disable=DET001,DET003``). The
comment may sit on the flagged line itself or on any other line of
the same logical statement (for ``def``/``class``/``if`` statements:
any line of the *header*, so a finding attributed to a multi-line
signature suppresses where the code reads naturally). A whole file
opts out of one rule with::

    # lint: disable-file=DET003 — explanation

A suppression whose justification is missing is itself reported as a
``SUP001`` finding — the policy that every suppression carries a
"why" is checked by the tool, not by review.
"""

from __future__ import annotations

import ast
import os
import re
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.model import ProjectModel, extract_model
from repro.lint.rules import ALL_RULES, Finding, ModuleContext
from repro.lint.whole import WHOLE_PROGRAM_RULES

#: A rule code token: letters then a trailing digit (``DET001``,
#: ``SUP001``). The trailing-digit requirement keeps prose like
#: ``disable=DETxxx`` in docstrings from parsing as a suppression.
_CODE = r"[A-Z][A-Z0-9]*[0-9]"

_SUPPRESS_RE = re.compile(
    rf"#\s*lint:\s*disable=({_CODE}(?:\s*,\s*{_CODE})*)(.*)$"
)
_FILE_SUPPRESS_RE = re.compile(
    rf"#\s*lint:\s*disable-file=({_CODE}(?:\s*,\s*{_CODE})*)(.*)$"
)

#: Directory names the file walk never descends into: caches, VCS
#: internals, virtualenvs and build output are not project code.
SKIP_DIRECTORIES = frozenset(
    {
        "__pycache__", ".git", ".hg", ".svn", ".venv", "venv",
        ".tox", ".nox", ".eggs", "build", "dist", "node_modules",
        ".mypy_cache", ".pytest_cache",
    }
)


def _split_codes(group: str) -> FrozenSet[str]:
    return frozenset(
        code.strip() for code in group.split(",") if code.strip()
    )


def _justified(rest: str) -> bool:
    """True when text follows the code list beyond separators."""
    return bool(rest.strip().lstrip("—–:-,").strip())


def suppressed_codes(line: str) -> FrozenSet[str]:
    """Rule codes suppressed by an inline comment on ``line``."""
    match = _SUPPRESS_RE.search(line)
    if match is None:
        return frozenset()
    return _split_codes(match.group(1))


class SuppressionIndex:
    """Where each rule code is suppressed in one file, built from the
    source plus the AST (statement extents)."""

    def __init__(
        self,
        line_codes: Dict[int, FrozenSet[str]],
        file_codes: FrozenSet[str],
        warnings: List[Finding],
    ):
        #: effective map: finding line -> codes suppressed there
        self.line_codes = line_codes
        self.file_codes = file_codes
        #: SUP001 findings for unjustified suppressions
        self.warnings = warnings

    def covers(self, line: int, code: str) -> bool:
        if code in self.file_codes:
            return True
        return code in self.line_codes.get(line, frozenset())

    def apply(self, findings: Iterable[Finding]) -> List[Finding]:
        return [
            f for f in findings if not self.covers(f.line, f.code)
        ]


def _statement_ranges(tree: ast.Module) -> List[Tuple[int, int]]:
    """``(start, end)`` line ranges a suppression comment spreads
    over. Simple statements span their full extent; compound
    statements (``def``, ``class``, ``if``, loops, ...) span only
    their header, so a comment inside a body never suppresses the
    enclosing statement. Decorators belong to the header."""
    ranges: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        decorators = getattr(node, "decorator_list", [])
        if decorators:
            start = min(start, min(d.lineno for d in decorators))
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = max(start, body[0].lineno - 1)
        else:
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
        ranges.append((start, end))
    return ranges


def build_suppressions(
    source: str, path: str, tree: Optional[ast.Module]
) -> SuppressionIndex:
    """Scan ``source`` for suppression comments and expand them over
    statement extents. ``tree=None`` (unparseable file) degrades to
    exact-line matching."""
    raw: Dict[int, FrozenSet[str]] = {}
    file_codes: Set[str] = set()
    warnings: List[Finding] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        file_match = _FILE_SUPPRESS_RE.search(text)
        if file_match is not None:
            file_codes.update(_split_codes(file_match.group(1)))
            if not _justified(file_match.group(2)):
                warnings.append(
                    Finding(
                        code="SUP001",
                        message=(
                            "file-level suppression without a "
                            "justification — add '— why' after the "
                            "code list"
                        ),
                        path=path,
                        line=lineno,
                        column=file_match.start(),
                    )
                )
            continue
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = _split_codes(match.group(1))
        raw[lineno] = raw.get(lineno, frozenset()) | codes
        if not _justified(match.group(2)):
            warnings.append(
                Finding(
                    code="SUP001",
                    message=(
                        "suppression without a justification — add "
                        "'— why' after the code list"
                    ),
                    path=path,
                    line=lineno,
                    column=match.start(),
                )
            )
    effective: Dict[int, FrozenSet[str]] = dict(raw)
    if tree is not None and raw:
        for start, end in _statement_ranges(tree):
            spread = frozenset().union(
                *(
                    raw.get(line, frozenset())
                    for line in range(start, end + 1)
                )
            )
            if not spread:
                continue
            for line in range(start, end + 1):
                effective[line] = effective.get(line, frozenset()) | spread
    return SuppressionIndex(effective, frozenset(file_codes), warnings)


def _location(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.column, finding.code)


def _parse_failure(path: str, error: SyntaxError) -> Finding:
    return Finding(
        code="PARSE",
        message=f"could not parse: {error.msg}",
        path=path,
        line=error.lineno or 1,
        column=error.offset or 0,
    )


def analyze_source(
    source: str, path: str = "<string>"
) -> Tuple[List[Finding], Optional[Dict[str, Any]], SuppressionIndex]:
    """One file, fully analyzed: unsuppressed local-rule findings
    (plus SUP001 suppression-hygiene findings), the whole-program
    file model, and the suppression index."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        index = build_suppressions(source, path, None)
        return [_parse_failure(path, error)], None, index
    index = build_suppressions(source, path, tree)
    ctx = ModuleContext(tree, path, source)
    findings: List[Finding] = []
    for rule in ALL_RULES:
        findings.extend(rule.check(ctx))
    kept = index.apply(findings) + list(index.warnings)
    kept.sort(key=_location)
    return kept, extract_model(tree, path, source), index


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's source text with the per-file rules.

    Returns the unsuppressed findings sorted by location. Syntax
    errors surface as a single pseudo-finding (code ``PARSE``) so a
    broken file fails the gate instead of slipping through.
    """
    findings, _, _ = analyze_source(source, path)
    return findings


def _skip_directory(name: str) -> bool:
    return (
        name in SKIP_DIRECTORIES
        or name.startswith(".")
        or name.endswith(".egg-info")
    )


def python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files,
    skipping caches, VCS directories, virtualenvs and build output so
    ``python -m repro.lint .`` lints the project, not its vendored or
    installed dependencies. A path that does not exist raises
    :class:`FileNotFoundError` — a misspelled path must not pass the
    gate by linting nothing."""
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if not _skip_directory(d)
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    found.append(os.path.join(dirpath, filename))
    return sorted(set(found))


def lint_project(paths: Sequence[str]) -> List[Finding]:
    """The gate: read every ``.py`` file under ``paths`` once, run the
    per-file rules, link the file models into one
    :class:`ProjectModel`, run the whole-program rules DET007–DET010
    over it, and return every unsuppressed finding sorted by location.
    A file that is not UTF-8 is one ``PARSE`` finding."""
    findings: List[Finding] = []
    models: Dict[str, Dict[str, Any]] = {}
    suppressions: Dict[str, SuppressionIndex] = {}
    for path in python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except UnicodeDecodeError:
            findings.append(
                Finding("PARSE", "could not decode as UTF-8", path, 1, 0)
            )
            continue
        file_findings, model, suppressions[path] = analyze_source(
            source, path
        )
        findings.extend(file_findings)
        if model is not None:
            models[path] = model

    project = ProjectModel(models)
    whole: Set[Finding] = set()
    for rule in WHOLE_PROGRAM_RULES:
        for finding in rule.check_project(project, suppressions):
            if not suppressions[finding.path].covers(
                finding.line, finding.code
            ):
                whole.add(finding)
    findings.extend(whole)
    findings.sort(key=_location)
    return findings
