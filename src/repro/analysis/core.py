"""Shared machinery for the invariant lint pass.

The repo carries a set of load-bearing invariants that exist nowhere in
the type system: SimClock as the single time authority, ``resolve_dtype``
as the single dtype authority, the ``begin_round``/``end_round``/
``abort_round`` lifecycle contract, and the golden-pinned scheduler
surface.  Each is encoded as a
:class:`Checker` producing :class:`Finding` records with a ``file:line``
anchor, a rule id, and a fix hint, so drift is caught on every push —
before a golden (or a reviewer) has to.

Waivers
-------
A violation that is *by design* is silenced where it happens, with a
required justification::

    t = time.time()  # repro: allow[determinism] -- host timing only

``# repro: allow[rule] -- why`` waives ``rule`` on its own line (or, as a
standalone comment, on the next line); ``# repro: allow-file[rule] -- why``
at any line waives the rule for the whole file.  A waiver without a
justification is itself a finding (rule ``bad-waiver``), so silenced code
always says why.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Type

__all__ = [
    "Finding",
    "SourceFile",
    "Checker",
    "CHECKERS",
    "register",
    "all_rules",
    "analyze_source",
    "analyze_paths",
    "find_repo_root",
]

_WAIVER = re.compile(
    r"#\s*repro:\s*allow(?P<scope>-file)?\[(?P<rules>[a-z0-9_,\- ]+)\]"
    r"\s*(?:--\s*(?P<why>\S.*))?"
)


@dataclass(frozen=True)
class Finding:
    """One invariant violation, anchored and actionable."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def format(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass
class _Waiver:
    rules: Set[str]
    line: int
    justified: bool
    file_scope: bool
    standalone: bool  # comment-only line: applies to the next line too


@dataclass
class SourceFile:
    """A parsed module plus its waiver table."""

    path: str
    text: str
    tree: Optional[ast.AST] = None
    parse_error: Optional[Finding] = None
    waivers: List[_Waiver] = field(default_factory=list)

    @classmethod
    def load(cls, path: str, text: Optional[str] = None) -> "SourceFile":
        if text is None:
            text = Path(path).read_text()
        src = cls(path=str(path), text=text)
        try:
            src.tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            src.parse_error = Finding(
                rule="parse-error",
                path=str(path),
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"could not parse: {exc.msg}",
                hint="the lint pass needs valid python",
            )
            return src
        src.waivers = _collect_waivers(text)
        return src

    # -- waiver resolution ----------------------------------------------------
    def waived(self, rule: str, line: int) -> bool:
        for w in self.waivers:
            if rule not in w.rules:
                continue
            if w.file_scope:
                return True
            if w.line == line or (w.standalone and w.line + 1 == line):
                return True
        return False

    def waiver_findings(self) -> List[Finding]:
        """Waivers missing their justification are findings themselves."""
        return [
            Finding(
                rule="bad-waiver",
                path=self.path,
                line=w.line,
                col=0,
                message=(
                    f"waiver for [{', '.join(sorted(w.rules))}] has no "
                    "justification"
                ),
                hint="append ' -- <why this violation is by design>'",
            )
            for w in self.waivers
            if not w.justified
        ]


def _collect_waivers(text: str) -> List[_Waiver]:
    waivers: List[_Waiver] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _WAIVER.search(tok.string)
            if m is None:
                continue
            rules = {r.strip() for r in m.group("rules").split(",") if r.strip()}
            line_text = text.splitlines()[tok.start[0] - 1]
            standalone = line_text.lstrip().startswith("#")
            waivers.append(
                _Waiver(
                    rules=rules,
                    line=tok.start[0],
                    justified=bool(m.group("why")),
                    file_scope=bool(m.group("scope")),
                    standalone=standalone,
                )
            )
    except tokenize.TokenizeError:  # pragma: no cover - parse_error covers it
        pass
    return waivers


class Checker:
    """Base class: one rule, checked per file.

    Subclasses set ``rule``/``description``/``hint`` and implement
    :meth:`check`, returning raw findings; the driver applies waivers.
    ``applies_to`` scopes the rule to a path family (hot paths, a single
    authority module, ...) so the rest of the tree is untouched.
    """

    rule: str = ""
    description: str = ""
    hint: str = ""

    def applies_to(self, path: str) -> bool:
        return True

    def check(self, source: SourceFile) -> List[Finding]:
        raise NotImplementedError

    # -- helpers shared by checkers -------------------------------------------
    def finding(
        self, source: SourceFile, node: ast.AST, message: str, hint: str = ""
    ) -> Finding:
        return Finding(
            rule=self.rule,
            path=source.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=hint or self.hint,
        )


#: rule id -> checker class, in registration (and report) order.
CHECKERS: Dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the default suite."""
    if not cls.rule:
        raise ValueError(f"{cls.__name__} must set a rule id")
    if cls.rule in CHECKERS:
        raise ValueError(f"duplicate checker rule {cls.rule!r}")
    CHECKERS[cls.rule] = cls
    return cls


def all_rules() -> List[str]:
    _load_builtin_checkers()
    return list(CHECKERS)


def _load_builtin_checkers() -> None:
    # checker modules self-register on import; imported lazily so that
    # `from repro.analysis.core import Checker` never cycles
    from repro.analysis import (  # noqa: F401
        config_coverage,
        determinism,
        dtype_discipline,
        golden_coverage,
        lifecycle,
        population_sweep,
        shard_dtype,
    )


def _normalized(path: str) -> str:
    return str(path).replace("\\", "/")


def find_repo_root(start: Path) -> Optional[Path]:
    """Walk up from ``start`` to the checkout root (pytest.ini / .git)."""
    node = start if start.is_dir() else start.parent
    for candidate in (node, *node.parents):
        if (candidate / "pytest.ini").exists() or (candidate / ".git").exists():
            return candidate
        if (candidate / "README.md").exists() and (candidate / "src").is_dir():
            return candidate
    return None


def _iter_py_files(paths: Sequence[str]) -> Iterable[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def _checker_suite(rules: Optional[Sequence[str]]) -> List[Checker]:
    _load_builtin_checkers()
    if rules is None:
        return [cls() for cls in CHECKERS.values()]
    unknown = [r for r in rules if r not in CHECKERS]
    if unknown:
        raise ValueError(
            f"unknown rule(s) {unknown}; known: {list(CHECKERS)}"
        )
    return [CHECKERS[r]() for r in rules]


def _run_on_source(
    source: SourceFile, checkers: Sequence[Checker]
) -> List[Finding]:
    if source.parse_error is not None:
        return [source.parse_error]
    findings = source.waiver_findings()
    for checker in checkers:
        if not checker.applies_to(_normalized(source.path)):
            continue
        findings.extend(
            f
            for f in checker.check(source)
            if not source.waived(f.rule, f.line)
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def analyze_source(
    text: str, path: str = "<string>", rules: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Run the suite over an in-memory module (fixture tests, doc recipes)."""
    return _run_on_source(
        SourceFile.load(path, text=text), _checker_suite(rules)
    )


def analyze_paths(
    paths: Sequence[str], rules: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Run the suite over files/directories; returns unwaived findings."""
    checkers = _checker_suite(rules)
    findings: List[Finding] = []
    for py in _iter_py_files(paths):
        findings.extend(_run_on_source(SourceFile.load(str(py)), checkers))
    return findings
