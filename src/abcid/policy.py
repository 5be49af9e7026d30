"""Access policies: who may do what, on which resources, under which
conditions, inside which domain.

A policy is one line of a small DSL::

    permit subjects with student, school_member, library_subscriber
        may read on resources of type audio
        when time between 08:00 and 18:00 and day in [mon,tue,wed,thu,fri]
        in domain library

Subject terms are conjunctive and positive (no negation), which keeps
evaluation monotone in the presented attributes. Time windows are
half-open [start, end) in minutes of the UTC day; days come from the UTC
date. Evaluation never reads a clock: the decision time is part of the
request.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone
from typing import Callable, Iterable, Mapping, TypeVar

from .model import Attribute, CodedError, Record, is_token

DAYS = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")

PERMITTED = "Permitted"
NO_POLICY_FOR_DOMAIN = "NoPolicyForDomain"
OUTSIDE_TIME_WINDOW = "OutsideTimeWindow"
DAY_NOT_ALLOWED = "DayNotAllowed"
ACTION_MISMATCH = "ActionMismatch"
RESOURCE_MISMATCH = "ResourceMismatch"
PRESENTATION_REJECTED = "PresentationRejected"  # a Permit undone by a failed presentation

_T = TypeVar("_T")


def attribute_missing(name: str) -> str:
    return f"AttributeMissing({name})"


class AttrTerm(Record):
    """Required subject attribute: bare name, or name pinned to a value."""

    name: str
    value: str | None = None

    def __post_init__(self) -> None:
        if not is_token(self.name):
            raise ValueError(f"invalid attribute term name: {self.name!r}")


class TimeWindow(Record):
    """Half-open [start, end) minutes of the UTC day."""

    start: int  # minutes of day, inclusive
    end: int  # exclusive

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end <= 1440:
            raise ValueError(f"bad time window {self.start}..{self.end}")


class Policy(Record):
    """A Permit rule: subject terms, action, domain and optional resource, window and days."""

    subject_attrs: frozenset[AttrTerm]
    action: str
    domain_id: str
    resource_type: str | None = None
    resource_name: str | None = None
    window: TimeWindow | None = None
    days: frozenset[str] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "subject_attrs", frozenset(self.subject_attrs))
        if not self.subject_attrs:
            raise ValueError("policy needs at least one subject attribute term")
        if not is_token(self.action):
            raise ValueError(f"invalid action: {self.action!r}")
        if not is_token(self.domain_id):
            raise ValueError(f"invalid domain: {self.domain_id!r}")
        if self.days is not None:
            object.__setattr__(self, "days", frozenset(self.days))
            if not self.days or not self.days <= set(DAYS):
                raise ValueError(f"bad day set {sorted(self.days)}")


class AccessRequest(Record):
    """What a subject asks to do, on which resource, in which domain and when."""

    action: str
    resource_type: str
    resource_name: str
    domain_id: str
    at: datetime

    def __post_init__(self) -> None:
        for tok in (self.action, self.resource_type, self.domain_id):
            if not is_token(tok):
                raise ValueError(f"invalid request token: {tok!r}")
        at = self.at if self.at.tzinfo is not None else self.at.replace(tzinfo=timezone.utc)  # naive: UTC
        try:
            object.__setattr__(self, "at", at.astimezone(timezone.utc))
        except OverflowError:
            raise ValueError("request time out of range") from None


class Decision(Record):
    """Permit or Deny, the policy that matched and the reason codes."""

    outcome: str  # "Permit" | "Deny"
    matched_policy: str | None
    reasons: tuple[str, ...]

    def __post_init__(self) -> None:
        permitted = bool(self.reasons) and self.reasons[-1] == PERMITTED
        if (self.outcome == "Permit") != permitted:
            raise ValueError("Permit decisions end with Permitted, Deny ones never do")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class ParseError(CodedError):
    def __init__(self, message: str, line: int, col: int, expected: Iterable[str] = ()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        detail = f"{message} at line {line}, column {col}"
        if self.expected:
            detail += f" (expected {', '.join(self.expected)})"
        super().__init__(detail)


class _Tok(Record):
    kind: str  # IDENT | STRING | TIME | PUNCT | EOF
    text: str
    line: int
    col: int


# One token per match, after optional blanks. STRING stops before a raw
# newline or an unknown escape, so a missing END tells the lexer which error
# to raise; no alternative matching means end of input or a bad character.
_TOKEN_RE = re.compile(
    r"""[ \t\r]*(?:
        (?P<NEWLINE>\n)
      | (?P<COMMENT>\#[^\n]*)
      | (?P<TIME>[0-9]{2}:[0-9]{2})
      | (?P<IDENT>[a-z][a-z0-9_]*)
      | (?P<STRING>"(?:[^"\\\n]|\\["\\n])*(?P<END>")?)
      | (?P<PUNCT>[,=\[\]])
    )?""",
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)")


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, line_start, pos = 1, 0, 0
    while True:
        m = _TOKEN_RE.match(text, pos)
        kind, pos = m.lastgroup, m.end()
        start = m.start(kind) if kind else pos
        col = start - line_start + 1
        if kind is None:
            if pos < len(text):
                raise ParseError(f"unexpected character {text[pos]!r}", line, col)
            toks.append(_Tok("EOF", "", line, col))
            return toks
        if kind == "NEWLINE":
            line, line_start = line + 1, pos
        elif kind == "COMMENT":
            line_start += pos - start  # the column does not advance over a comment
        elif kind == "STRING":
            if m["END"] is None:
                bad_escape = text.startswith("\\", pos)
                raise ParseError(
                    "unknown escape in string" if bad_escape else "unterminated string", line, col
                )
            body = _ESCAPE_RE.sub(lambda e: "\n" if e[1] == "n" else e[1], m[kind][1:-1])
            toks.append(_Tok(kind, body, line, col))
        else:
            toks.append(_Tok(kind, m[kind], line, col))


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def fail(self, expected: Iterable[str]) -> ParseError:
        t = self.peek()
        got = {"EOF": "end of input", "STRING": _quote(t.text)}.get(t.kind, t.text)
        return ParseError(f"unexpected {got!r}", t.line, t.col, expected)

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and text in (None, t.text)

    def take(self, kind: str, text: str | None = None, what: str | None = None) -> str:
        """The next token's text; `what` names it in the error, else `text` does."""
        if not self.at(kind, text):
            raise self.fail([what or f"'{text}'"])
        self.pos += 1
        return self.toks[self.pos - 1].text

    def separated(self, item: Callable[[], _T], kind: str = "PUNCT", sep: str = ",") -> list[_T]:
        items = [item()]
        while self.at(kind, sep):
            self.take(kind, sep)
            items.append(item())
        return items

    def time(self) -> int:
        t = self.peek()
        self.take("TIME", what="HH:MM")
        hh, mm = int(t.text[:2]), int(t.text[3:])
        if mm > 59 or hh > 24 or (hh == 24 and mm != 0):
            raise ParseError(f"invalid time of day {t.text!r}", t.line, t.col)
        return hh * 60 + mm

    def attr_term(self) -> AttrTerm:
        name = self.take("IDENT", what="attribute name")
        if self.at("PUNCT", "="):
            self.take("PUNCT", "=")
            return AttrTerm(name, self.take("STRING", what="quoted string"))
        return AttrTerm(name)

    def condition(self, slots: dict[str, object]) -> None:
        """Fill slots["time"] or slots["day"]; each at most once."""
        t = self.peek()
        if not (self.at("IDENT", "time") or self.at("IDENT", "day")):
            raise self.fail(["'time'", "'day'"])
        if t.text in slots:
            raise ParseError(f"duplicate {t.text} condition", t.line, t.col)
        self.take("IDENT")
        if t.text == "day":
            self.take("IDENT", "in")
            self.take("PUNCT", "[")
            slots["day"] = frozenset(self.separated(self.day))
            self.take("PUNCT", "]")
            return
        self.take("IDENT", "between")
        start_tok = self.peek()
        start = self.time()
        self.take("IDENT", "and")
        end = self.time()
        if start >= end:
            raise ParseError("time window start must precede end", start_tok.line, start_tok.col)
        slots["time"] = TimeWindow(start, end)

    def day(self) -> str:
        if not self.at("IDENT") or self.peek().text not in DAYS:
            raise self.fail(["day name (mon..sun)"])
        return self.take("IDENT")

    def policy(self) -> Policy:
        self.take("IDENT", "permit")
        self.take("IDENT", "subjects")
        self.take("IDENT", "with")
        terms = self.separated(self.attr_term)
        self.take("IDENT", "may")
        action = self.take("IDENT", what="action")
        self.take("IDENT", "on")
        self.take("IDENT", "resources")
        rtype = rname = None
        if self.at("IDENT", "of"):
            self.take("IDENT", "of")
            self.take("IDENT", "type")
            rtype = self.take("IDENT", what="resource type")
        if self.at("IDENT", "named"):
            self.take("IDENT", "named")
            rname = self.take("STRING", what="quoted string")
        slots: dict[str, object] = {}
        if self.at("IDENT", "when"):
            self.take("IDENT", "when")
            self.separated(lambda: self.condition(slots), "IDENT", "and")
        self.take("IDENT", "in")
        self.take("IDENT", "domain")
        domain = self.take("IDENT", what="domain name")
        if not self.at("EOF"):
            raise self.fail(["end of policy"])
        return Policy(
            subject_attrs=frozenset(terms),
            action=action,
            domain_id=domain,
            resource_type=rtype,
            resource_name=rname,
            window=slots.get("time"),
            days=slots.get("day"),
        )


def parse_policy(text: str) -> Policy:
    """Parse one policy; raises ParseError with 1-based line/column."""
    return _Parser(_lex(text)).policy()


def _quote(s: str) -> str:
    escaped = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _fmt_minutes(m: int) -> str:
    return f"{m // 60:02d}:{m % 60:02d}"


def _sorted_terms(terms: Iterable[AttrTerm]) -> list[AttrTerm]:
    """Canonical term order: by name, the bare name before pinned values."""
    return sorted(terms, key=lambda t: (t.name, t.value is not None, t.value or ""))


def _fmt_terms(terms: Iterable[AttrTerm]) -> str:
    return ", ".join(
        t.name if t.value is None else f"{t.name}={_quote(t.value)}" for t in _sorted_terms(terms)
    )


def _conditions(p: Policy, window: str, days: str) -> list[str]:
    """The context, time first, each part filled into its format string."""
    conds = []
    if p.window is not None:
        conds.append(window.format(_fmt_minutes(p.window.start), _fmt_minutes(p.window.end)))
    if p.days is not None:
        conds.append(days.format(",".join(d for d in DAYS if d in p.days)))
    return conds


def serialize_policy(p: Policy) -> str:
    """Canonical one-line text form; parse_policy inverts it exactly."""
    parts = ["permit subjects with", _fmt_terms(p.subject_attrs), f"may {p.action} on resources"]
    if p.resource_type is not None:
        parts.append(f"of type {p.resource_type}")
    if p.resource_name is not None:
        parts.append(f"named {_quote(p.resource_name)}")
    conds = _conditions(p, "time between {} and {}", "day in [{}]")
    if conds:
        parts.append("when " + " and ".join(conds))
    parts.append(f"in domain {p.domain_id}")
    return " ".join(parts)


def describe_policy(p: Policy) -> str:
    """The five parts (subjects, objects, action, context, domain), one per
    line, as `abcid policy lint` prints them."""
    objects = []
    if p.resource_type is not None:
        objects.append(f"those of type {p.resource_type}")
    if p.resource_name is not None:
        objects.append(f"named {_quote(p.resource_name)}")
    conds = _conditions(p, "time {}-{}", "days {}")
    return "\n".join([
        f"subjects: {_fmt_terms(p.subject_attrs)}",
        f"objects:  {' '.join(objects) or 'all resources'}",
        f"action:   {p.action}",
        f"context:  {'; '.join(conds) or 'unconditional'}",
        f"domain:   {p.domain_id}",
    ])


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _policy_failures(p: Policy, attrs: frozenset[Attribute], req: AccessRequest) -> list[str]:
    """Failed checks in a fixed order; empty means the policy matches."""
    reasons: list[str] = []
    if p.action != req.action:
        reasons.append(ACTION_MISMATCH)
    if (p.resource_type is not None and p.resource_type != req.resource_type) or (
        p.resource_name is not None and p.resource_name != req.resource_name
    ):
        reasons.append(RESOURCE_MISMATCH)
    names = {a.name for a in attrs}
    pairs = {(a.name, a.value) for a in attrs}
    for term in _sorted_terms(p.subject_attrs):
        ok = term.name in names if term.value is None else (term.name, term.value) in pairs
        if not ok:
            reasons.append(attribute_missing(term.name))
    w = p.window
    if w is not None and not w.start <= req.at.hour * 60 + req.at.minute < w.end:
        reasons.append(OUTSIDE_TIME_WINDOW)
    if p.days is not None and DAYS[req.at.weekday()] not in p.days:
        reasons.append(DAY_NOT_ALLOWED)
    return reasons


def evaluate(
    policies: Mapping[str, Policy], verified_attrs: Iterable[Attribute], req: AccessRequest
) -> Decision:
    """Deny-by-default, first-match-wins evaluation over the policies, keyed
    by id, whose domain is the request's; the others are skipped.

    On Deny the reasons describe the nearest miss: among same-domain
    policies, the one failing the fewest checks (ties go to mapping order).
    """
    attrs = frozenset(verified_attrs)

    nearest: list[str] | None = None
    for pid, p in policies.items():
        if p.domain_id != req.domain_id:
            continue
        failures = _policy_failures(p, attrs, req)
        if not failures:
            return Decision("Permit", pid, (PERMITTED,))
        if nearest is None or len(failures) < len(nearest):
            nearest = failures
    if nearest is None:
        return Decision("Deny", None, (NO_POLICY_FOR_DOMAIN,))
    return Decision("Deny", None, tuple(nearest))
