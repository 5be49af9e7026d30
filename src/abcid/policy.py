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
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Sequence

from .model import Attribute, is_token

DAYS = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")

PERMITTED = "Permitted"
NO_POLICY_FOR_DOMAIN = "NoPolicyForDomain"
OUTSIDE_TIME_WINDOW = "OutsideTimeWindow"
DAY_NOT_ALLOWED = "DayNotAllowed"
ACTION_MISMATCH = "ActionMismatch"
RESOURCE_MISMATCH = "ResourceMismatch"


def attribute_missing(name: str) -> str:
    return f"AttributeMissing({name})"


@dataclass(frozen=True)
class AttrTerm:
    """Required subject attribute: bare name, or name pinned to a value."""

    name: str
    value: str | None = None

    def __post_init__(self) -> None:
        if not is_token(self.name):
            raise ValueError(f"invalid attribute term name: {self.name!r}")


@dataclass(frozen=True)
class TimeWindow:
    start: int  # minutes of day, inclusive
    end: int  # exclusive

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end <= 1440:
            raise ValueError(f"bad time window {self.start}..{self.end}")


@dataclass(frozen=True)
class DaySet:
    days: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "days", frozenset(self.days))
        if not self.days or not self.days <= set(DAYS):
            raise ValueError(f"bad day set {sorted(self.days)}")


Condition = TimeWindow | DaySet


@dataclass(frozen=True)
class Policy:
    subject_attrs: frozenset[AttrTerm]
    action: str
    domain_id: str
    resource_type: str | None = None
    resource_name: str | None = None
    context: tuple[Condition, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "subject_attrs", frozenset(self.subject_attrs))
        object.__setattr__(self, "context", tuple(self.context))
        if not self.subject_attrs:
            raise ValueError("policy needs at least one subject attribute term")
        if not is_token(self.action):
            raise ValueError(f"invalid action: {self.action!r}")
        if not is_token(self.domain_id):
            raise ValueError(f"invalid domain: {self.domain_id!r}")
        if sum(isinstance(c, TimeWindow) for c in self.context) > 1:
            raise ValueError("at most one time window condition")
        if sum(isinstance(c, DaySet) for c in self.context) > 1:
            raise ValueError("at most one day set condition")


@dataclass(frozen=True)
class AccessRequest:
    action: str
    resource_type: str
    resource_name: str
    domain_id: str
    at: datetime

    def __post_init__(self) -> None:
        for tok in (self.action, self.resource_type, self.domain_id):
            if not is_token(tok):
                raise ValueError(f"invalid request token: {tok!r}")


@dataclass(frozen=True)
class Decision:
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

class ParseError(Exception):
    code = "ParseError"

    def __init__(self, message: str, line: int, col: int, expected: Iterable[str] = ()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        detail = f"{message} at line {line}, column {col}"
        if self.expected:
            detail += f" (expected {', '.join(self.expected)})"
        super().__init__(detail)


@dataclass(frozen=True)
class _Tok:
    kind: str  # IDENT | STRING | TIME | PUNCT | EOF
    text: str
    line: int
    col: int


_TIME_RE = re.compile(r"\d{2}:\d{2}")
_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*")


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if m := _TIME_RE.match(text, i):
            toks.append(_Tok("TIME", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        if m := _IDENT_RE.match(text, i):
            toks.append(_Tok("IDENT", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        if ch == '"':
            j = i + 1
            out = []
            while j < len(text):
                if text[j] == "\\":
                    if j + 1 < len(text) and text[j + 1] in '"\\n':
                        out.append("\n" if text[j + 1] == "n" else text[j + 1])
                        j += 2
                        continue
                    raise ParseError("unknown escape in string", line, col)
                if text[j] == '"':
                    break
                if text[j] == "\n":
                    raise ParseError("unterminated string", line, col)
                out.append(text[j])
                j += 1
            else:
                raise ParseError("unterminated string", line, col)
            toks.append(_Tok("STRING", "".join(out), line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch in ",=[]":
            toks.append(_Tok("PUNCT", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, expected: Iterable[str]) -> ParseError:
        t = self.peek()
        got = t.text or "end of input"
        return ParseError(f"unexpected {got!r}", t.line, t.col, expected)

    def keyword(self, word: str) -> None:
        t = self.peek()
        if t.kind != "IDENT" or t.text != word:
            raise self.fail([f"'{word}'"])
        self.next()

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "IDENT" and t.text == word

    def ident(self, what: str) -> str:
        t = self.peek()
        if t.kind != "IDENT":
            raise self.fail([what])
        return self.next().text

    def string(self) -> str:
        t = self.peek()
        if t.kind != "STRING":
            raise self.fail(["quoted string"])
        return self.next().text

    def punct(self, ch: str) -> None:
        t = self.peek()
        if t.kind != "PUNCT" or t.text != ch:
            raise self.fail([f"'{ch}'"])
        self.next()

    def time(self) -> int:
        t = self.peek()
        if t.kind != "TIME":
            raise self.fail(["HH:MM"])
        hh, mm = int(t.text[:2]), int(t.text[3:])
        if mm > 59 or hh > 24 or (hh == 24 and mm != 0):
            raise ParseError(f"invalid time of day {t.text!r}", t.line, t.col)
        self.next()
        return hh * 60 + mm

    def attr_term(self) -> AttrTerm:
        name = self.ident("attribute name")
        if self.peek().kind == "PUNCT" and self.peek().text == "=":
            self.next()
            return AttrTerm(name, self.string())
        return AttrTerm(name)

    def condition(self, seen: set[type]) -> Condition:
        t = self.peek()
        if self.at_keyword("time"):
            if TimeWindow in seen:
                raise ParseError("duplicate time condition", t.line, t.col)
            self.next()
            self.keyword("between")
            start_tok = self.peek()
            start = self.time()
            self.keyword("and")
            end = self.time()
            if start >= end:
                raise ParseError(
                    "time window start must precede end", start_tok.line, start_tok.col
                )
            seen.add(TimeWindow)
            return TimeWindow(start, end)
        if self.at_keyword("day"):
            if DaySet in seen:
                raise ParseError("duplicate day condition", t.line, t.col)
            self.next()
            self.keyword("in")
            self.punct("[")
            days = [self.day()]
            while self.peek().kind == "PUNCT" and self.peek().text == ",":
                self.next()
                days.append(self.day())
            self.punct("]")
            seen.add(DaySet)
            return DaySet(frozenset(days))
        raise self.fail(["'time'", "'day'"])

    def day(self) -> str:
        t = self.peek()
        if t.kind != "IDENT" or t.text not in DAYS:
            raise self.fail(["day name (mon..sun)"])
        return self.next().text

    def policy(self) -> Policy:
        self.keyword("permit")
        self.keyword("subjects")
        self.keyword("with")
        terms = [self.attr_term()]
        while self.peek().kind == "PUNCT" and self.peek().text == ",":
            self.next()
            terms.append(self.attr_term())
        self.keyword("may")
        action = self.ident("action")
        self.keyword("on")
        self.keyword("resources")
        rtype = None
        rname = None
        if self.at_keyword("of"):
            self.next()
            self.keyword("type")
            rtype = self.ident("resource type")
        if self.at_keyword("named"):
            self.next()
            rname = self.string()
        conds: list[Condition] = []
        if self.at_keyword("when"):
            self.next()
            seen: set[type] = set()
            conds.append(self.condition(seen))
            while self.at_keyword("and"):
                self.next()
                conds.append(self.condition(seen))
        self.keyword("in")
        self.keyword("domain")
        domain = self.ident("domain name")
        if self.peek().kind != "EOF":
            raise self.fail(["end of policy"])
        return Policy(
            subject_attrs=frozenset(terms),
            action=action,
            domain_id=domain,
            resource_type=rtype,
            resource_name=rname,
            context=tuple(conds),
        )


def parse_policy(text: str) -> Policy:
    """Parse one policy; raises ParseError with 1-based line/column."""
    return _Parser(_lex(text)).policy()


def _quote(s: str) -> str:
    escaped = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _fmt_minutes(m: int) -> str:
    return f"{m // 60:02d}:{m % 60:02d}"


def serialize_policy(p: Policy) -> str:
    """Canonical one-line text form; parse_policy inverts it exactly."""
    terms = sorted(p.subject_attrs, key=lambda t: (t.name, t.value or ""))
    parts = ["permit subjects with"]
    parts.append(
        ", ".join(t.name if t.value is None else f"{t.name}={_quote(t.value)}" for t in terms)
    )
    parts.append(f"may {p.action} on resources")
    if p.resource_type is not None:
        parts.append(f"of type {p.resource_type}")
    if p.resource_name is not None:
        parts.append(f"named {_quote(p.resource_name)}")
    if p.context:
        conds = []
        for c in p.context:
            if isinstance(c, TimeWindow):
                conds.append(f"time between {_fmt_minutes(c.start)} and {_fmt_minutes(c.end)}")
            else:
                conds.append("day in [" + ",".join(d for d in DAYS if d in c.days) + "]")
        parts.append("when " + " and ".join(conds))
    parts.append(f"in domain {p.domain_id}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Decomposition into the four policy concepts (plus owning domain)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResourceSelector:
    resource_type: str | None
    resource_name: str | None

    def describe(self) -> str:
        if self.resource_type is None and self.resource_name is None:
            return "all resources"
        bits = []
        if self.resource_type is not None:
            bits.append(f"those of type {self.resource_type}")
        if self.resource_name is not None:
            bits.append(f"named {_quote(self.resource_name)}")
        return " ".join(bits)


@dataclass(frozen=True)
class PolicyParts:
    subjects: frozenset[AttrTerm]
    objects: ResourceSelector
    action: str
    context: tuple[Condition, ...]
    domain: str


def decompose_policy(p: Policy) -> PolicyParts:
    """Split a policy into subjects / objects / action / context / domain."""
    return PolicyParts(
        subjects=p.subject_attrs,
        objects=ResourceSelector(p.resource_type, p.resource_name),
        action=p.action,
        context=p.context,
        domain=p.domain_id,
    )


def recompose_policy(parts: PolicyParts) -> Policy:
    return Policy(
        subject_attrs=parts.subjects,
        action=parts.action,
        domain_id=parts.domain,
        resource_type=parts.objects.resource_type,
        resource_name=parts.objects.resource_name,
        context=parts.context,
    )


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _as_utc(at: datetime) -> datetime:
    if at.tzinfo is None:
        return at.replace(tzinfo=timezone.utc)
    return at.astimezone(timezone.utc)


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
    for term in sorted(p.subject_attrs, key=lambda t: (t.name, t.value or "")):
        ok = term.name in names if term.value is None else (term.name, term.value) in pairs
        if not ok:
            reasons.append(attribute_missing(term.name))
    at = _as_utc(req.at)
    minutes = at.hour * 60 + at.minute
    day = DAYS[at.weekday()]
    for cond in p.context:
        if isinstance(cond, TimeWindow):
            if not cond.start <= minutes < cond.end:
                reasons.append(OUTSIDE_TIME_WINDOW)
        elif day not in cond.days:
            reasons.append(DAY_NOT_ALLOWED)
    return reasons


def evaluate(
    policies: Sequence[Policy],
    verified_attrs: Iterable[Attribute],
    req: AccessRequest,
    policy_ids: Sequence[str] | None = None,
) -> Decision:
    """Deny-by-default, first-match-wins evaluation.

    On Deny the reasons describe the nearest miss: among same-domain
    policies, the one failing the fewest checks (ties go to list order).
    """
    if policy_ids is None:
        ids = [f"p{i}" for i in range(len(policies))]
    else:
        ids = list(policy_ids)
        if len(ids) != len(policies):
            raise ValueError("policy_ids must parallel policies")
    attrs = frozenset(verified_attrs)

    nearest: list[str] | None = None
    for pid, p in zip(ids, policies):
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
