"""Identity data model: attributes, certified claims, and credential
selection. A holder's wallet is its digital identity; `select_credentials`
picks the credentials for a domain's partial identity, and `gate.access`
returns the claims that the domain verified.

Values are frozen `Record`s and every operation is a pure function, so
values are safe to share across threads.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple

TOKEN_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
MAX_NAME_LEN = 64

_FIELD_SEP = b"\x1f"


def is_token(s: str) -> bool:
    return bool(TOKEN_RE.match(s))


class Field(NamedTuple):
    """A record field: its name and its annotation as written (every module
    of the package postpones annotations, so `type` is source text)."""

    name: str
    type: str


class Record:
    """Base of the package's value types.

    A subclass's fields are its annotations, in order, and a class
    attribute gives a field's default; a list, dict or set default is
    copied for each instance. `__init__` takes every field, by position or
    by name, except those the class keyword `derived` names: the subclass's
    `__post_init__` hook sets those. Records are equal when their types are
    the same and their field values are equal, and hash by those values.
    They are frozen unless the class keyword `frozen` is False; a mutable
    record does not hash. Every method here serves all subclasses as
    written: nothing is generated or compiled per class, which keeps
    importing the package cheap.
    """

    def __init_subclass__(cls, frozen: bool = True, derived: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(Field(name, kind) for name, kind in cls.__annotations__.items())
        cls._init_names = tuple(f.name for f in cls._fields if f.name not in derived)
        cls._init_set = frozenset(cls._init_names)
        cls._defaults = {name: cls.__dict__[name] for name in cls._init_names if name in cls.__dict__}
        # What __eq__ and __hash__ compare: the field values, as a tuple when there are several.
        cls._key = attrgetter(*(f.name for f in cls._fields))
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        names = cls._init_names
        if args:
            if len(args) > len(names) or kwargs and not kwargs.keys().isdisjoint(names[: len(args)]):
                raise TypeError(f"{cls.__name__}() got too many arguments or one twice")
            kwargs.update(zip(names, args))
        if kwargs.keys() != cls._init_set:
            if not kwargs.keys() <= cls._init_set:
                raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs.keys() - cls._init_set)}")
            for name in names:
                if name not in kwargs:
                    if name not in cls._defaults:
                        raise TypeError(f"{cls.__name__}() missing argument {name!r}")
                    default = cls._defaults[name]
                    kwargs[name] = default.copy() if isinstance(default, (list, dict, set)) else default
        self.__dict__.update(kwargs)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check or normalise the fields once `__init__` has set them."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def fields(record: Record | type[Record]) -> tuple[Field, ...]:
    """The fields of a record or record type, in declaration order."""
    return record._fields


def asdict(record: Record) -> dict:
    """Field name -> value, one level deep."""
    return {f.name: getattr(record, f.name) for f in record._fields}


def replace(record: Record, **changes: object) -> Record:
    """A new record of `record`'s type, with `changes` in place of those
    fields; its `__post_init__` checks run again. A derived field cannot
    be replaced: ValueError."""
    derived = {f.name for f in record._fields}.difference(record._init_names)
    if not derived.isdisjoint(changes):
        raise ValueError(f"derived fields cannot be replaced: {sorted(derived.intersection(changes))}")
    return type(record)(**{name: getattr(record, name) for name in record._init_names} | changes)


class Attribute(Record):
    """A named characteristic of an entity. Equality is exact on the
    (name, value) pair; values are opaque UTF-8 strings and may be empty."""

    name: str
    value: str = ""

    def __post_init__(self) -> None:
        if not is_token(self.name) or len(self.name) > MAX_NAME_LEN:
            raise ValueError(f"invalid attribute name: {self.name!r}")
        if not isinstance(self.value, str):
            raise ValueError("attribute value must be a string")


class Claim(Record):
    """An attribute certified by an issuer.

    Two claims are the same fact when (name, value, issuer_id) match;
    the schema under which the fact was certified does not split identity.
    """

    attribute: Attribute
    issuer_id: str
    schema_id: str = ""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.attribute, self.issuer_id) == (other.attribute, other.issuer_id)

    def __hash__(self) -> int:
        return hash((self.attribute, self.issuer_id))

    def __post_init__(self) -> None:
        if not is_token(self.issuer_id):
            raise ValueError(f"claim needs a certifying issuer, got {self.issuer_id!r}")
        if self.schema_id and not is_token(self.schema_id):
            raise ValueError(f"invalid schema id: {self.schema_id!r}")


def claim_bytes(claim: Claim) -> bytes:
    """Canonical byte serialization of a claim, used wherever claims are
    hashed: each field UTF-8, 4-byte big-endian length prefix, fields
    joined by 0x1F."""
    parts = []
    for text in (claim.attribute.name, claim.attribute.value, claim.issuer_id):
        raw = text.encode("utf-8")
        parts.append(len(raw).to_bytes(4, "big") + raw)
    return _FIELD_SEP.join(parts)


class CodedError(Exception):
    """Base of every error the package reports by a stable, machine-readable
    `code`, its class name; the CLI prints it as `error[<code>]`."""

    code = "CodedError"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__


class Unsatisfiable(CodedError):
    """The wallet cannot jointly cover the required attributes."""

    def __init__(self, missing: Iterable[str]):
        self.missing = frozenset(missing)
        super().__init__(f"attributes not covered by wallet: {sorted(self.missing)}")


def select_credentials(required: Iterable[str], wallet: Mapping[str, frozenset[str]]) -> list[str]:
    """Pick credentials, given as id -> attribute names, whose attributes
    jointly cover `required`.

    Greedy cover: repeatedly take the credential certifying the most
    still-uncovered required attributes; ties go to the credential with
    the fewest attributes overall (disclose no more than needed), then to
    the lexicographically smallest id. Deterministic, and minimal on the
    reference fixture; a brute-force cover can occasionally be smaller.
    """
    uncovered = set(required)
    reachable: set[str] = set()
    for names in wallet.values():
        reachable |= names
    if not uncovered <= reachable:
        raise Unsatisfiable(uncovered - reachable)

    chosen: list[str] = []
    while uncovered:  # a chosen credential covers nothing still uncovered
        best = min(wallet, key=lambda cid: (-len(wallet[cid] & uncovered), len(wallet[cid]), cid))
        chosen.append(best)
        uncovered -= wallet[best]
    return chosen
