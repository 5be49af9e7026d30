from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcid.anoncred import PROFILES, HolderSecret
from abcid.gate import Registry
from abcid.model import (
    Attribute,
    Claim,
    Unsatisfiable,
    claim_bytes,
    select_credentials,
)
from abcid.policy import AttrTerm
from abcid.wallet import Wallet

from conftest import attr_names


# -- attributes and claims -----------------------------------------------------

def test_attribute_name_rules():
    Attribute("a")
    Attribute("over_18", "")
    Attribute("x" * 64, "v")
    for bad in ("", "Upper", "9lead", "has-dash", "x" * 65, "with space"):
        with pytest.raises(ValueError):
            Attribute(bad)


def test_attribute_equality_is_exact():
    assert Attribute("age", "30") == Attribute("age", "30")
    assert Attribute("age", "30") != Attribute("age", "31")
    assert Attribute("age", "") != Attribute("age", "x")


def test_claim_requires_issuer():
    with pytest.raises(ValueError):
        Claim(Attribute("a"), issuer_id="")


def test_attribute_value_and_schema_id_rules():
    with pytest.raises(ValueError, match="attribute value must be a string"):
        Attribute("a", 5)
    with pytest.raises(ValueError, match="invalid schema id"):
        Claim(Attribute("a"), issuer_id="gov", schema_id="Bad Id")


def test_claim_identity_ignores_schema():
    a = Claim(Attribute("role", "teacher"), "ministry", schema_id="v1")
    b = Claim(Attribute("role", "teacher"), "ministry", schema_id="v2")
    c = Claim(Attribute("role", "teacher"), "other", schema_id="v1")
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert len({a, b}) == 1
    assert len({a, b, c}) == 2


# -- records -----------------------------------------------------------------

def test_records_of_different_types_are_unequal():
    assert Attribute("age", "30") != AttrTerm("age", "30")
    assert AttrTerm("age", "30") != Attribute("age", "30")


def test_frozen_record_refuses_assignment_and_deletion():
    a = Attribute("age", "30")
    with pytest.raises(AttributeError):
        a.value = "31"
    with pytest.raises(AttributeError):
        del a.name
    assert a == Attribute("age", "30")


def test_record_repr():
    """Fields in declaration order, derived ones included."""
    claim = Claim(Attribute("age", "30"), "gov", "v1")
    assert repr(claim) == "Claim(attribute=Attribute(name='age', value='30'), issuer_id='gov', schema_id='v1')"
    assert repr(PROFILES[512]) == (
        "SystemParams(l_n=512, l_m=256, l_e=597, l_e_prime=120, l_v=1188, l_stat=80, l_h=256)"
    )


def test_mutable_records_share_no_container():
    for a, b in ((Registry(), Registry()), (Wallet(HolderSecret(1)), Wallet(HolderSecret(1)))):
        containers = [name for name, value in vars(a).items() if isinstance(value, (list, dict))]
        assert containers and all(getattr(a, name) is not getattr(b, name) for name in containers)
    registry = Registry()
    registry.domains["d"] = None
    assert Registry().domains == {}


def test_claim_bytes_layout():
    c = Claim(Attribute("ab", "c"), "i")
    raw = claim_bytes(c)
    assert raw == (
        b"\x00\x00\x00\x02ab" + b"\x1f" + b"\x00\x00\x00\x01c" + b"\x1f" + b"\x00\x00\x00\x01i"
    )


def test_claim_bytes_injective_on_field_boundaries():
    # Length prefixes keep ("ab","c") distinct from ("a","bc").
    c1 = Claim(Attribute("ab", "c"), "i")
    c2 = Claim(Attribute("a", "bc"), "i")
    assert claim_bytes(c1) != claim_bytes(c2)


# -- credential selection --------------------------------------------------------

def summaries(spec: dict[str, set[str]]) -> dict[str, frozenset[str]]:
    return {cid: frozenset(names) for cid, names in spec.items()}


def brute_force_min_cover(required: set[str], wallet: dict[str, frozenset[str]]) -> list[str] | None:
    """Exhaustive minimum-cardinality cover (smallest size, any witness)."""
    for size in range(len(wallet) + 1):
        for combo in combinations(wallet, size):
            covered = set()
            for cid in combo:
                covered |= wallet[cid]
            if required <= covered:
                return list(combo)
    return None


def test_select_reference_row():
    wallet = summaries({"c1": {"a5"}, "c5": {"a6"}, "c3": {"a3"}})
    assert select_credentials({"a5", "a6"}, wallet) == ["c1", "c5"]


def test_select_nothing_required():
    wallet = summaries({"c1": {"a5"}})
    assert select_credentials(set(), wallet) == []
    assert select_credentials(set(), {}) == []


def test_select_greedy_tie_break():
    wallet = summaries({"c4": {"a4"}, "c5": {"a6"}, "c2": {"a6", "a7"}})
    picked = select_credentials({"a4", "a6"}, wallet)
    assert picked == ["c4", "c5"]
    best = brute_force_min_cover({"a4", "a6"}, wallet)
    assert best is not None and len(picked) == len(best)


def test_select_unsatisfiable():
    wallet = summaries({"c1": {"a5"}})
    with pytest.raises(Unsatisfiable) as exc:
        select_credentials({"a5", "a9"}, wallet)
    assert exc.value.missing == frozenset({"a9"})


def test_select_deterministic():
    wallet = summaries({"c2": {"a6", "a7"}, "c5": {"a6"}, "c1": {"a5"}})
    runs = {tuple(select_credentials({"a5", "a6"}, wallet)) for _ in range(5)}
    assert runs == {("c1", "c5")}


wallet_st = st.dictionaries(
    st.from_regex(r"c[0-9a-f]{1,3}", fullmatch=True),
    st.frozensets(attr_names, min_size=0, max_size=4),
    max_size=8,
)


@given(wallet_st, st.frozensets(attr_names, max_size=5))
@settings(max_examples=120)
def test_select_cover_properties(wallet_spec, required):
    wallet = summaries(wallet_spec)
    try:
        picked = select_credentials(required, wallet)
    except Unsatisfiable:
        covered = set()
        for names in wallet.values():
            covered |= names
        assert not set(required) <= covered
        return
    covered = set()
    for cid in picked:
        covered |= wallet[cid]
    assert set(required) <= covered

    if picked:
        # Greedy local minimality: the last pick is always load-bearing.
        without_last = set()
        for cid in picked[:-1]:
            without_last |= wallet[cid]
        assert not set(required) <= without_last

    best = brute_force_min_cover(set(required), wallet)
    assert best is not None
    # Greedy may exceed the optimum (documented); never undershoots it.
    assert len(picked) >= len(best)


def test_error_codes_are_class_names():
    """The CLI prints `error[<code>]` and the gate reports a rejected
    presentation by its code, so every code is its class name and unique."""
    import importlib
    import pkgutil

    import abcid
    from abcid.model import CodedError

    for info in pkgutil.iter_modules(abcid.__path__):
        if not info.name.startswith("_"):  # __main__ would run the CLI
            importlib.import_module(f"abcid.{info.name}")
    classes, todo = [], [CodedError]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo += cls.__subclasses__()
    assert len(classes) == 18
    assert all(cls.code == cls.__name__ for cls in classes)
    assert len({cls.code for cls in classes}) == len(classes)
