from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcid.model import Attribute
from abcid.policy import (
    DAYS,
    AccessRequest,
    AttrTerm,
    Decision,
    ParseError,
    Policy,
    TimeWindow,
    _lex,
    _quote,
    attribute_missing,
    describe_policy,
    evaluate,
    parse_policy,
    serialize_policy,
)

from conftest import attr_names

WORKED = (
    "permit subjects with student, school_member, library_subscriber "
    "may read on resources of type audio "
    "when time between 08:00 and 18:00 and day in [mon,tue,wed,thu,fri] "
    "in domain library"
)

LIBRARY_ATTRS = frozenset(
    {
        Attribute("student", "true"),
        Attribute("school_member", "true"),
        Attribute("library_subscriber", "true"),
    }
)


def library_request(at: datetime) -> AccessRequest:
    return AccessRequest(
        action="read", resource_type="audio", resource_name="song1",
        domain_id="library", at=at,
    )


def monday(hour: int, minute: int = 0) -> datetime:
    return datetime(2026, 8, 3, hour, minute, tzinfo=timezone.utc)  # a Monday


# -- parsing -------------------------------------------------------------------

def test_parse_worked_example():
    p = parse_policy(WORKED)
    assert p.subject_attrs == frozenset(
        {AttrTerm("student"), AttrTerm("school_member"), AttrTerm("library_subscriber")}
    )
    assert p.action == "read"
    assert p.resource_type == "audio"
    assert p.resource_name is None
    assert (p.window, p.days) == (TimeWindow(480, 1080), frozenset(DAYS[:5]))
    assert p.domain_id == "library"


def test_parse_minimal_policy():
    p = parse_policy("permit subjects with teacher may write on resources in domain marks")
    assert p.subject_attrs == frozenset({AttrTerm("teacher")})
    assert p.action == "write"
    assert p.resource_type is None and p.resource_name is None
    assert p.window is None and p.days is None
    assert p.domain_id == "marks"


def test_parse_empty_attribute_list_fails():
    with pytest.raises(ParseError) as exc:
        parse_policy("permit subjects with may read on resources in domain library")
    assert exc.value.line == 1
    assert exc.value.col > 1
    assert exc.value.expected


def test_parse_value_terms_and_named_resource():
    p = parse_policy(
        'permit subjects with role="senior nurse", ward may update '
        'on resources of type record named "icu/4" in domain hospital'
    )
    assert AttrTerm("role", "senior nurse") in p.subject_attrs
    assert AttrTerm("ward") in p.subject_attrs
    assert p.resource_name == "icu/4"


def test_parse_comments_and_whitespace():
    text = """
    # library access rule
    permit subjects with teacher   # conjunctive terms
      may write on resources
      in domain marks
    """
    assert parse_policy(text).domain_id == "marks"


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_policy("permit subjects with a may read on resources in domain")
    assert (exc.value.line, exc.value.col) == (1, 55)

    with pytest.raises(ParseError) as exc:
        parse_policy("permit subjects\nwith a may read\nat resources in domain d")
    assert exc.value.line == 3

    with pytest.raises(ParseError) as exc:
        parse_policy("permit subjects with a may read on resources in domain # no domain")
    assert (exc.value.line, exc.value.col, exc.value.expected) == (1, 56, ("domain name",))

    with pytest.raises(ParseError, match="^unknown escape in string") as exc:
        parse_policy(r'permit subjects with a="x\"\t" may read on resources in domain d')
    assert (exc.value.line, exc.value.col) == (1, 24)

    with pytest.raises(ParseError, match="^unterminated string") as exc:
        parse_policy(r'permit subjects with a="x\"')
    assert (exc.value.line, exc.value.col) == (1, 24)

    with pytest.raises(ParseError, match="^unexpected '\"\"' ") as exc:
        parse_policy('permit subjects with a="" "" may read on resources in domain d')
    assert (exc.value.line, exc.value.col, exc.value.expected) == (1, 27, ("'may'",))

    with pytest.raises(ParseError, match="^unexpected character '\u0660'") as exc:  # Arabic-Indic zero
        parse_policy(
            "permit subjects with a may read on resources "
            "when time between \u0660\u0668:\u0660\u0660 and 18:00 in domain d"
        )
    assert (exc.value.line, exc.value.col) == (1, 64)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "deny subjects with a may read on resources in domain d",
        "permit subjects with a may read on resources in domain d trailing",
        "permit subjects with a, may read on resources in domain d",
        "permit subjects with a may read on resources when time between 25:00 and 26:00 in domain d",
        "permit subjects with a may read on resources when time between 09:61 and 10:00 in domain d",
        "permit subjects with a may read on resources when time between 10:00 and 09:00 in domain d",
        "permit subjects with a may read on resources when day in [] in domain d",
        "permit subjects with a may read on resources when day in [monday] in domain d",
        "permit subjects with a may read on resources when time between 08:00 and 09:00 "
        "and time between 10:00 and 11:00 in domain d",
        "permit subjects with a may read on resources when day in [mon] and day in [tue] in domain d",
        'permit subjects with a="unterminated may read on resources in domain d',
        "permit subjects with a=value may read on resources in domain d",
        "permit subjects with a may read on resources when weekday in [mon] in domain d",
    ],
)
def test_parse_rejects_bad_policies(text):
    with pytest.raises(ParseError):
        parse_policy(text)


def test_parse_allows_2400_as_window_end():
    p = parse_policy(
        "permit subjects with a may read on resources when time between 22:00 and 24:00 in domain d"
    )
    assert (p.window, p.days) == (TimeWindow(1320, 1440), None)


def test_round_trip_worked_example():
    p = parse_policy(WORKED)
    assert parse_policy(serialize_policy(p)) == p


def test_condition_order_does_not_matter():
    """Writing the day before the time gives the same policy, the same
    canonical text, and the same Deny reasons, time first."""
    day_first = WORKED.replace(
        "time between 08:00 and 18:00 and day in [mon,tue,wed,thu,fri]",
        "day in [mon,tue,wed,thu,fri] and time between 08:00 and 18:00",
    )
    assert day_first != WORKED
    p, q = parse_policy(WORKED), parse_policy(day_first)
    assert p == q
    assert serialize_policy(q) == serialize_policy(p)
    assert " when time between 08:00 and 18:00 and day in " in serialize_policy(q)
    sunday_evening = datetime(2026, 8, 2, 19, 30, tzinfo=timezone.utc)
    for policy in (p, q):
        d = evaluate({"p0": policy}, LIBRARY_ATTRS, library_request(sunday_evening))
        assert d.reasons == ("OutsideTimeWindow", "DayNotAllowed")


# -- generated policies -----------------------------------------------------------

terms_st = st.builds(
    AttrTerm,
    name=attr_names,
    value=st.one_of(st.none(), st.text(max_size=8)),
)


@st.composite
def windows_st(draw):
    start = draw(st.integers(min_value=0, max_value=1439))
    return TimeWindow(start, draw(st.integers(min_value=start + 1, max_value=1440)))


policies_st = st.builds(
    Policy,
    subject_attrs=st.frozensets(terms_st, min_size=1, max_size=4),
    action=attr_names,
    domain_id=attr_names,
    resource_type=st.one_of(st.none(), attr_names),
    resource_name=st.one_of(st.none(), st.text(max_size=8)),
    window=st.one_of(st.none(), windows_st()),
    days=st.one_of(st.none(), st.frozensets(st.sampled_from(DAYS), min_size=1)),
)


@given(policies_st)
@settings(max_examples=100)
def test_round_trip_generated(policy):
    text = serialize_policy(policy)
    assert parse_policy(text) == policy
    assert serialize_policy(parse_policy(text)) == text


blanks_st = st.lists(st.sampled_from([" ", "\t", "\r", "\n", " # note\n", "#\n"]), min_size=1, max_size=3)


@st.composite
def spaced_policies_st(draw):
    """A serialized policy with random blanks, newlines and comments between its tokens."""
    policy = draw(policies_st)
    out = [draw(st.sampled_from(["", "\n", "# head\n"]))]
    for tok in _lex(serialize_policy(policy))[:-1]:
        out.append(_quote(tok.text) if tok.kind == "STRING" else tok.text)
        out.extend(draw(blanks_st))
    out.append(draw(st.sampled_from(["", " # tail", "#"])))
    return policy, "".join(out)


@given(spaced_policies_st())
@settings(max_examples=100)
def test_token_positions_with_inserted_blanks(case):
    policy, text = case
    lines = text.split("\n")
    for tok in _lex(text):
        if tok.kind in ("IDENT", "TIME", "PUNCT"):
            assert lines[tok.line - 1][tok.col - 1 : tok.col - 1 + len(tok.text)] == tok.text
    assert parse_policy(text) == policy


# -- five-part description -----------------------------------------------------------

def test_decompose_worked_example():
    p = parse_policy(WORKED)
    assert p.subject_attrs == frozenset(
        {AttrTerm("student"), AttrTerm("school_member"), AttrTerm("library_subscriber")}
    )
    assert describe_policy(p).splitlines()[1] == "objects:  those of type audio"
    assert p.action == "read"
    assert (p.window, p.days) == (TimeWindow(480, 1080), frozenset(DAYS[:5]))
    assert p.domain_id == "library"


def test_bare_term_sorts_before_pinned_empty_value():
    """`a` and `a=""` used to tie in the term sort, so their printed order
    followed set iteration, which changes from run to run."""
    for terms in ('a="", a', 'a, a=""'):
        p = parse_policy(f"permit subjects with b, {terms} may read on resources in domain d")
        assert serialize_policy(p).startswith('permit subjects with a, a="", b may')
        assert describe_policy(p).startswith('subjects: a, a="", b\n')


def test_decompose_minimal_context_empty():
    p = parse_policy("permit subjects with teacher may write on resources in domain marks")
    assert p.window is None and p.days is None
    assert describe_policy(p).splitlines()[1] == "objects:  all resources"


# -- evaluation ----------------------------------------------------------------------

def test_worked_policy_decision_matrix():
    policy = parse_policy(WORKED)
    rows = [
        (monday(9), LIBRARY_ATTRS, "Permit", "Permitted"),
        (datetime(2026, 8, 1, 9, 0, tzinfo=timezone.utc), LIBRARY_ATTRS, "Deny", "DayNotAllowed"),
        (monday(9), LIBRARY_ATTRS - {Attribute("library_subscriber", "true")},
         "Deny", attribute_missing("library_subscriber")),
        (monday(18, 0), LIBRARY_ATTRS, "Deny", "OutsideTimeWindow"),
        (monday(7, 59), LIBRARY_ATTRS, "Deny", "OutsideTimeWindow"),
        (monday(8, 0), LIBRARY_ATTRS, "Permit", "Permitted"),
    ]
    for at, attrs, outcome, last_reason in rows:
        d = evaluate({"p0": policy}, attrs, library_request(at))
        assert d.outcome == outcome, (at, d)
        assert d.reasons[-1] == last_reason, (at, d)
        assert len(d.reasons) == 1


def test_window_boundaries_match_half_open_convention():
    policy = parse_policy(WORKED)
    for hour, minute in ((7, 59), (8, 0), (17, 59), (18, 0)):
        minutes = hour * 60 + minute
        inside = 480 <= minutes < 1080  # convention oracle, computed flat
        d = evaluate({"p0": policy}, LIBRARY_ATTRS, library_request(monday(hour, minute)))
        assert (d.outcome == "Permit") == inside, (hour, minute)


def test_deny_by_default():
    req = library_request(monday(9))
    assert evaluate({}, LIBRARY_ATTRS, req) == Decision("Deny", None, ("NoPolicyForDomain",))


def test_policies_for_other_domains_are_invisible():
    other = parse_policy("permit subjects with anyone may read on resources in domain elsewhere")
    d = evaluate({"p0": other}, LIBRARY_ATTRS, library_request(monday(9)))
    assert d.reasons == ("NoPolicyForDomain",)


def test_first_match_wins():
    a = parse_policy("permit subjects with student may read on resources in domain library")
    b = parse_policy("permit subjects with school_member may read on resources in domain library")
    d = evaluate({"pa": a, "pb": b}, LIBRARY_ATTRS, library_request(monday(9)))
    assert d == Decision("Permit", "pa", ("Permitted",))
    d = evaluate({"pb": b, "pa": a}, LIBRARY_ATTRS, library_request(monday(9)))
    assert d.matched_policy == "pb"


def test_nearest_miss_reporting():
    near = parse_policy(
        "permit subjects with student, rare_badge may read on resources in domain library"
    )
    far = parse_policy(
        "permit subjects with a, b, c may borrow on resources of type book in domain library"
    )
    d = evaluate({"p0": far, "p1": near}, LIBRARY_ATTRS, library_request(monday(9)))
    assert d.outcome == "Deny"
    assert d.reasons == (attribute_missing("rare_badge"),)


def test_action_and_resource_mismatch_reasons():
    policy = parse_policy(WORKED)
    wrong_action = AccessRequest("write", "audio", "s", "library", monday(9))
    assert "ActionMismatch" in evaluate({"p0": policy}, LIBRARY_ATTRS, wrong_action).reasons
    wrong_type = AccessRequest("read", "video", "s", "library", monday(9))
    assert "ResourceMismatch" in evaluate({"p0": policy}, LIBRARY_ATTRS, wrong_type).reasons


def test_value_terms_must_match_exactly():
    policy = parse_policy(
        'permit subjects with clearance="high" may read on resources in domain vault'
    )
    req = AccessRequest("read", "doc", "d1", "vault", monday(9))
    assert evaluate({"p0": policy}, {Attribute("clearance", "high")}, req).outcome == "Permit"
    d = evaluate({"p0": policy}, {Attribute("clearance", "low")}, req)
    assert d.reasons == (attribute_missing("clearance"),)


def test_decision_invariant_enforced():
    with pytest.raises(ValueError):
        Decision("Permit", "p0", ("NoPolicyForDomain",))
    with pytest.raises(ValueError):
        Decision("Deny", None, ("Permitted",))


TERM = frozenset({AttrTerm("staff")})


@pytest.mark.parametrize("build, match", [
    (lambda: AttrTerm("Bad Name"), "invalid attribute term name"),
    (lambda: TimeWindow(600, 600), "bad time window"),
    (lambda: TimeWindow(0, 1441), "bad time window"),
    (lambda: Policy(frozenset(), "read", "vault"), "at least one subject attribute term"),
    (lambda: Policy(TERM, "Read!", "vault"), "invalid action"),
    (lambda: Policy(TERM, "read", "No where"), "invalid domain"),
    (lambda: Policy(TERM, "read", "vault", days=frozenset()), "bad day set"),
    (lambda: Policy(TERM, "read", "vault", days={"someday"}), "bad day set"),
], ids=["term_name", "empty_window", "window_past_midnight", "no_terms", "action", "domain", "no_days",
        "unknown_day"])
def test_policy_parts_check_themselves(build, match):
    """A policy built in code, not parsed, meets the parser's rules."""
    with pytest.raises(ValueError, match=match):
        build()


def test_naive_datetimes_treated_as_utc():
    policy = parse_policy(WORKED)
    d = evaluate({"p0": policy}, LIBRARY_ATTRS, library_request(datetime(2026, 8, 3, 9, 0)))
    assert d.outcome == "Permit"
    # Aware times count in UTC: 2026-08-03 is a Monday, and +05:30 is 5.5 h ahead.
    ist = timezone(timedelta(hours=5, minutes=30))
    rows = [
        (14, 30, "Permit", ("Permitted",)),  # Monday 09:00 UTC
        (23, 30, "Deny", ("OutsideTimeWindow",)),  # Monday 18:00 UTC
        (1, 0, "Deny", ("OutsideTimeWindow", "DayNotAllowed")),  # Sunday 19:30 UTC
    ]
    for hour, minute, outcome, reasons in rows:
        at = datetime(2026, 8, 3, hour, minute, tzinfo=ist)
        d = evaluate({"p0": policy}, LIBRARY_ATTRS, library_request(at))
        assert (d.outcome, d.reasons) == (outcome, reasons), at


@pytest.mark.parametrize("at", [
    datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=5))),
    datetime(9999, 12, 31, 23, 0, tzinfo=timezone(timedelta(hours=-5))),
])
def test_request_time_beyond_the_utc_calendar_is_a_value_error(at):
    # In UTC these fall before year 1 or after year 9999.
    with pytest.raises(ValueError, match="request time out of range"):
        library_request(at)


def test_evaluation_deterministic():
    policy = parse_policy(WORKED)
    req = library_request(monday(8, 30))
    results = {evaluate({"p0": policy}, LIBRARY_ATTRS, req) for _ in range(5)}
    assert len(results) == 1


@given(
    st.frozensets(st.builds(Attribute, name=attr_names, value=st.sampled_from(["", "true"])), max_size=5),
    st.frozensets(st.builds(Attribute, name=attr_names, value=st.sampled_from(["", "true"])), max_size=5),
)
@settings(max_examples=80)
def test_monotonic_in_attributes(base, extra):
    policy = parse_policy(WORKED)
    req = library_request(monday(10))
    if evaluate({"p0": policy}, base, req).outcome == "Permit":
        assert evaluate({"p0": policy}, base | extra, req).outcome == "Permit"
    if evaluate({"p0": policy}, LIBRARY_ATTRS, req).outcome == "Permit":
        assert evaluate({"p0": policy}, LIBRARY_ATTRS | extra, req).outcome == "Permit"
