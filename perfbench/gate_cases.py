"""Request kinds of the gate_1024 workload and the outcome each must get.

This is the one table of expected gate decisions. It is written out by
hand from the reference fixture's documented mapping (the module docstring
and the FIXTURE_POLICY_TEXTS of ``abcid.gate``), never by calling
``gate.access`` or ``policy.evaluate``, so the benchmark checks the gate
rather than copying it:

- c1 certifies medical_staff, c2 school_member and library_subscriber (in
  that order), c3 teacher, c4 staff, c5 school_member. c2 is issued by
  registry_office, the others by campus_office.
- medical_files, students_marks and staff_bus trust campus_office only;
  library trusts both issuers.
- medical_files_write needs medical_staff and school_member for write on a
  patient_file; students_marks_read needs teacher for read on marks;
  staff_bus_board needs staff and school_member for board on a bus;
  library_audio_read needs student, school_member and library_subscriber
  for read on audio, 08:00-18:00 UTC, Monday to Friday.
- A Deny lists the nearest policy's failures in the order action, resource,
  attribute terms by name, time window, day. A presentation the gate rejects
  forces Deny and contributes no claims.

Presentations are pooled per request today. When joint proofs replace
pooled presentations, the multi-presentation rows (med2, bus3, med4, bus4,
replay) are the ones to change.

The mix is chosen so that each reported percentile of the gate's time falls
inside one kind of request rather than on the border between two: requests
without a full verify (replay, untrusted) make up 2 of 10, those with one
presentation 4 of 10, so the median is a one-presentation request, and the
4-presentation kinds (med4, bus4) make up the top 2 of 10, so p90 is the
middle of that group.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GateCase:
    name: str
    domain: str
    action: str
    rtype: str
    # Domain whose required attributes the holder asks select_credentials to
    # cover, and the ids it must return; None replays stale presentations.
    select_for: str | None
    selected: tuple[str, ...]
    extra: tuple[str, ...]  # shown in addition to the selection
    disclose: tuple[str, ...] | None  # attribute names shown; None = all
    at: str  # "any", or "inside"/"outside" the library's weekday window
    outcome: str
    matched_policy: str | None
    reasons: tuple[str, ...]
    errors: tuple[tuple[int, str], ...]
    verified: frozenset[str]


MED_MISSING = ("AttributeMissing(medical_staff)", "AttributeMissing(school_member)")
LIB_MISSING = ("AttributeMissing(library_subscriber)", "AttributeMissing(student)")

CASES = (
    GateCase("med2", "medical_files", "write", "patient_file", "medical_files",
             ("c1", "c5"), (), None, "any",
             "Permit", "medical_files_write", ("Permitted",), (),
             frozenset({"medical_staff", "school_member"})),
    GateCase("marks1", "students_marks", "read", "marks", "students_marks",
             ("c3",), (), None, "any",
             "Permit", "students_marks_read", ("Permitted",), (),
             frozenset({"teacher"})),
    GateCase("bus3", "staff_bus", "board", "bus", "staff_bus",
             ("c4", "c5"), ("c3",), None, "any",
             "Permit", "staff_bus_board", ("Permitted",), (),
             frozenset({"staff", "school_member", "teacher"})),
    GateCase("med4", "medical_files", "write", "patient_file", "medical_files",
             ("c1", "c5"), ("c3", "c4"), None, "any",
             "Permit", "medical_files_write", ("Permitted",), (),
             frozenset({"medical_staff", "school_member", "teacher", "staff"})),
    GateCase("bus4", "staff_bus", "board", "bus", "staff_bus",
             ("c4", "c5"), ("c1", "c3"), None, "any",
             "Permit", "staff_bus_board", ("Permitted",), (),
             frozenset({"staff", "school_member", "medical_staff", "teacher"})),
    GateCase("lib_full", "library", "read", "audio", "library",
             ("c2",), (), None, "inside",
             "Deny", None, ("AttributeMissing(student)",), (),
             frozenset({"school_member", "library_subscriber"})),
    GateCase("lib_inside", "library", "read", "audio", "library",
             ("c2",), (), ("school_member",), "inside",
             "Deny", None, LIB_MISSING, (),
             frozenset({"school_member"})),
    GateCase("lib_outside", "library", "read", "audio", "library",
             ("c2",), (), ("school_member",), "outside",
             "Deny", None, LIB_MISSING + ("OutsideTimeWindow",), (),
             frozenset({"school_member"})),
    # Re-sends the c1+c5 presentations of the latest med2 request under a
    # fresh nonce.
    GateCase("replay", "medical_files", "write", "patient_file", None,
             (), (), None, "any",
             "Deny", None, MED_MISSING, ((0, "NonceMismatch"), (1, "NonceMismatch")),
             frozenset()),
    GateCase("untrusted", "medical_files", "write", "patient_file", "library",
             ("c2",), (), None, "any",
             "Deny", None, MED_MISSING, ((0, "UntrustedIssuer"),),
             frozenset()),
)

BY_NAME = {c.name: c for c in CASES}
REPLAY_SOURCE = "med2"  # the case whose presentations the replay row re-sends
