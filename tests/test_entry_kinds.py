"""What each report entry compares.

ENTRY_KINDS names every check that a golden report or a fuzzed verify
report can hold, by the name after its last ":" (verify prefixes the frame
id, torus-zero the rank), with its kind:
- two-route: two computations that must agree, named as "module.func";
- identity: one computation and one law it must satisfy;
- hand-built: one computation compared with an element written in code;
- skipped: an entry that reports only skipped-out-of-scope.

An index entry that can pass is never an identity: the index report holds
only comparisons of an engine route with an oracle, and verify checks the J
identities of each built-in.  A report entry missing from the table fails,
and so does a row that no golden report holds.
"""

import importlib
import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
SKIPPED = "skipped-out-of-scope"

ENTRY_KINDS = {
    # verify, one of each per frame
    "transversality": ("identity", "the moment matrix has full rank at every sample"),
    "closedness": ("identity", "D J = 0"),
    "frame-annihilation": ("identity", "alpha_a J = 0 for every slot a"),
    "frame-independence-25": ("two-route", "jform.j_form", "jform.transformed_j_form"),
    "fourier-integral-identity": ("two-route", "jform.j_form", "genco.fourier_fibre_integrate"),
    # index
    "regular-representation-window-50": ("two-route", "charclass.localize_index",
                                         "oracles.l2_torus_oracle"),
    "regular-representation-window-20": ("two-route", "charclass.localize_index",
                                         "oracles.l2_torus_oracle"),
    "sheaf-character-oracle": ("two-route", "charclass.localize_index",
                               "oracles.cp1_sheaf_character_oracle"),
    "frobenius-branching-oracle": ("two-route", "charclass.localize_index",
                                   "oracles.frobenius_multiplicity_oracle"),
    "zero-operator-formula-side": ("skipped", "the distributional index of the zero operator "
                                              "on the full group has no route"),
    "orbifold-multiplicities": ("two-route", "characters.hopf_multiplicities",
                                "oracles.hrr_cp1_oracle"),
    "taylor-display-form": ("hand-built", "ROADMAP item 19 replaces the hand-built display "
                                          "by the Fourier route"),
    "contact-box-oracle": ("two-route", "charclass.localize_index",
                           "oracles.s3_contact_character_oracle"),
}


def entry_key(check):
    """The ENTRY_KINDS key of a report entry's check name."""
    return check.rpartition(":")[2]


def _breaches(reports):
    """What the entries of reports break of the table: an entry it does not
    name, an index entry that can pass and is an identity, and a skipped row
    whose entry has another status."""
    found = []
    for rep in reports:
        for r in rep["results"]:
            row = ENTRY_KINDS.get(entry_key(r["check"]))
            where = f"{rep['command']} {rep['model']}: {r['check']}"
            if row is None:
                found.append(f"{where} is not in ENTRY_KINDS")
            elif row[0] == "identity" and rep["command"] == "index" and r["status"] != SKIPPED:
                found.append(f"{where} is an identity")
            elif row[0] == "skipped" and r["status"] != SKIPPED:
                found.append(f"{where} is {r['status']}")
    return found


def _golden_reports():
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(GOLDEN.glob("*.json"))]


def test_golden_entries_keep_the_table():
    reports = _golden_reports()
    assert _breaches(reports) == []
    held = {entry_key(r["check"]) for rep in reports for r in rep["results"]}
    assert held == set(ENTRY_KINDS)


def test_table_flags_an_unlisted_or_identity_index_entry():
    rep = {"command": "index", "model": "torus-zero",
           "results": [{"check": "rank1:equivariantly-closed", "status": "pass"},
                       {"check": "rank1:closedness", "status": "pass"},
                       {"check": "rank1:closedness", "status": SKIPPED},
                       {"check": "zero-operator-formula-side", "status": "pass"},
                       {"check": "sheaf-character-oracle", "status": "fail"}]}
    assert _breaches([rep]) == [
        "index torus-zero: rank1:equivariantly-closed is not in ENTRY_KINDS",
        "index torus-zero: rank1:closedness is an identity",
        "index torus-zero: zero-operator-formula-side is pass"]
    assert _breaches([dict(rep, command="verify", results=rep["results"][1:3])]) == []


def test_two_route_rows_name_two_routes_and_index_rows_an_oracle():
    index = {entry_key(r["check"]) for rep in _golden_reports() if rep["command"] == "index"
             for r in rep["results"]}
    for key, (kind, *routes) in ENTRY_KINDS.items():
        if kind != "two-route":
            continue
        assert len(set(routes)) == 2, key
        for route in routes:
            mod, func = route.split(".")
            assert callable(getattr(importlib.import_module(f"equivar.{mod}"), func, None)), route
        assert (routes[1].startswith("oracles.") and not routes[0].startswith("oracles.")) \
            == (key in index), key


def test_the_only_hand_built_entry_names_its_replacement():
    hand_built = {key: row for key, row in ENTRY_KINDS.items() if row[0] == "hand-built"}
    assert list(hand_built) == ["taylor-display-form"]
    assert "item 19" in hand_built["taylor-display-form"][1]
