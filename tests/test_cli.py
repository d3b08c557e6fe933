"""Reports and the command-line surface: determinism, exit codes, rendering."""

import copy
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from equivar import characters, charclass, cli, genco, jform, linalg, superalg
from equivar.cli import main, run_index, run_verify
from equivar.errors import InvariantViolation, ParseError
from equivar.laurent import RationalCharacter
from equivar.modelfile import builtin_names, load_builtin, load_model, loads_model, parse_element
from equivar.report import (
    CONVENTIONS,
    LATEX,
    TEXT,
    entry,
    nonzero_witness,
    render_element,
    render_frame_value,
    render_term,
    report_status,
    report_to_json,
)

from random_models import random_element

BAD_MOMENT_DOC = {
    "name": "flat-moment",
    "manifoldDim": 1,
    "parameters": ["X"],
    "generators": [
        {"name": "deta", "parity": "odd", "formDegree": 1,
         "kind": "frameForm", "frame": "tau", "slot": 1},
        {"name": "u1", "parity": "even", "formDegree": 2,
         "kind": "closedArgument", "frame": "tau", "slot": 1},
    ],
    "dTable": {},
    "iotaTable": {},
    "frames": [
        {"frameId": "tau", "rank": 1, "slots": ["deta"],
         "momentSamples": [[[0]]], "split": ["0"]},
    ],
}


def _builtin_doc(name):
    return json.loads(resources.files("equivar").joinpath("models", name + ".json")
                      .read_text(encoding="utf-8"))


def _edited(name, edit):
    doc = copy.deepcopy(_builtin_doc(name))
    edit(doc)
    return doc


# Model documents with a wrong JSON type in a nested field:
# case -> (built-in to edit, edit, the field the error must name).
MALFORMED_DOCS = {
    "generator-string": ("hopf", lambda d: d["generators"].append("psi"), "generator"),
    "generator-int": ("hopf", lambda d: d["generators"].append(3), "generator"),
    "frame-list": ("hopf", lambda d: d["frames"].append(["conn"]), "frame"),
    "fixed-locus-string": ("cp1-dolbeault", lambda d: d["fixedLoci"].append("north"),
                           "fixed locus"),
    "dtable-list": ("hopf", lambda d: d.update(dTable=["Psi"]), "dTable"),
    "base-list": ("hopf", lambda d: d.update(base=[2, 1, 2]), "base"),
    "dtable-value-int": ("hopf", lambda d: d["dTable"].update(Psi=0), "dTable"),
    "iota-entry-int": ("hopf", lambda d: d["iotaTable"].update(Psi=[0]), "iotaTable"),
    "split-entry-int": ("hopf", lambda d: d["frames"][0].update(split=[0]), "split"),
    "moment-samples-int": ("hopf", lambda d: d["frames"][0].update(momentSamples=5),
                           "momentSamples"),
    "moment-sample-int": ("hopf", lambda d: d["frames"][0].update(momentSamples=[-1]),
                          "momentSamples"),
    "moment-row-int": ("hopf", lambda d: d["frames"][0].update(momentSamples=[[-1]]),
                       "momentSamples"),
    "generator-frame-int": ("hopf", lambda d: d["generators"][0].update(frame=1), "'frame'"),
    "generator-slot-string": ("hopf", lambda d: d["generators"][0].update(slot="1"),
                              "'slot'"),
    "generator-slot-bool": ("t2-on-t2", lambda d: [g.update(slot=True)
                                                   for g in d["generators"]
                                                   if g["slot"] == 1], "'slot'"),
    # a second declaration of a name would silently replace the first
    "duplicate-generator": ("s3-contact", lambda d: d["generators"].insert(
        0, {"name": "dalpha", "parity": "odd", "formDegree": 3}),
        "duplicate generator 'dalpha'"),
    "duplicate-frame": ("s3-contact", lambda d: d["frames"].insert(
        0, dict(d["frames"][0], momentSamples=[[[0, 0]]])), "duplicate frame 'co'"),
    # a parameter is an even generator, so the two may not share a name
    "parameter-named-like-generator": ("s3-contact", lambda d: d["generators"].append(
        {"name": "X1", "parity": "even", "formDegree": 2}),
        "a parameter name collides with a generator name"),
    # a table image with a parameter would blur the identities that D^2 = 0 holds
    "parameter-in-table": ("hopf", lambda d: (
        d["generators"].append({"name": "th", "parity": "odd", "formDegree": 1}),
        d["iotaTable"].update(th=["X"])), "parameter inside table image iota_0(th)"),
    # fibre coordinates exist only in the model the Fourier integral builds
    "fibre-kind": ("hopf", lambda d: d["generators"].append(
        {"name": "xi", "parity": "even", "formDegree": 0, "kind": "fibreCoordinate",
         "frame": "conn", "slot": 1}), "unknown kind 'fibreCoordinate'"),
    # D(alpha) is read from the frame slot a frame form claims, so that slot must hold it
    # (the loci go too: a circle locus naming the removed frame fails to load first)
    "frames-removed": ("s3-contact", lambda d: (d.pop("frames"), d.pop("fixedLoci")),
                       "frameForm 'alpha' is not a slot of a declared frame"),
    "frame-form-slot-past-rank": ("s3-contact", lambda d: d["generators"].append(
        {"name": "beta", "parity": "odd", "formDegree": 1, "kind": "frameForm",
         "frame": "co", "slot": 2}), "frameForm 'beta' is not a slot of a declared frame"),
    "frame-form-slot-zero": ("s3-contact", lambda d: d["generators"].append(
        {"name": "beta", "parity": "odd", "formDegree": 1, "kind": "frameForm",
         "frame": "co", "slot": 0}), "frameForm 'beta' is not a slot of a declared frame"),
    "closed-argument-undeclared-frame": ("s3-contact", lambda d: d["generators"].append(
        {"name": "v1", "parity": "even", "formDegree": 2, "kind": "closedArgument",
         "frame": "zz", "slot": 1}), "closedArgument 'v1' is not a slot of a declared frame"),
    # a circle locus names its comb's moment sample by frame and index
    "locus-unknown-frame": ("s3-contact", lambda d: d["fixedLoci"][0].update(frame="zz"),
                            "locus 'circle-z2-zero' names no frame 'zz'"),
    "locus-sample-past-end": ("s3-contact", lambda d: d["fixedLoci"][1].update(momentSample=3),
                              "locus 'circle-z1-zero': frame 'co' has no momentSample 3"),
    "locus-sample-negative": ("s3-contact", lambda d: d["fixedLoci"][0].update(momentSample=-1),
                              "locus 'circle-z2-zero': frame 'co' has no momentSample -1"),
    "locus-sample-bool": ("s3-contact", lambda d: d["fixedLoci"][0].update(momentSample=True),
                          "bad type for 'momentSample' in circle-z2-zero"),
    "locus-sample-string": ("s3-contact", lambda d: d["fixedLoci"][0].update(momentSample="0"),
                            "bad type for 'momentSample' in circle-z2-zero"),
    "locus-frame-int": ("s3-contact", lambda d: d["fixedLoci"][0].update(frame=0),
                        "bad type for 'frame' in circle-z2-zero"),
    "locus-without-frame": ("s3-contact", lambda d: d["fixedLoci"][0].pop("frame"),
                            "missing 'frame' in circle-z2-zero"),
    "locus-without-sample": ("s3-contact", lambda d: d["fixedLoci"][1].pop("momentSample"),
                             "missing 'momentSample' in circle-z1-zero"),
    # validate_model's guards at their boundaries: each clause of a shape check
    # alone, and a closed argument's non-zero iota image
    "frame-slots-past-rank": ("s3-contact", lambda d: d["frames"][0]["slots"].append("dalpha"),
                              "frame 'co' slot count != rank"),
    "moment-sample-rows-past-rank": ("hopf", lambda d: d["frames"][0].update(
        momentSamples=[[[-1], [-1]]]), "moment sample shape in frame 'conn' is not k x r"),
    "moment-row-past-parameters": ("hopf", lambda d: d["frames"][0].update(
        momentSamples=[[[-1, 0]]]), "moment sample shape in frame 'conn' is not k x r"),
    "closed-argument-iota-image": ("hopf", lambda d: d["iotaTable"].update(u1=["Psi"]),
                                   "closed argument 'u1' must have zero iota-image"),
    # a frame whose momentSamples is absent has no sample to name
    "locus-frame-without-samples": ("s3-contact", lambda d: d["frames"][0].pop("momentSamples"),
                                    "frame 'co' has no momentSample 0"),
    # a normal factor 1/(1 - c t^w) evaluates at c = +1 or -1 only, so every
    # expanded coefficient is an int
    **{f"eval-{name}": ("s3-contact", lambda d, v=v: d["fixedLoci"][0]["normalWeights"][0]
                        .update(eval=v), "eval must be +1 or -1 in circle-z2-zero")
       for name, v in (("half", "1/2"), ("two", 2), ("zero", 0), ("float", 0.5))},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCS))
def test_malformed_model_exit_two(case, tmp_path, capsys):
    path = tmp_path / f"{case}.json"
    name, edit, field = MALFORMED_DOCS[case]
    path.write_text(json.dumps(_edited(name, edit)), encoding="utf-8")
    for command in ("verify", "render"):
        assert main([command, str(path)]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.count("\n") == 1 and cap.err.startswith("error: "), cap.err
        assert field in cap.err and "Traceback" not in cap.err, cap.err


# A key repeated inside one JSON object: json keeps the last copy, so the
# copy that won depended on its place.  The rows of MALFORMED_DOCS edit
# dicts, which cannot repeat a key, so these edit the JSON text of a
# built-in: a second "momentSamples" of rank 0 before or after the real one
# in s3-contact's frame co, a second "name" at the top level, a second
# "parity" in generator dalpha, or a second "twistWeight" in the last fixed
# locus.  The message names the object that holds the copy, or, for an
# object with no frameId, locusId or name, the key that holds that object:
# hopf's dTable and base, and s3-contact's list normalWeights.  A repeat with
# no enclosing object names no place.
REPEATED_KEYS = {
    "first": ("s3-contact", '"frameId": "co"', '"momentSamples": [[[0, 0]]], "frameId": "co"',
              "duplicate key 'momentSamples' in frame 'co'"),
    "last": ("s3-contact", '"split"', '"momentSamples": [[[0, 0]]], "split"',
             "duplicate key 'momentSamples' in frame 'co'"),
    "top-level": ("s3-contact", '"manifoldDim"', '"name": "other", "manifoldDim"',
                  "duplicate key 'name' in model 's3-contact'"),
    "generator": ("s3-contact", '"formDegree": 2}', '"formDegree": 2, "parity": "odd"}',
                  "duplicate key 'parity' in generator 'dalpha'"),
    "locus": ("s3-contact", '"orientationSign": 1}]',
              '"orientationSign": 1, "twistWeight": [0, 0]}]',
              "duplicate key 'twistWeight' in locus 'circle-z1-zero'"),
    "table": ("hopf", '"dTable": {"Psi": "0"}', '"dTable": {"Psi": "0", "Psi": "Psi"}',
              "duplicate key 'Psi' in dTable"),
    "base": ("hopf", '"tangentWeight": 2', '"tangentWeight": 2, "tangentWeight": 3',
             "duplicate key 'tangentWeight' in base"),
    "in-list": ("s3-contact", '"weight": [1, 0], "eval": 1}',
                '"weight": [1, 0], "eval": 1, "eval": 2}',
                "duplicate key 'eval' in normalWeights"),
    "unplaced": ("s3-contact", '"name": "s3-contact"', '"name": 3, "name": 4',
                 "duplicate key 'name'"),
}


@pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
def test_repeated_key_exit_two(case, tmp_path, capsys):
    builtin, old, new, message = REPEATED_KEYS[case]
    text = json.dumps(_builtin_doc(builtin))
    assert text.count(old) == 1
    path = tmp_path / f"{case}.json"
    path.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"error: {message}\n"


def test_generator_with_a_fibre_coordinate_name_verifies(tmp_path, capsys):
    # the Fourier integral names its fibre coordinates around the model's own
    doc = _edited("s3-contact", lambda d: (
        d["generators"].append({"name": "xi_co_1", "parity": "even", "formDegree": 2}),
        d["dTable"].update(xi_co_1="0")))
    path = tmp_path / "xi.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.strip().endswith("verify s3-contact: pass")


def test_json_syntax_error_names_line_and_column(tmp_path, capsys):
    text = '{\n  "name": "hopf",,\n  "manifoldDim": 3\n}'
    column = text.splitlines()[1].index(",,") + 2
    with pytest.raises(ParseError) as exc:
        loads_model(text)
    assert (exc.value.line, exc.value.column) == (2, column)
    path = tmp_path / "commas.json"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == (f"error: line 2, column {column}: "
                       "Expecting property name enclosed in double quotes\n")


def test_expression_error_names_entry_and_column(tmp_path, capsys):
    doc = _edited("hopf", lambda d: d["dTable"].update(Psi="1 + 2*$"))
    with pytest.raises(ParseError) as exc:
        loads_model(json.dumps(doc))
    # the attributes keep the expression's 0-based offset; the message counts from 1
    assert (exc.value.line, exc.value.column) == (None, 6)
    path = tmp_path / "dollar.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: dTable entry for 'Psi', column 7: unexpected character '$'\n"


UNREADABLE_FILES = {
    "bad.bin": (b"\xff\xfe\x00", "not UTF-8"),
    "deep.json": (b"[" * 5000 + b"]" * 5000, "nesting"),
    "long-int.json": (b'{"manifoldDim": ' + b"1" * 5000 + b"}", "digits"),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE_FILES))
def test_unreadable_model_file_exit_two(name, tmp_path, capsys):
    data, phrase = UNREADABLE_FILES[name]
    path = tmp_path / name
    path.write_bytes(data)
    assert main(["verify", str(path)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.count("\n") == 1 and cap.err.startswith("error: "), cap.err
    assert phrase in cap.err and "Traceback" not in cap.err, cap.err


# Model documents that load or compute past a limit of the Python runtime:
# case -> (built-in to edit, edit, phrase the error must hold).
RUNTIME_LIMIT_DOCS = {
    "zero-denominator": ("s3-contact", lambda d: d.update(dTable={"dalpha": "1/0"}),
                         "bad rational literal '1/0'"),
    # the display coefficient 1/J! has more digits than int-to-str may print
    "long-coefficient": ("hopf", lambda d: d.update(manifoldDim=4000),
                         "digits, too many to print"),
    # a rational literal that Fraction may not read, in an expression and in a
    # locus: named by its length, not echoed
    "long-rational-literal": ("hopf", lambda d: d["dTable"].update(Psi="1" * 4301 + "*Psi"),
                              "dTable entry for 'Psi', column 1: "
                              "bad rational literal of 4301 characters"),
    "long-rational-eval": ("s3-contact", lambda d: d["fixedLoci"][0]["normalWeights"][0]
                           .update(eval="1" * 4301),
                           "bad rational literal of 4301 characters in circle-z2-zero"),
    # a literal that Fraction reads but the element grammar does not, with
    # an exponent that Fraction would take seconds to expand
    "exponent-eval": ("s3-contact", lambda d: d["fixedLoci"][0]["normalWeights"][0]
                      .update(eval="1e1000000"),
                      "bad rational literal '1e1000000' in circle-z2-zero, field 'eval'"),
    # a long list where a rational belongs: named by its type and length
    "long-list-moment-entry": ("t2-on-t2", lambda d: d["frames"][0]["momentSamples"][0][0]
                               .__setitem__(0, [1] * 3000),
                               "bad rational: list of length 3000 in frame 'tau', "
                               "field 'momentSamples'"),
    # a long list or string where a weight, an expansion direction or a
    # locus type belongs: named by its type and length, not echoed
    "long-list-tangent-weight": ("cp1-dolbeault", lambda d: d["fixedLoci"][0]
                                 .update(tangentWeights=[[1] * 3000]),
                                 "bad weight list of length 3000 in north: want 1 ints"),
    "long-list-expansion-direction": ("cp1-dolbeault", lambda d: d["fixedLoci"][0]
                                      .update(expansionDirections=[[1] * 3000]),
                                      "unknown expansion direction list of length 3000 "
                                      "in north"),
    "long-locus-type": ("cp1-dolbeault", lambda d: d["fixedLoci"][0]
                        .update(locusType="x" * 3000),
                        "unknown locus type of 3000 characters in north"),
    # a long name echoed in a message: named by its length, not echoed
    "long-locus-id": ("cp1-dolbeault", lambda d: d["fixedLoci"][0]
                      .update(locusId="x" * 3000, locusType="bogus"),
                      "unknown locus type 'bogus' in a name of 3000 characters"),
    "long-unknown-symbol": ("hopf", lambda d: d["dTable"].update(Psi="Q" * 3000),
                            "dTable entry for 'Psi', column 1: "
                            "unknown symbol of 3000 characters"),
    "long-duplicate-generator": ("hopf", lambda d: d["generators"].extend(
        [{"name": "g" * 3000, "parity": "even", "formDegree": 2}] * 2),
        "duplicate generator of 3000 characters"),
    # a long name in validate_model's message, and in j_form's
    "long-mismatched-generator": ("hopf", lambda d: d["generators"].append(
        {"name": "g" * 3000, "parity": "odd", "formDegree": 2}),
        "parity/degree mismatch on of 3000 characters"),
    "long-frame-id": ("s1-on-s1", lambda d: (
        d["frames"][0].update(frameId="f" * 3000), d["frames"][0].pop("momentSamples"),
        [g.update(frame="f" * 3000) for g in d["generators"] if "frame" in g]),
        "frame of 3000 characters declares no moment samples"),
    # an exponent literal that int() may not read
    "long-exponent-literal": ("hopf", lambda d: d["dTable"].update(Psi="Psi^" + "1" * 4301),
                              "dTable entry for 'Psi', column 5: exponent has more than"),
    # a readable exponent that the display raises past what str() may print
    "long-display-exponent": ("hopf", lambda d: (
        d.update(manifoldDim=5), d["frames"][0].update(split=["Psi*u1^" + "9" * 4300])),
        "an exponent has more than"),
    # C(bound + k, k) itself has too many digits to print
    "long-walk-count": ("t2-on-t2", lambda d: d.update(manifoldDim=int("9" * 4000)),
                        "would walk at least 10^"),
}


@pytest.mark.parametrize("command", ["verify", "render"])
@pytest.mark.parametrize("case", sorted(RUNTIME_LIMIT_DOCS))
def test_runtime_limit_exit_two(case, command, tmp_path, capsys):
    path = tmp_path / f"{case}.json"
    name, edit, phrase = RUNTIME_LIMIT_DOCS[case]
    path.write_text(json.dumps(_edited(name, edit)), encoding="utf-8")
    assert main([command, str(path)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.count("\n") == 1 and cap.err.startswith("error: "), cap.err
    assert phrase in cap.err and "Traceback" not in cap.err, cap.err
    assert len(cap.err) < 200, cap.err


def test_render_names_a_rank_deficient_sample_without_its_matrix(tmp_path, capsys):
    # a moment sample of 3000-digit entries has rank 1: render's error line
    # names the frame, the sample and the ranks, and verify's witness keeps
    # the matrix
    n = int("9" * 3000)
    path = tmp_path / "long-moment.json"
    path.write_text(json.dumps(_edited("t2-on-t2", lambda d: d["frames"][0].update(
        momentSamples=[[[n, n], [n, n]]]))), encoding="utf-8")
    assert main(["render", str(path)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: frame 'tau' moment data not full rank: sample 0 has rank 1, not 2\n"
    out = tmp_path / "report.json"
    assert main(["verify", str(path), "--json", str(out)]) == 1
    first = json.loads(out.read_text(encoding="utf-8"))["results"][0]
    assert first["check"] == "tau:transversality" and first["status"] == "fail"
    assert first["witness"] == {"sampleIndex": 0, "rank": 1, "required": 2,
                                "matrix": [[str(n), str(n)], [str(n), str(n)]]}


def test_verify_line_names_long_witness_values(tmp_path, capsys):
    # the transversality witness of a 2x2 moment sample of 3000-digit entries
    # prints each entry by its length; the --json witness keeps the matrix
    n = int("9" * 3000)
    path = tmp_path / "long-moment.json"
    path.write_text(json.dumps(_edited("t2-on-t2", lambda d: d["frames"][0].update(
        momentSamples=[[[n, n], [n, n]]]))), encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    line, = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("[fail] tau:transversality")]
    assert len(line) < 300, line
    assert line.endswith("'matrix': [['of 3000 characters', 'of 3000 characters'], "
                         "['of 3000 characters', 'of 3000 characters']]}")
    # an int of more than 40 digits by its bound; a tuple stays a tuple
    big = 10 ** 40
    assert cli._shown_leaves({"k": (big, -big, big - 1, "x" * 40, ["y" * 41])}) == \
        {"k": ("at least 10^40", "at most -10^40", big - 1, "x" * 40, ["of 41 characters"])}


def test_exponent_literal_rejected_at_once(tmp_path, capsys):
    path = tmp_path / "s3-exponent.json"
    path.write_text(json.dumps(_edited("s3-contact", RUNTIME_LIMIT_DOCS["exponent-eval"][1])),
                    encoding="utf-8")
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err.count("\n") == 1


SPLIT_RANK4 = Path(__file__).parent / "golden" / "models" / "split-rank4.json"


# split entries that are not 2-forms: a constant, a moment, an odd 1-form, a
# closed argument (degree 0), a 4-form, and a 2-form plus a 1-form
@pytest.mark.parametrize("entry", ["1", "X1", "th0", "u1", "F1*F2", "F1 + th0"])
def test_split_entry_not_a_two_form_exit_two(entry, tmp_path, capsys):
    doc = json.loads(SPLIT_RANK4.read_text(encoding="utf-8"))
    doc["frames"][0]["split"][0] = entry
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.count("\n") == 1 and cap.err.startswith("error: "), cap.err
    assert "split entry 0" in cap.err and "Traceback" not in cap.err, cap.err


@pytest.mark.parametrize("command", ["verify", "render"])
@pytest.mark.parametrize("dim, indices", [(30, 2380), (98, 249900)])
def test_taylor_walk_past_its_bound_exit_two(dim, indices, command, tmp_path, capsys):
    # split-rank4's display walks C((dim - 4) // 2 + 4, 4) multi-indices: 1820
    # at dim 29, within genco.MAX_TAYLOR_INDICES; from dim 30 on it stops first
    doc = json.loads(SPLIT_RANK4.read_text(encoding="utf-8"))
    doc["manifoldDim"] = dim
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    assert main([command, str(path)]) == 2
    assert time.perf_counter() - start < 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.count("\n") == 1 and cap.err.startswith("error: "), cap.err
    assert f"would walk {indices} multi-indices, more than 2048" in cap.err, cap.err
    assert genco.MAX_TAYLOR_INDICES == 2048


def test_impossible_dimension_exit_two(tmp_path, capsys):
    for dim, code in ((-1, 2), (0, 2), (1, 2), (2, 0)):
        path = tmp_path / f"t2-dim{dim}.json"
        path.write_text(json.dumps(_edited("t2-on-t2", lambda d: d.update(manifoldDim=dim))),
                        encoding="utf-8")
        assert main(["verify", str(path)]) == code, dim
        cap = capsys.readouterr()
        if code == 2:
            assert cap.out == "" and cap.err.count("\n") == 1, cap.err
            assert "manifold dimension" in cap.err, cap.err


def test_report_round_trip():
    rep = run_verify(load_builtin("s1-on-s1"), seed=3)
    assert json.loads(report_to_json(rep)) == rep
    assert report_status(rep) == "pass"


def test_passing_entry_with_a_witness_is_an_invariant_violation():
    assert entry("c", False, {"n": 1}) == {"check": "c", "status": "fail", "witness": {"n": 1}}
    assert entry("c", True) == {"check": "c", "status": "pass"}
    with pytest.raises(InvariantViolation, match="passing entry 'c' carries a witness"):
        entry("c", True, {"n": 1})


def test_index_witness_on_a_pass_exit_two(monkeypatch, capsys):
    """An example whose entry attaches a witness to a pass stops with exit 2
    before any report is printed."""
    def always_witnessed(check, ok, witness=None):
        return entry(check, ok, {"n": 1} if witness is None else witness)

    monkeypatch.setattr(characters, "entry", always_witnessed)
    assert main(["index", "hopf"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: passing entry 'orbifold-multiplicities' carries a witness\n"


def test_reports_carry_conventions_block():
    for rep in (run_verify(load_builtin("hopf")), run_index("hopf")):
        assert rep["conventions"] == CONVENTIONS
        assert set(CONVENTIONS) == {"twoPiPolicy", "fourierSign", "orientationRule"}


def test_render_closed_and_display_forms():
    m = load_builtin("t2-on-t2")
    closed = jform.j_form(m, "tau")
    assert render_element(closed, m, TEXT) == "-deta1*deta2*delta0(u1,u2)"
    assert render_frame_value(m, "tau", TEXT) == "-deta1*deta2*delta0(f[tau])"
    latex = render_element(closed, m, LATEX)
    assert "\\wedge" in latex and "\\delta_0" in latex

    mh = load_builtin("hopf")
    assert render_frame_value(mh, "conn", TEXT) == \
        "psi*delta0(f[conn]) + psi*delta0^(1)(f[conn])*Psi"


def test_parameter_factors_render_among_the_even_factors():
    # a parameter is an even generator: its factors sort by name with the
    # other even factors, and its terms sort by their even monomials
    m = load_builtin("hopf")
    e = parse_element("2*X*Psi - 3*X^2*psi + psi", m)
    assert render_element(e, m, TEXT) == "2*Psi*X + psi - 3*psi*X^2"
    assert render_element(e, m, LATEX) == \
        "2\\,\\mathrm{Psi}\\,X + \\mathrm{psi} - 3\\,\\mathrm{psi}\\,X^{2}"


def _abs_sign_render(e, m, fmt):
    """render_element with each term's magnitude from abs(coeff) and its
    sign from coeff < 0; the factors come from render_term on the term with
    coefficient 1."""
    sep = r"\," if fmt == LATEX else "*"
    out = []
    for i, t in enumerate(e.terms):
        has_factors = t.odd_mono or t.delta is not None or t.even_mono
        body = render_term(t._replace(coeff=1), m, fmt) if has_factors else ""
        c = abs(t.coeff)
        if c != 1 or not body:
            body = str(c) + (sep + body if body else "")
        sign = ("-" if t.coeff < 0 else "") if i == 0 else (" - " if t.coeff < 0 else " + ")
        out.append(sign + body)
    return "".join(out) or "0"


def test_render_signs_and_magnitudes_match_abs_reference():
    """Signs read from the numerator and magnitudes from str(coeff) with its
    "-" stripped give the text and LaTeX of abs(coeff) and coeff < 0."""
    rng = random.Random(17)
    seen = dict.fromkeys(("unit", "minus-unit", "unit-fraction", "fraction", "int",
                          "scalar", "negative-first"), 0)
    scales = (1, -1, 2, -7, Fraction(1, 3), Fraction(-1, 3), Fraction(-22, 7), 10 ** 30)
    for name in builtin_names():
        m = load_builtin(name)
        for _ in range(40):
            e = random_element(rng, m, n_terms=rng.randint(1, 4))
            e = superalg.add(e.scaled(rng.choice(scales)),
                             m.scalar(rng.choice((0,) + scales)), m)
            for fmt in (TEXT, LATEX):
                assert render_element(e, m, fmt) == _abs_sign_render(e, m, fmt), (name, e)
            for t in e.terms:
                c = t.coeff
                seen["unit"] += c == 1
                seen["minus-unit"] += c == -1
                seen["unit-fraction"] += type(c) is Fraction and abs(c.numerator) == 1
                seen["fraction" if type(c) is Fraction else "int"] += 1
                seen["scalar"] += not (t.odd_mono or t.delta or t.even_mono)
            seen["negative-first"] += bool(e.terms) and e.terms[0].coeff < 0
    assert all(seen.values()), seen


def test_verify_exit_zero(capsys):
    assert main(["verify", "s1-on-s1"]) == 0
    out = capsys.readouterr().out
    assert "[pass] tau:closedness" in out
    assert out.strip().endswith("verify s1-on-s1: pass")


def test_verify_failure_exit_one(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(BAD_MOMENT_DOC), encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[fail] tau:transversality" in out
    assert "witness" in out


def test_error_exit_two(tmp_path, capsys):
    assert main(["index", "no-such-example"]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3


def test_index_report_written(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["index", "cp1-dolbeault", "--twist", "2",
                 "--max-degree", "8", "--json", str(out)]) == 0
    rep = json.loads(out.read_text(encoding="utf-8"))
    assert rep["command"] == "index"
    assert rep["twist"] == 2
    assert rep["maxDegree"] == 8
    assert rep["conventions"]["fourierSign"].startswith("delta_0")
    capsys.readouterr()


def test_seeded_reports_are_byte_identical(tmp_path):
    outs = []
    for i in (1, 2):
        p = tmp_path / f"r{i}.json"
        cmd = [sys.executable, "-m", "equivar.cli", "verify", "t2-on-t2",
               "--seed", "7", "--json", str(p)]
        r = subprocess.run(cmd, capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append(p.read_bytes())
    assert outs[0] == outs[1]


def test_negative_max_degree_exit_two(capsys):
    assert main(["index", "s3-contact", "--max-degree", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--max-degree" in err


@pytest.mark.parametrize("argv, flags", [
    (["torus-zero", "--max-degree", "80", "--twist", "7"], ["--twist", "--max-degree"]),
    (["torus-zero", "--twist", "0"], ["--twist"]),
    (["torus-zero", "--max-degree", "20"], ["--max-degree"]),
    (["hopf", "--twist", "7"], ["--twist"]),
    (["s3-contact", "--twist", "7", "--max-degree", "3"], ["--twist"]),
])
def test_index_flag_the_example_does_not_read_exit_two(argv, flags, capsys):
    assert main(["index"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: example {argv[0]!r} does not read ")
    assert [f for f in ("--twist", "--max-degree") if f in captured.err] == flags


def test_torus_zero_report_has_no_max_degree(tmp_path, capsys):
    # torus-zero expands on its own windows, so the report names no other
    out = tmp_path / "torus-zero.json"
    assert main(["index", "torus-zero", "--json", str(out)]) == 0
    capsys.readouterr()
    assert "maxDegree" not in json.loads(out.read_text(encoding="utf-8"))


def test_encoding_error_leaves_an_existing_report_whole(tmp_path, monkeypatch, capsys):
    # the report is encoded before PATH is opened for writing
    out = tmp_path / "rep.json"
    old = b'{\n  "command": "index",\n  "model": "hopf"\n}\n'
    out.write_bytes(old)

    def broken(rep):
        raise ValueError("Circular reference detected")

    monkeypatch.setattr(cli, "report_to_json", broken)
    with pytest.raises(ValueError, match="Circular reference detected"):
        main(["index", "torus-zero", "--json", str(out)])
    capsys.readouterr()
    assert out.read_bytes() == old


# argv past a cap of its work -> its error line; each is refused before the
# work starts
CAP_ROWS = {
    # laurent.MAX_BOX_CELLS, on s3-contact's box and cp1-dolbeault's window
    "box-cells": (["s3-contact", "--max-degree", "250"],
                  "the box of radius 250 has 251001 cells, more than 250000"),
    # (2 * 10^10 + 1)^2 cells: more than a list can index
    "huge-box": (["s3-contact", "--max-degree", "10000000000"],
                 "the box of radius 10000000000 has 400000000040000000001 cells"),
    "twist-window": (["cp1-dolbeault", "--twist", "5000000"],
                     "the box of radius 5000002 has 10000005 cells, more than 250000"),
    "hopf-isotypes": (["hopf", "--max-degree", "99995"],
                      "hopf at max-degree 99995 has 100001 isotypes, more than 100000"),
    "branching-cells": (["cp1-l2", "--twist", "1", "--max-degree", "1666"],
                        "cp1-l2 at twist 1 and max-degree 1666 would expand 5001 cells, "
                        "more than 5000"),
    "huge-flag": (["hopf", "--max-degree", "9" * 4000],
                  "hopf at max-degree at least 10^40 has at least 10^40 isotypes"),
}


@pytest.mark.parametrize("case", sorted(CAP_ROWS))
def test_work_past_a_cap_exit_two(case, capsys):
    argv, message = CAP_ROWS[case]
    start = time.perf_counter()
    assert main(["index"] + argv) == 2
    assert time.perf_counter() - start < 0.5
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith(f"error: {message}") and cap.err.count("\n") == 1, cap.err


@pytest.mark.parametrize("argv", [["index", "x" * 3000],
                                  ["render", "hopf", "--frame", "x" * 3000],
                                  ["verify", "x" * 3000],
                                  ["verify", "s1-on-s1", "--" + "x" * 2998],
                                  ["render", "hopf", "--format", "y" * 3000],
                                  ["w" * 3000],
                                  ["render", "hopf", "--format=" + "y" * 3000],
                                  ["index", "hopf", "--max-degree", "x" * 3000]])
def test_long_argument_is_named_by_its_length_exit_two(argv, capsys):
    # an unknown example, a frame no model has, a file name too long to open;
    # then argparse's own errors: an unknown flag, a choice, a command, a
    # choice after "=", a flag value that is not an int
    assert main(argv) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1, cap.err
    assert "of 3000 characters" in cap.err and len(cap.err) < 200, cap.err


def test_render_unknown_frame_exit_two(capsys):
    assert main(["render", "hopf", "--frame", "nope"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.count("\n") == 1 and "--frame" in cap.err and "nope" in cap.err


def test_frame_trials_flag_is_unknown_exit_two(capsys):
    # the trial count is cli.FRAME_TRIALS, which the entry name carries
    assert main(["verify", "s1-on-s1", "--frame-trials", "3"]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == "error: unrecognized arguments: --frame-trials 3\n"
    rep = run_verify(load_builtin("s1-on-s1"))
    assert rep["frameTrials"] == cli.FRAME_TRIALS == 25
    assert "tau:frame-independence-25" in [r["check"] for r in rep["results"]]


def _statuses(rep):
    return {r["check"]: r["status"] for r in rep["results"]}


def _doubled(f):
    def doubled(*args):
        return f(*args).scaled(2)
    return doubled


def test_empty_frame_entries_see_injected_faults(monkeypatch):
    """cp1-dolbeault's frame triv has rank 0.  Its J and its Fourier integral
    come from the general code, through delta_0 of no arguments, so a fault
    in that code turns the entries that compare them to fail.  At rank 0 J
    is 1, so closedness only checks D(1) = 0: a differential that is the
    identity turns that entry, and no other, to fail."""
    m = load_builtin("cp1-dolbeault")
    statuses = _statuses(run_verify(m))
    assert set(statuses.values()) == {"pass"}
    with monkeypatch.context() as patch:
        patch.setattr(jform, "equivariant_differential", lambda a, m: a)
        assert _statuses(run_verify(m)) == dict(statuses, **{"triv:closedness": "fail"})
    with monkeypatch.context() as patch:
        patch.setattr(jform, "multiply", _doubled(jform.multiply))
        assert _statuses(run_verify(m))["triv:fourier-integral-identity"] == "fail"
    monkeypatch.setattr(genco, "normal_form", _doubled(genco.normal_form))
    assert _statuses(run_verify(m))["triv:fourier-integral-identity"] == "fail"


# fault -> (module, function, a map from that function to its faulty stand-in,
# the entry of each frame that the fault turns to fail)
VERIFY_FAULTS = {
    "rank-one-less": (linalg, "rank", lambda rank: lambda a: rank(a) - 1,
                      "transversality"),
    "no-absorption": (superalg, "_absorb",
                      lambda _: lambda coeff, dk, even_mono, m: (coeff, dk, even_mono),
                      "closedness"),
    "product-drops-last-factor": (jform, "product",
                                  lambda product: lambda factors, m:
                                  product(list(factors)[:-1], m),
                                  "frame-annihilation"),
    "det-doubled": (linalg, "det", lambda det: lambda a: 2 * det(a),
                    "frame-independence-25"),
    "exp-drops-last-piece": (genco, "graded_exp_pieces",
                             lambda pieces: lambda e, m: list(pieces(e, m))[:-1],
                             "fourier-integral-identity"),
}


@pytest.mark.parametrize("model", ["s3-contact", "hopf", "split-rank4", "s1-on-s1", "t2-on-t2"])
@pytest.mark.parametrize("fault", sorted(VERIFY_FAULTS))
def test_each_verify_entry_fails_under_its_fault(fault, model, monkeypatch):
    m = load_model(SPLIT_RANK4) if model == "split-rank4" else load_builtin(model)
    module, name, faulty, check = VERIFY_FAULTS[fault]
    entries = [f"{fid}:{check}" for fid in sorted(m.frames)]
    statuses = _statuses(run_verify(m))
    assert [statuses[e] for e in entries] == ["pass"] * len(entries)
    monkeypatch.setattr(module, name, faulty(getattr(module, name)))
    rep = run_verify(m)
    statuses = _statuses(rep)
    assert [statuses[e] for e in entries] == ["fail"] * len(entries)
    witnesses = [r.get("witness") for r in rep["results"] if r["check"] in entries]
    if fault == "det-doubled" and len(m.frames) == 1:
        # every trial fails, so the witness is the first draw of the seed-0 stream
        fr, = m.frames.values()
        assert witnesses == [{"trial": 0, "matrix": linalg.random_gl_plus(random.Random(0),
                                                                           fr.rank)}]
    # the element that should have been zero, computed under the same fault:
    # its term count and its first three terms.  The fault drops alpha_1 from
    # J, so the annihilation witness names slot 1 and alpha_1 J.
    nonzero = {"no-absorption": lambda fid, j: superalg.equivariant_differential(j, m),
               "product-drops-last-factor": lambda fid, j: superalg.multiply(
                   m.gen(m.frames[fid].alpha_slots[0]), j, m),
               "exp-drops-last-piece": lambda fid, j: superalg.add(
                   genco.fourier_fibre_integrate(m, fid), j.scaled(-1), m)}.get(fault)
    if nonzero is not None:
        slot = {"slot": 1} if fault == "product-drops-last-factor" else {}
        for fid, witness in zip(sorted(m.frames), witnesses):
            e = nonzero(fid, jform.j_form(m, fid))
            assert witness == {**slot, "terms": len(e.terms),
                               "first": render_element(superalg.Element(e.terms[:3]), m)}
            assert witness["terms"] > 0, witness


# fault -> (module, function, a map from that function to its faulty stand-in,
# {example: the entries of its default report that the fault turns to fail})
INDEX_FAULTS = {
    "orientation-negated": (
        charclass, "fixed_point_contribution",
        lambda contribution: lambda datum, nvars: contribution(
            datum._replace(orientation_sign=-datum.orientation_sign), nvars),
        {"cp1-dolbeault": ["sheaf-character-oracle"],
         "cp1-l2": ["frobenius-branching-oracle"],
         "s3-contact": ["contact-box-oracle"],
         # the torus is one orbit locus, so its comb changes sign too
         "torus-zero": ["rank1:regular-representation-window-50",
                        "rank2:regular-representation-window-20"]}),
    # charclass.orbit_comb builds every comb, torus-zero's and the circles'
    "comb-drops-negative-half": (
        charclass, "lattice_comb",
        lambda comb: lambda nvars, direction: RationalCharacter(
            nvars, comb(nvars, direction).terms[:1]),
        {"torus-zero": ["rank1:regular-representation-window-50",
                        "rank2:regular-representation-window-20"],
         "s3-contact": ["contact-box-oracle"]}),
    "taylor-drops-last-term": (
        characters, "taylor_expand_delta",
        lambda taylor: lambda e, frame_id, m: superalg.Element(
            taylor(e, frame_id, m).terms[:-1]),
        {"s3-contact": ["taylor-display-form"]}),
    "chern-weil-doubled": (
        characters, "chern_weil_pair",
        lambda pair: lambda m, frame_id, poly: pair(m, frame_id, poly).scaled(2),
        {"hopf": ["orbifold-multiplicities"]}),
}

INDEX_FAULT_CASES = sorted((fault, example) for fault, (*_, by_example) in INDEX_FAULTS.items()
                           for example in by_example)

_BOX_WITNESS = {"weights", "computed", "oracle"}
# fault -> {entry: the keys of the witness its failing entry carries}
INDEX_FAULT_WITNESSES = {
    "comb-drops-negative-half": {"rank1:regular-representation-window-50": _BOX_WITNESS,
                                 "rank2:regular-representation-window-20": _BOX_WITNESS,
                                 "contact-box-oracle": _BOX_WITNESS},
    "taylor-drops-last-term": {"taylor-display-form": {"terms", "first"}},
    "orientation-negated": {"sheaf-character-oracle": _BOX_WITNESS},
    "chern-weil-doubled": {"orbifold-multiplicities": _BOX_WITNESS},
}


def _check_witness(entry, keys):
    w = entry["witness"]
    assert set(w) == keys, entry
    if keys == _BOX_WITNESS:
        # the first mismatching weights, each with its two differing values
        assert 0 < len(w["weights"]) <= 10
        assert w["weights"] == sorted(w["weights"])
        assert len(w["computed"]) == len(w["oracle"]) == len(w["weights"])
        assert all(c != o for c, o in zip(w["computed"], w["oracle"]))
    else:
        assert w["terms"] > 0 and w["first"] not in ("", "0")


@pytest.mark.parametrize("fault, example", INDEX_FAULT_CASES)
def test_each_index_entry_fails_under_its_fault(fault, example, monkeypatch):
    module, name, faulty, by_example = INDEX_FAULTS[fault]
    entries = by_example[example]
    witnesses = {e: keys for e, keys in INDEX_FAULT_WITNESSES.get(fault, {}).items()
                 if e in entries}
    rep = run_index(example)
    statuses = _statuses(rep)
    assert [statuses[e] for e in entries] == ["pass"] * len(entries)
    # the witness is computed only on failure
    assert all("witness" not in r for r in rep["results"] if r["check"] in witnesses)
    monkeypatch.setattr(module, name, faulty(getattr(module, name)))
    rep = run_index(example)
    statuses = _statuses(rep)
    assert [statuses[e] for e in entries] == ["fail"] * len(entries)
    for r in rep["results"]:
        if r["check"] in witnesses:
            _check_witness(r, witnesses[r["check"]])


def test_taylor_display_witness_is_the_difference(monkeypatch):
    """Under taylor-drops-last-term the witness of taylor-display-form is the
    nonzero_witness of the faulty display less the expected one: the display
    that passes before the fault."""
    m = load_builtin("s3-contact")
    j = jform.j_form(m, "co")
    expected = genco.taylor_expand_delta(j, "co", m)
    module, name, faulty, _ = INDEX_FAULTS["taylor-drops-last-term"]
    monkeypatch.setattr(module, name, faulty(getattr(module, name)))
    display = characters.taylor_expand_delta(j, "co", m)
    witness, = [r["witness"] for r in run_index("s3-contact")["results"]
                if r["check"] == "taylor-display-form"]
    assert witness == nonzero_witness(superalg.add(display, expected.scaled(-1), m), m)


def test_branching_witness_names_the_first_ten_irreps(monkeypatch):
    """Under orientation-negated every V_m with the weight 0, m = 0, 2, .., 20,
    gets multiplicity -1: the witness names the first 10 of these 11."""
    module, name, faulty, _ = INDEX_FAULTS["orientation-negated"]
    monkeypatch.setattr(module, name, faulty(getattr(module, name)))
    witness, = [r["witness"] for r in run_index("cp1-l2")["results"]
                if r["check"] == "frobenius-branching-oracle"]
    assert witness == {"irreps": list(range(0, 20, 2)), "computed": [-1] * 10,
                       "oracle": [1] * 10}


def test_swapped_comb_samples_exit_two(monkeypatch, capsys):
    """The two s3-contact circles read each other's moment sample.  Each comb
    then runs along its locus's own normal weight, where its two halves step
    both ways along the normal factor's step: no common positivity functional
    exists, so the index stops with exit 2 before the oracle compares."""
    localize = characters.localize_index

    def swapped(loci, nvars):
        samples = [d.moment_sample for d in reversed(loci)]
        return localize([d._replace(moment_sample=s) for d, s in zip(loci, samples)], nvars)

    assert main(["index", "s3-contact", "--max-degree", "3"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(characters, "localize_index", swapped)
    assert main(["index", "s3-contact", "--max-degree", "3"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == ("error: declared expansion directions admit no common "
                       "positivity functional\n")


def test_index_faults_reach_every_entry_that_can_pass():
    reached = {(example, e) for *_, by_example in INDEX_FAULTS.values()
               for example, entries in by_example.items() for e in entries}
    for example in characters.EXAMPLES:
        for r in run_index(example)["results"]:
            if r["status"] != "skipped-out-of-scope":
                assert (example, r["check"]) in reached, (example, r["check"])


def test_environment_sets_no_window(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EQUIVAR_MAX_DEGREE", "24")
    out = tmp_path / "rep.json"
    assert main(["index", "hopf", "--json", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text(encoding="utf-8"))["maxDegree"] == 20


def test_verify_expands_display_once_per_frame(monkeypatch):
    frames = []
    taylor_expand_delta = genco.taylor_expand_delta

    def counted(e, frame_id, m):
        frames.append(frame_id)
        return taylor_expand_delta(e, frame_id, m)

    monkeypatch.setattr(genco, "taylor_expand_delta", counted)
    rep = run_verify(load_builtin("hopf"))
    assert report_status(rep) == "pass"
    assert frames == ["conn"]
    assert rep["rendered"] == {
        "conn": {"text": "psi*delta0(f[conn]) + psi*delta0^(1)(f[conn])*Psi"}}


def test_verify_builds_j_once_per_frame_without_inverse(monkeypatch):
    frames, inverses = [], []
    j_form, inverse = jform.j_form, linalg.inverse

    def counted_j(m, frame_id):
        frames.append(frame_id)
        return j_form(m, frame_id)

    def counted_inverse(a):
        inverses.append(a)
        return inverse(a)

    monkeypatch.setattr(jform, "j_form", counted_j)
    monkeypatch.setattr(cli, "j_form", counted_j)
    monkeypatch.setattr(linalg, "inverse", counted_inverse)
    rep = run_verify(load_builtin("t2-on-t2"), seed=5)
    assert report_status(rep) == "pass"
    assert frames == ["tau"]
    assert inverses == []


def test_verify_checks_transversality_once_per_frame(monkeypatch):
    ranks = []
    rank = linalg.rank

    def counted(a):
        ranks.append(a)
        return rank(a)

    monkeypatch.setattr(linalg, "rank", counted)
    m = load_builtin("t2-on-t2")
    rep = run_verify(m, seed=5)
    assert report_status(rep) == "pass"
    assert ranks == list(m.frames["tau"].moment_samples)


def test_s3_contact_small_degrees_pass(capsys):
    # the full-box oracle is exact at every radius, so no minimum window
    for n in ("0", "4"):
        assert main(["index", "s3-contact", "--max-degree", n]) == 0, n
        assert capsys.readouterr().out.strip().endswith("index s3-contact: pass"), n
    assert main(["index", "s3-contact", "--max-degree", "-1"]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.count("\n") == 1 and "--max-degree" in cap.err, cap.err


def test_render_command(capsys):
    assert main(["render", "t2-on-t2"]) == 0
    assert capsys.readouterr().out == "tau: -deta1*deta2*delta0(f[tau])\n"
    assert main(["render", "hopf", "--format", "latex", "--frame", "conn"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("conn: ") and "\\delta_0" in out


def test_index_all_examples_exit_zero(capsys):
    for name in ("torus-zero", "cp1-dolbeault", "cp1-l2", "hopf", "s3-contact"):
        assert main(["index", name]) == 0, name
    capsys.readouterr()


def test_index_report_round_trip():
    rep = run_index("s3-contact", max_degree=12)
    assert json.loads(report_to_json(rep)) == rep


def test_parser_built_once_per_process(tmp_path, capsys):
    # not at import: a fresh interpreter that imports the CLI builds nothing
    probe = "import equivar.cli as c; print(c._build_parser.cache_info().misses)"
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0 and r.stdout.strip() == "0", r.stderr
    cli._build_parser.cache_clear()
    bad_model = tmp_path / "flat-moment.json"
    bad_model.write_text(json.dumps(BAD_MOMENT_DOC), encoding="utf-8")
    assert main(["verify", "s1-on-s1", "--seed", "3"]) == 0
    assert main(["verify", str(bad_model)]) == 1
    assert main(["render", "hopf", "--format", "latex"]) == 0
    # the reused parser keeps no flag of an earlier call
    assert main(["index", "hopf", "--max-degree", "-1"]) == 2
    out = tmp_path / "rep.json"
    assert main(["index", "hopf", "--max-degree", "24", "--json", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["maxDegree"] == 24
    assert main(["index", "hopf", "--json", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["maxDegree"] == 20
    assert main(["verify", "s1-on-s1", "--no-such-flag"]) == 2
    assert main(["render", "s1-on-s1"]) == 0
    assert cli._build_parser.cache_info().misses == 1
    capsys.readouterr()
