"""Model file parsing: expression grammar, schema checks, built-ins."""

import json
import re
import time
from fractions import Fraction
from importlib import resources

import pytest

from equivar import modelfile
from equivar.charclass import localize_index
from equivar.errors import InvariantViolation, ParseError, UnknownExample
from equivar.jform import j_form
from equivar.laurent import expand_to_degree
from equivar.modelfile import (
    builtin_names,
    load_builtin,
    load_model,
    loads_model,
    model_from_dict,
    parse_element,
    parse_rational,
)
from equivar.superalg import multiply, validate_model

F = Fraction


def test_parse_rational():
    assert parse_rational(5) == F(5)
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("+3/4") == F(3, 4)
    assert parse_rational("12") == F(12)
    with pytest.raises(ParseError):
        parse_rational("a/b")
    with pytest.raises(ParseError):
        parse_rational(1.5)


# strings that Fraction reads but the element grammar does not
@pytest.mark.parametrize("text", ["1e3", "0.5", " 3", "3 ", "1_000", "--3", "+-3", "3/-4",
                                  "1/2/3", "inf", "nan", ""])
def test_parse_rational_reads_only_the_element_grammar(text):
    with pytest.raises(ParseError, match=re.escape(f"bad rational literal {text!r} in base")):
        parse_rational(text, "in base")


def test_parse_rational_names_a_rejected_value_by_type_and_length():
    with pytest.raises(ParseError, match="^bad rational: list of length 3000 in frame 'tau'$"):
        parse_rational([1] * 3000, "in frame 'tau'")
    with pytest.raises(ParseError, match="^bad rational: dict of length 1 here$"):
        parse_rational({"a": 1}, "here")
    for v, shown in ((True, "bool True"), (None, "NoneType None"), (1.5, "float 1.5")):
        with pytest.raises(ParseError, match=f"^bad rational: {shown} here$"):
            parse_rational(v, "here")


def test_parse_element_products_and_sums():
    m = load_builtin("t2-on-t2")
    e = parse_element("3/2*X1^2*deta1", m)
    t = e.terms[0]
    assert t.coeff == F(3, 2)
    assert t.even_mono == (("X1", 2),)
    assert t.odd_mono == ("deta1",)

    s = parse_element("u1 - 2*u2 + X2*deta1*deta2", m)
    assert len(s.terms) == 3

    zero = parse_element("0", m)
    assert zero.is_zero()

    assert parse_element("u1^2", m) == multiply(m.gen("u1"), m.gen("u1"), m)


def test_parse_element_reports_column():
    m = load_builtin("t2-on-t2")
    with pytest.raises(ParseError) as exc:
        parse_element("u1 + $", m)
    assert exc.value.column is not None

    with pytest.raises(ParseError):
        parse_element("nosuchgen", m)
    with pytest.raises(ParseError):
        parse_element("u1^x", m)

    # a zero denominator is a bad literal too, at its own column
    with pytest.raises(ParseError, match="bad rational literal '1/0'") as exc:
        parse_element("u1 + 1/0*u2", m)
    assert exc.value.column == 5


def test_whitespace_is_scanned_in_linear_time():
    # a scanner that rescans trailing whitespace from each of its positions
    # takes about 10 s here; one pass takes about a millisecond
    m = load_builtin("t2-on-t2")
    src = "u1" + " " * 30000
    start = time.perf_counter()
    assert parse_element(src, m) == m.gen("u1")
    assert time.perf_counter() - start < 1
    with pytest.raises(ParseError, match="^unexpected character '\\$'$") as exc:
        parse_element(src + "$", m)
    assert exc.value.column == len(src)


def test_loads_model_bad_json_position():
    with pytest.raises(ParseError) as exc:
        loads_model('{\n  "name": oops\n}')
    assert exc.value.line == 2
    assert exc.value.column is not None

    with pytest.raises(ParseError):
        loads_model("[1, 2]")


def _s1_doc():
    return {
        "name": "s1-on-s1",
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
             "momentSamples": [[[-1]]], "split": ["0"]},
        ],
    }


def test_model_from_dict_minimal():
    m = model_from_dict(_s1_doc())
    assert m.manifold_dim == 1
    assert m.frames["tau"].rank == 1
    validate_model(m)


def _point_doc(dim, degree):
    return {"name": "point", "manifoldDim": dim, "parameters": [],
            "generators": [{"name": "c", "parity": "even", "formDegree": degree}]}


def test_dimension_and_degree_zero_load_and_minus_one_do_not():
    m = model_from_dict(_point_doc(0, 0))
    assert (m.manifold_dim, m.generators["c"].form_degree) == (0, 0)
    with pytest.raises(InvariantViolation, match="^negative manifold dimension -1$"):
        model_from_dict(_point_doc(-1, 0))
    with pytest.raises(InvariantViolation, match="^negative degree on 'c'$"):
        model_from_dict(_point_doc(0, -1))


def test_model_from_dict_rejects_frame_form_d_entry():
    doc = _s1_doc()
    doc["dTable"] = {"deta": "u1"}
    with pytest.raises(InvariantViolation):
        model_from_dict(doc)


def test_model_from_dict_rejects_closed_argument_image():
    doc = _s1_doc()
    doc["dTable"] = {"u1": "u1"}
    with pytest.raises(InvariantViolation):
        model_from_dict(doc)


def test_model_from_dict_rejects_unknown_kind():
    doc = _s1_doc()
    doc["generators"][0]["kind"] = "mystery"
    with pytest.raises(ParseError):
        model_from_dict(doc)


@pytest.mark.parametrize("field, message", [
    ("kind", "unknown kind 'mystery' on 'deta'"),
    ("kind", "unknown kind of 3000 characters on 'deta'"),
    ("parity", "bad parity 'mystery' on 'deta'"),
    ("parity", "bad parity of 3000 characters on 'deta'")])
def test_rejected_parity_and_kind_are_named_not_echoed_when_long(field, message):
    doc = _s1_doc()
    doc["generators"][0][field] = "mystery" if "'mystery'" in message else "x" * 3000
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        model_from_dict(doc)


def test_long_places_are_named_by_their_length():
    long = "x" * 3000
    with pytest.raises(ParseError, match="^bad type for 'manifoldDim' in a name of 3000 "
                                         "characters$"):
        model_from_dict({"name": long, "manifoldDim": "1"})
    with pytest.raises(ParseError, match="^duplicate key 'rank' in frame of 3000 characters$"):
        loads_model('{"frames": [{"frameId": "%s", "rank": 1, "rank": 2}]}' % long)
    with pytest.raises(ParseError, match="^duplicate key 'a' in a name of 3000 characters$"):
        loads_model('{"dTable": {"%s": {"a": 1, "a": 2}}}' % long)


def test_model_from_dict_rejects_missing_slot_form():
    doc = _s1_doc()
    doc["frames"][0]["slots"] = ["absent"]
    with pytest.raises(InvariantViolation):
        model_from_dict(doc)


def test_builtin_names_and_loading():
    names = builtin_names()
    assert set(names) == {
        "s1-on-s1", "t2-on-t2", "s3-contact", "hopf", "cp1-dolbeault"}
    for name in names:
        m = load_builtin(name)
        assert m.name == name
        validate_model(m)
    with pytest.raises(UnknownExample):
        load_builtin("klein-bottle")


def test_load_model_from_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_s1_doc()), encoding="utf-8")
    m = load_model(str(path))
    assert j_form(m, "tau") == multiply(m.gen("deta"), m.delta("tau"), m)


def test_fixed_locus_parsing():
    m = load_builtin("cp1-dolbeault")
    ids = sorted(d.locus_id for d in m.fixed_loci)
    assert ids == ["north", "south"]
    north = next(d for d in m.fixed_loci if d.locus_id == "north")
    assert north.tangent_weights == ((2,),)
    assert north.twist_weight == (1,)
    assert north.expansion_directions == (1,)

    ms3 = load_builtin("s3-contact")
    assert [d.locus_type for d in ms3.fixed_loci] == ["circle", "circle"]
    # the circles name samples 0 and 2 of frame co
    samples = ms3.frames["co"].moment_samples
    assert [d.moment_sample for d in ms3.fixed_loci] == [samples[0], samples[2]]
    assert [d.moment_sample for d in ms3.fixed_loci] == [((-1, 0),), ((0, -1),)]


def test_orientation_sign_is_an_int_numerator_coefficient():
    """JSON 1.0 and -1.0 pass the +-1 check; the parser stores them as int,
    so the numerator {twist: sign} keeps integer coefficients and every
    expanded coefficient is an int."""
    doc = json.loads(resources.files("equivar.models").joinpath("s3-contact.json")
                     .read_text(encoding="utf-8"))
    for locus in doc["fixedLoci"]:
        locus["orientationSign"] = 1.0
    m = model_from_dict(doc)
    assert all(type(d.orientation_sign) is int for d in m.fixed_loci)
    expected = expand_to_degree(localize_index(load_builtin("s3-contact").fixed_loci, 2), 4)
    assert expand_to_degree(localize_index(m.fixed_loci, 2), 4) == expected


@pytest.mark.parametrize("value", ["1", 1.0, "-1", -1.0])
def test_eval_loads_as_an_int_unit(value):
    """eval, given as a literal or a JSON number equal to +1 or -1, loads as
    that int; at +1 every locus expands as the built-in does."""
    doc = json.loads(resources.files("equivar.models").joinpath("s3-contact.json")
                     .read_text(encoding="utf-8"))
    for locus in doc["fixedLoci"]:
        for nw in locus["normalWeights"]:
            nw["eval"] = value
    m = model_from_dict(doc)
    evals = [c for d in m.fixed_loci for _, c in d.normal_weights]
    assert evals and all(type(c) is int and c == float(value) for c in evals)
    if float(value) == 1:
        expected = expand_to_degree(localize_index(load_builtin("s3-contact").fixed_loci, 2), 4)
        assert expand_to_degree(localize_index(m.fixed_loci, 2), 4) == expected


def test_base_data_parsing():
    m = load_builtin("hopf")
    assert m.base["tangentWeight"] == 2
    assert m.base["curvatureVolume"] == 1
    assert m.base["dimension"] == 2


def test_documents_without_repeats_look_at_no_value_twice(monkeypatch):
    """A hook searches its values for a handed-up repeat only while one is
    pending, so loading a document with no repeated key makes no such pass."""
    searched = []
    real_holds = modelfile._holds
    monkeypatch.setattr(modelfile, "_holds", lambda v, r: searched.append(v) or real_holds(v, r))
    for name in builtin_names():
        load_builtin(name)
    assert searched == []
    with pytest.raises(ParseError, match="duplicate key 'Psi' in dTable"):
        loads_model('{"name": 1, "dTable": {"Psi": "0", "Psi": "Psi"}}')
    assert searched
