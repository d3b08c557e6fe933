import json
from pathlib import Path

import checks
import layers
import run
import workloads
from workloads import Job

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == \
        {w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.metric_units()
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


def test_enumerated_characters():
    assert checks.cp1_characters(0) == {0: 1}
    assert checks.cp1_characters(3) == {3: 1, 1: 1, -1: 1, -3: 1}
    assert checks.cp1_characters(-1) == {}
    assert checks.cp1_characters(-2) == {0: -1}
    assert checks.cp1_characters(-4) == {2: -1, 0: -1, -2: -1}
    table = checks.s3_table(1)
    assert table == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1, (-1, -1): -1}


def _report(chars, statuses=("pass",)):
    return {"results": [{"check": f"c{i}", "status": s} for i, s in enumerate(statuses)],
            "characters": [{"weight": w if isinstance(w, list) else [w], "coefficient": c}
                           for w, c in chars]}


def test_checks_reject_wrong_outputs():
    hopf = Job(("index", "hopf", "--max-degree", "3"), "hopf", 3)
    good = [(k, k + 1) for k in range(-5, 4)]
    assert checks.check_job(hopf, 0, _report(good)) is None
    assert checks.check_job(hopf, 1, _report(good)) is not None
    assert checks.check_job(hopf, 0, _report(good[:-1])) is not None
    assert checks.check_job(hopf, 0, _report(good[:-1] + [(3, 5)])) is not None
    assert checks.check_job(hopf, 0, _report(good, ("pass", "fail"))) is not None

    cp1 = Job(("index", "cp1-dolbeault", "--twist", "-3"), "cp1-dolbeault", -3)
    assert checks.check_job(cp1, 0, _report([(-1, -1), (1, -1)])) is None
    assert checks.check_job(cp1, 0, _report([(-1, 1), (1, 1)])) is not None

    s3 = Job(("index", "s3-contact"), "s3-contact")
    rows = [([a, b], c) for (a, b), c in sorted(checks.s3_table(2).items())]
    assert checks.check_job(s3, 0, _report(rows)) is None
    assert checks.check_job(s3, 0, _report(rows + [([2, -1], 1)])) is not None

    verify = Job(("verify", "m.json"), "verify", ("fr",))
    rep = {"results": [{"check": f"fr:{c}", "status": "pass"} for c in checks.FRAME_CHECKS]}
    assert checks.check_job(verify, 0, rep, ("fr",)) is None
    rep["results"].pop()
    assert checks.check_job(verify, 0, rep, ("fr",)) is not None
