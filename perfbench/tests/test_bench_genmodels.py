import contextlib
import io
import json
from fractions import Fraction

import equivar.cli as cli
import genmodels
import workloads
from genmodels import generate_model, model_json


def test_same_seed_same_bytes():
    for split in (False, True):
        a = model_json(generate_model(7, 4, 12, split, "m"))
        b = model_json(generate_model(7, 4, 12, split, "m"))
        assert a == b


def test_seeds_differ():
    texts = {model_json(generate_model(s, 5, 8, False, "m")) for s in range(20)}
    assert len(texts) == 20


def test_job_lists_deterministic_by_seed():
    for wl in workloads.WORKLOADS.values():
        a = workloads.make_jobs(wl, 11, 2)
        assert a == workloads.make_jobs(wl, 11, 2)
        assert len(a) == 2 * wl.round_jobs
    frames = workloads.WORKLOADS["verify-frames"]
    assert workloads.make_jobs(frames, 11, 2) != workloads.make_jobs(frames, 12, 2)


def test_frame_shape():
    doc = generate_model(3, 3, 14, True, "m")
    frame = doc["frames"][0]
    assert doc["manifoldDim"] == 14
    assert frame["rank"] == 3 and len(frame["split"]) == 3
    assert {"F1", "F2", "F3"} <= {g["name"] for g in doc["generators"]}
    for sample in frame["momentSamples"]:
        assert genmodels.matrix_rank([[Fraction(x) for x in row] for row in sample]) == 3
    assert "split" not in generate_model(3, 3, 14, False, "m")["frames"][0]


def _verify(tmp_path, doc, seed):
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(model_json(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["verify", str(path), "--seed", str(seed), "--json", str(out)])
    return rc, json.loads(out.read_text(encoding="utf-8"))


def test_generated_models_verify_pass(tmp_path):
    """Every model of a round of both verify workloads passes every check."""
    for name in ("verify-frames", "verify-display"):
        for job in workloads.make_jobs(workloads.WORKLOADS[name], 0, 1):
            rc, rep = _verify(tmp_path, job.model, int(job.argv[3]))
            assert rc == 0, job.argv
            assert len(rep["results"]) == 5
            assert all(r["status"] == "pass" for r in rep["results"])


def test_theta_and_inert_blocks_verify_pass(tmp_path):
    """Small models with both optional blocks, with and without a split."""
    seen = 0
    for seed in range(40):
        doc = generate_model(seed, 2, 6, seed % 2 == 0, f"m{seed}")
        names = {g["name"] for g in doc["generators"]}
        if {"th0", "c0"} <= names:
            seen += 1
            assert doc["dTable"]["th0"].endswith("*w0")
            assert _verify(tmp_path, doc, seed)[0] == 0
    assert seen >= 4
