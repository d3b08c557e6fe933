"""Golden-report lock: byte-exact --json reports for every example and built-in.

The report files under tests/golden/ were written by the CLI before the
expansion was rewritten, except verify-split-rank4.json, written before the
form sums were moved to a single accumulator, and verify-flat-moment.json,
written before the transversality pass was folded into j_form, and
index-hopf-deg0.json and index-hopf-deg160.json (the shortest and a long
isotype window), written before the Hopf multiplicities were computed as one
polynomial per run.  Ten index reports were rewritten when the report
entries that passed unconditionally were removed: index-torus-zero,
index-cp1-dolbeault (also -twist-3 and -twist5), index-hopf (also -deg0 and
-deg160) and index-s3-contact (also -deg80 and -deg160).  Each lost only its
integer-coefficients entry (the integrality gate raises instead, exit 2),
and the hopf reports also lost abelian-jacobian-unit and flat-a-hat-unit,
which evaluated empty products; every other byte, characters tables
included, is unchanged.  index-cp1-l2.json was rewritten when its two
oracle-only checks were replaced by frobenius-branching-oracle, which reads
the branching rows from the engine; its branching table is unchanged.  Six
index reports were rewritten when each example got one oracle comparison per
question: the three index-cp1-dolbeault reports lost highest-weight-character
and euler-characteristic, which sheaf-character-oracle implies, and in the
three index-s3-contact reports cr-quadrant-oracle, variable-exchange-symmetry
and mixed-cone-vanishing became one contact-box-oracle entry, which compares
the whole box; their characters tables are unchanged.  index-torus-zero.json
lost its maxDegree line when the report kept maxDegree only for an example
that reads the window; torus-zero expands on fixed windows.
index-s3-contact-deg0.json and -deg1.json (an empty negative quadrant and a
one-cell one) and index-cp1-l2-twist3-deg8.json and -twist-2-deg8.json
(branching rows read at cells other than weight 0) were written before the
index characters were kept as dense cell lists.  Twelve index reports were rewritten
when the index entries that repeated verify's J identities were removed:
index-torus-zero lost delta-class-shape, equivariantly-closed and
frame-annihilation of both ranks, the three index-cp1-dolbeault reports
empty-frame-unit and equivariantly-closed, and the three index-hopf and five
index-s3-contact reports equivariantly-closed; every other byte is
unchanged.  Each file is
regenerated in-process here and compared byte for byte.  The built-ins declare no split of rank above one,
so tests/golden/models/split-rank4.json (rank 4, dimension 14, written by
hand) locks the Taylor display form at higher rank.  tests/golden/models/flat-moment.json has a rank-0 moment
sample, so its report locks a failing transversality entry and its witness
(exit code 1).  tests/golden/models/frames-rank6.json (rank 6, dimension 8,
no split, with theta pairs and inert generators; perfbench's
genmodels.generate_model(37, 6, 8, False, "frames-rank6")) locks the frame
trials at the highest rank the benchmark verifies; its report was written
before the trials folded their wedge into one accumulator.  The seven
verify reports that render a frame (all but verify-flat-moment.json) lost
their "latex" line when a verify report kept only the text rendering;
`render --format latex` gives the LaTeX.  The reports are
also written under two hash seeds, one interpreter each, since set and dict
order of str keys follows the seed.  Any edit to a golden file is listed in
CHANGES.md with its reason.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import equivar
from equivar.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    **{f"index-{ex}.json": ["index", ex]
       for ex in ("torus-zero", "cp1-dolbeault", "cp1-l2", "hopf", "s3-contact")},
    "index-s3-contact-deg80.json": ["index", "s3-contact", "--max-degree", "80"],
    "index-s3-contact-deg160.json": ["index", "s3-contact", "--max-degree", "160"],
    "index-s3-contact-deg0.json": ["index", "s3-contact", "--max-degree", "0"],
    "index-s3-contact-deg1.json": ["index", "s3-contact", "--max-degree", "1"],
    "index-cp1-l2-twist3-deg8.json": ["index", "cp1-l2", "--twist", "3", "--max-degree", "8"],
    "index-cp1-l2-twist-2-deg8.json": ["index", "cp1-l2", "--twist", "-2", "--max-degree", "8"],
    "index-hopf-deg0.json": ["index", "hopf", "--max-degree", "0"],
    "index-hopf-deg160.json": ["index", "hopf", "--max-degree", "160"],
    "index-cp1-dolbeault-twist-3.json": ["index", "cp1-dolbeault", "--twist", "-3"],
    "index-cp1-dolbeault-twist5.json": ["index", "cp1-dolbeault", "--twist", "5"],
    **{f"verify-{b}.json": ["verify", b]
       for b in ("cp1-dolbeault", "hopf", "s1-on-s1", "s3-contact", "t2-on-t2")},
    "verify-split-rank4.json": ["verify", str(GOLDEN / "models" / "split-rank4.json")],
    "verify-flat-moment.json": ["verify", str(GOLDEN / "models" / "flat-moment.json")],
    "verify-frames-rank6.json": ["verify", str(GOLDEN / "models" / "frames-rank6.json")],
}
EXIT_CODES = {"verify-flat-moment.json": 1}


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(CASES[name] + ["--json", str(out)]) == EXIT_CODES.get(name, 0)
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# writes every CASES report into the directory argv[1], in one interpreter
_WRITE_ALL = """
import sys
from equivar.cli import main
from test_golden import CASES, EXIT_CODES
for name, argv in CASES.items():
    assert main(argv + ["--json", sys.argv[1] + "/" + name]) == EXIT_CODES.get(name, 0), name
"""


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    path = os.pathsep.join((str(Path(equivar.__file__).parents[1]), str(Path(__file__).parent)))
    written = {}
    for seed in ("0", "12345"):
        out = tmp_path / seed
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        r = subprocess.run([sys.executable, "-c", _WRITE_ALL, str(out)],
                           env=env, capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        written[seed] = {name: (out / name).read_bytes() for name in sorted(CASES)}
    assert written["0"] == written["12345"]
    assert written["0"] == {name: (GOLDEN / name).read_bytes() for name in sorted(CASES)}
