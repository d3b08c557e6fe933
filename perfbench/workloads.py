"""Seeded job lists of the four workloads.

A job is one CLI-equivalent call.  Each workload is built from rounds of a
fixed composition (strata of input size); the seed picks the exact sizes
within each stratum, the generated models and the order inside a round.  The
number of rounds depends only on --seconds, never on how fast the program
runs, so the sample count, and with it the tail percentile, stays the same
between two versions of the program.
"""

import random
from dataclasses import dataclass

from genmodels import generate_model

BUILTINS = ("cp1-dolbeault", "hopf", "s1-on-s1", "s3-contact", "t2-on-t2")
EXAMPLES = ("torus-zero", "cp1-dolbeault", "cp1-l2", "hopf", "s3-contact")


@dataclass(frozen=True)
class Job:
    argv: tuple              # CLI arguments; "--json PATH" is appended
    check: str               # output check, see checks.check_job
    param: object = None     # argument of the check
    model: dict | None = None  # generated model; argv[1] names its file


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    round_s: float           # seconds one round takes on the seed code
    round_jobs: int          # jobs in one round
    make_round: object       # (rng, first job index) -> list of Jobs


def _index_expand(rng, first):
    jobs = []
    for centre in (50, 70, 90, 110):
        deg = centre + rng.randint(-1, 1)
        jobs.append(Job(("index", "s3-contact", "--max-degree", str(deg)), "s3-contact"))
    return jobs


def _verify_jobs(rng, first, shapes, split, prefix):
    jobs = []
    for i, (rank, dim) in enumerate(shapes):
        name = f"{prefix}-{first + i:05d}"
        doc = generate_model(rng.getrandbits(32), rank, dim, split, name)
        jobs.append(Job(("verify", name + ".json", "--seed", str(rng.randrange(2 ** 31))),
                        "verify", (doc["frames"][0]["frameId"],), doc))
    return jobs


def _verify_frames(rng, first):
    shapes = [(rank, rank + rng.randint(0, 4)) for rank in (4, 5, 6)]
    return _verify_jobs(rng, first, shapes, False, "frames")


def _verify_display(rng, first):
    shapes = [(rank, dim) for rank in (3, 4) for dim in (12, 14, 16)]
    return _verify_jobs(rng, first, shapes, True, "display")


def _cli_small(rng, first):
    jobs = [Job(("verify", b), "verify-builtin", b) for b in BUILTINS]
    for ex in EXAMPLES:
        check, param = {"cp1-dolbeault": ("cp1-dolbeault", 0),
                        "hopf": ("hopf", 20),
                        "s3-contact": ("s3-contact", None)}.get(ex, ("statuses", None))
        jobs.append(Job(("index", ex), check, param))
    for n in range(-10, 11):
        jobs.append(Job(("index", "cp1-dolbeault", "--twist", str(n)), "cp1-dolbeault", n))
    for low in range(20, 160, 20):
        deg = low + rng.randint(0, 20)
        jobs.append(Job(("index", "hopf", "--max-degree", str(deg)), "hopf", deg))
    return jobs


WORKLOADS = {w.name: w for w in (
    Workload("index-expand",
             "index s3-contact at max-degree 49-111: Laurent expansion and Fraction "
             "arithmetic; moves laurent.*, charclass.*; superalg idle (ROADMAP item 2)",
             6.9, 4, _index_expand),
    Workload("verify-frames",
             "verify generated rank 4-6 frames, no split, 25 frame trials; moves "
             "jform.*, genco.delta_linear_substitute, linalg.*, superalg.multiply",
             0.44, 3, _verify_frames),
    Workload("verify-display",
             "verify generated rank 3-4 frames with a split, dim 12-16: Taylor display "
             "sums; moves superalg.add.*, genco.taylor_expand_delta.* (ROADMAP item 3)",
             4.7, 6, _verify_display),
    Workload("cli-small",
             "the ten default commands, cp1-dolbeault twists -10..10, hopf degree "
             "20-160: 1-70 ms jobs; moves modelfile.*, report.*, cli.*",
             0.55, 38, _cli_small),
)}


def rounds_for(workload, seconds, min_jobs=16):
    """Rounds that take about `seconds` on the seed code, but at least
    min_jobs jobs, so the tail percentile is p37 or higher."""
    rounds = max(1, round(seconds / workload.round_s))
    return max(rounds, -(-min_jobs // workload.round_jobs))


def make_jobs(workload, seed, rounds):
    """The job list: `rounds` rounds, each shuffled by the seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    jobs = []
    for _ in range(rounds):
        batch = workload.make_round(rng, len(jobs))
        rng.shuffle(batch)
        jobs.extend(batch)
    return jobs
