"""Output checks computed by the benchmark itself.

None of them calls the package's own oracles: the expected characters come
from direct enumeration here.  check_job returns None when a job's exit code
and report are right, and a one-line reason otherwise.
"""

FRAME_CHECKS = ("transversality", "closedness", "frame-annihilation",
                "frame-independence-25", "fourier-integral-identity")


def cp1_characters(n):
    """Virtual character of the degree-n line bundle on the projective line:
    the Weyl string n, n-2, .., -n for n >= 0; for n < 0, minus one for each
    first-cohomology monomial x^a y^b with a, b <= -1, a + b = n (weight a - b)."""
    if n >= 0:
        return {w: 1 for w in range(n, -n - 1, -2)}
    return {2 * a - n: -1 for a in range(n + 1, 0)}


def s3_table(radius):
    """+1 on a, b >= 0, -1 on a, b <= -1, nothing elsewhere, on the box."""
    out = {}
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            if a >= 0 and b >= 0:
                out[(a, b)] = 1
            elif a <= -1 and b <= -1:
                out[(a, b)] = -1
    return out


def _chars(report):
    return {tuple(row["weight"]) if len(row["weight"]) > 1 else row["weight"][0]:
            row["coefficient"] for row in report.get("characters", ())}


def _verify(report, frame_ids):
    want = sorted(f"{fid}:{c}" for fid in frame_ids for c in FRAME_CHECKS)
    got = sorted(r["check"] for r in report["results"] if r["status"] == "pass")
    if got != want or len(report["results"]) != len(want):
        return f"verify entries {got} != five passes per frame {want}"
    return None


def _s3_contact(report):
    chars = _chars(report)
    radius = max((abs(x) for w in chars for x in w), default=0)
    if radius < 1 or chars != s3_table(radius):
        return f"s3-contact table differs from the monomial rule: {sorted(chars.items())}"
    return None


def _cp1(report, n):
    chars = _chars(report)
    if chars != cp1_characters(n):
        return f"cp1-dolbeault twist {n}: {sorted(chars.items())}"
    return None


def _hopf(report, max_degree):
    chars = _chars(report)
    lo = min(chars, default=1)
    if lo > 0 or sorted(chars) != list(range(lo, max_degree + 1)) \
            or any(c != k + 1 for k, c in chars.items()):
        return f"hopf multiplicities are not k+1 on [.., {max_degree}]: {sorted(chars.items())}"
    return None


def check_job(job, rc, report, frame_ids=None):
    """frame_ids: the frames of the verified model (verify jobs only)."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    statuses = {r["status"] for r in report["results"]}
    if "pass" not in statuses or not statuses <= {"pass", "skipped-out-of-scope"}:
        return f"result statuses {sorted(statuses)}"
    if job.check in ("verify", "verify-builtin"):
        return _verify(report, frame_ids)
    if job.check == "s3-contact":
        return _s3_contact(report)
    if job.check == "cp1-dolbeault":
        return _cp1(report, job.param)
    if job.check == "hopf":
        return _hopf(report, job.param)
    return None
