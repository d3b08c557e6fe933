"""The layers the traced run splits time by, and the per-layer metrics.

Layers are the package modules on the CLI paths.  Each traced public
function reports `<module>.<func>.calls` and `<module>.<func>.self_s`; each
module reports `<module>.self_s` and `<module>.share` (its self time over
traced job time).  Size counters are read from arguments and return values.

superalg.add finalizes both operands on every call, so a sum built one piece
at a time re-sorts the whole running sum each step.  Its useful_ratio is the
smaller operand's terms (what merging into the larger one has to touch) over
all terms finalized; it falls as running sums grow.  terms_out over terms_in
would not show this: without cancellation both count the same terms.
"""

from spans import self_times

MODULES = ("cli", "modelfile", "superalg", "genco", "jform", "linalg",
           "laurent", "charclass", "characters", "report")


def _count(sizes, counter, n):
    sizes[counter] = sizes.get(counter, 0) + n


def _add_sizes(sizes, args, result):
    a, b = len(args[0].terms), len(args[1].terms)
    _count(sizes, "superalg.add.terms_in", a + b)
    _count(sizes, "superalg.add.terms_merged", min(a, b))
    _count(sizes, "superalg.add.terms_out", len(result.terms))


def _terms_out(counter):
    def hook(sizes, args, result):
        _count(sizes, counter, len(result.terms))
    return hook


def _points_out(sizes, args, result):
    _count(sizes, "laurent.expand_box.points_out", len(result))


# "module.func" -> size hook (or None)
FUNCTIONS = {
    "cli.run_verify": None,
    "cli.run_index": None,
    "modelfile.loads_model": None,
    "modelfile.parse_element": None,
    "superalg.multiply": _terms_out("superalg.multiply.terms_out"),
    "superalg.add": _add_sizes,
    "superalg.normal_form": None,
    "superalg.product": None,
    "superalg.equivariant_differential": None,
    "superalg.validate_model": None,
    "genco.delta_linear_substitute": None,
    "genco.taylor_expand_delta": _terms_out("genco.taylor_expand_delta.terms_out"),
    "genco.fourier_fibre_integrate": None,
    "genco.with_fibre_coordinates": None,
    "jform.j_form": None,
    "jform.check_closed": None,
    "jform.transformed_j_form": None,
    "jform.frame_change_compare": None,
    "linalg.det": None,
    "linalg.inverse": None,
    "linalg.rank": None,
    "laurent.expand_box": _points_out,
    "laurent.expand_to_degree": None,
    "charclass.fixed_point_contribution": None,
    "charclass.localize_index": None,
    "characters.run_pipeline": None,
    "report.render_frame_value": None,
    "report.report_to_json": None,
}

SIZE_COUNTERS = ("superalg.add.terms_in", "superalg.add.terms_merged",
                 "superalg.add.terms_out",
                 "superalg.multiply.terms_out", "genco.taylor_expand_delta.terms_out",
                 "laurent.expand_box.points_out")


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for mod in MODULES:
        units[f"{mod}.self_s"] = "s"
        units[f"{mod}.share"] = "ratio"
    for counter in SIZE_COUNTERS:
        units[counter] = "count"
    units["superalg.add.useful_ratio"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


def layer_values(recorder, traced_job_s, untraced_job_s):
    """Per-layer metric values of a finished traced run."""
    calls = [0] * len(recorder.names)
    own = [0.0] * len(recorder.names)
    for span, s in zip(recorder.spans, self_times(recorder.spans)):
        calls[span[0]] += 1
        own[span[0]] += s
    values = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for fid, name in enumerate(recorder.names):
        values[f"{name}.calls"] = calls[fid]
        values[f"{name}.self_s"] = own[fid]
        module_self[name.split(".", 1)[0]] += own[fid]
    for mod in MODULES:
        values[f"{mod}.self_s"] = module_self[mod]
        values[f"{mod}.share"] = module_self[mod] / traced_job_s
    for counter in SIZE_COUNTERS:
        values[counter] = recorder.sizes.get(counter, 0)
    terms_in = values["superalg.add.terms_in"]
    values["superalg.add.useful_ratio"] = (
        values["superalg.add.terms_merged"] / terms_in if terms_in else 0.0)
    values["trace.overhead"] = traced_job_s / untraced_job_s
    return values
