import sys

import pytest

import equivar  # noqa: F401  (loads every module of the package)
import layers
import spans
from equivar import modelfile, superalg
from equivar.modelfile import load_builtin
from run import tail_percentile


def _snapshot():
    return {(mod.__name__, attr): value
            for mod in spans.package_modules("equivar")
            for attr, value in vars(mod).items()}


def test_self_time_subtracts_child_coverage():
    # fid 0 = product, fid 1 = multiply; the second product nests a product
    s = [
        [0, 0.0, 10.0, -1, 0],   # 0: product
        [1, 1.0, 3.0, 0, 0],     # 1: multiply under 0
        [1, 4.0, 5.0, 0, 0],     # 2: multiply under 0
        [0, 6.0, 9.0, 0, 0],     # 3: product under product
        [1, 6.5, 8.0, 3, 0],     # 4: multiply under 3
    ]
    assert spans.self_times(s) == pytest.approx([4.0, 2.0, 1.0, 1.5, 1.5])


def test_self_time_merges_and_clips_children():
    s = [
        [0, 0.0, 10.0, -1, 0],
        [1, -1.0, 2.0, 0, 0],    # starts before the parent: clipped to 2
        [1, 1.0, 4.0, 0, 0],     # overlaps the previous child: union is [0, 4]
        [1, 9.0, 12.0, 0, 0],    # ends after the parent: clipped to 1
    ]
    assert spans.self_times(s)[0] == pytest.approx(5.0)


def test_traced_product_and_multiply():
    m = load_builtin("t2-on-t2")
    rec = spans.Recorder()
    reb = spans.Rebinding(rec, {"superalg.product": None, "superalg.multiply": None},
                          "equivar")
    factors = [m.gen("deta2"), m.gen("deta1"), m.delta("tau")]
    with reb.installed():
        superalg.product(factors, m)
    names = [rec.names[s[0]] for s in rec.spans]
    assert names == ["superalg.product"] + ["superalg.multiply"] * 3
    assert all(s[spans.PARENT] == 0 for s in rec.spans[1:])
    own = spans.self_times(rec.spans)
    top = rec.spans[0]
    children = sum(s[spans.END] - s[spans.START] for s in rec.spans[1:])
    assert own[0] == pytest.approx(top[spans.END] - top[spans.START] - children)
    values = layers.layer_values(rec, 1.0, 1.0)
    assert values["superalg.product.calls"] == 1
    assert values["superalg.multiply.calls"] == 3


def test_rebinding_restores_every_attribute():
    before = _snapshot()
    rec = spans.Recorder()
    reb = spans.Rebinding(rec, layers.FUNCTIONS, "equivar")
    with pytest.raises(RuntimeError):
        with reb.installed():
            assert modelfile.add is not before[("equivar.superalg", "add")]
            assert modelfile.add is superalg.add is sys.modules["equivar"].add
            raise RuntimeError("leave the block early")
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert rec.spans == []


def test_size_counters():
    m = load_builtin("t2-on-t2")
    rec = spans.Recorder()
    reb = spans.Rebinding(rec, layers.FUNCTIONS, "equivar")
    a = m.gen("deta1")
    b = superalg.add(m.gen("deta2"), m.gen("u1"), m)
    with reb.installed():
        superalg.add(a, b, m)
    values = layers.layer_values(rec, 1.0, 1.0)
    assert values["superalg.add.terms_in"] == 3
    assert values["superalg.add.terms_merged"] == 1
    assert values["superalg.add.terms_out"] == 3
    assert values["superalg.add.useful_ratio"] == pytest.approx(1 / 3)


@pytest.mark.parametrize("n, p, rank", [
    (11, 9, 1),       # ceil(0.09 * 11) = 1 leaves 10 above
    (12, 16, 2),
    (20, 50, 10),
    (100, 90, 90),
    (152, 93, 142),
    (1000, 99, 990),
])
def test_tail_percentile_rule(n, p, rank):
    samples = [float(i) for i in range(n, 0, -1)]
    got_p, value = tail_percentile(samples)
    assert got_p == p
    assert value == float(rank)
    assert sum(1 for x in samples if x > value) >= 10
    # one percentile higher would leave fewer than ten samples above
    above = n - -(-(p + 1) * n // 100)
    assert p == 99 or above < 10


def test_tail_percentile_needs_eleven_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)
