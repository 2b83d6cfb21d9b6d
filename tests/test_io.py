"""CSV bytes of the output writer: the per-value f-string format, and the table shape."""
import numpy as np
import pytest

from susypep.io import OutputWriter


def _reference_csv(header, columns):
    """The CSV text written one value at a time with ``f"{v:.17g}"``, one join per row."""
    rows = zip(*[np.asarray(col, dtype=float) for col in columns])
    lines = [",".join(header)]
    lines.extend(",".join(f"{val:.17g}" for val in row) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _written(tmp_path, header, columns):
    return OutputWriter(tmp_path).write_csv("t.csv", header, columns).read_bytes()


_TINY = np.finfo(float).smallest_subnormal
_EDGES = np.array([
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
    _TINY, -_TINY, 2 * _TINY, 12345 * _TINY, np.finfo(float).smallest_normal - _TINY,
    np.finfo(float).smallest_normal, np.finfo(float).max, -np.finfo(float).max,
    np.nextafter(1e16, 0.0), 1e16, np.nextafter(1e16, np.inf),
    np.nextafter(1e17, 0.0), 1e17, np.nextafter(1e17, np.inf),
    9007199254740993.0, 12345678901234567.0, 0.1, 1.0 / 3.0, -2.5e-300, 1.0, 100.0,
])


def test_edge_values_match_the_per_value_format(tmp_path):
    columns = [_EDGES, _EDGES[::-1]]
    text = _written(tmp_path, ["a", "b"], columns)
    assert text == _reference_csv(["a", "b"], columns)
    for field in [b"-0", b"nan", b"-inf", b"4.9406564584124654e-324", b"1.7976931348623157e+308",
                  b"10000000000000002", b"99999999999999984"]:
        assert field + b"," in text


def test_random_bit_patterns_match_the_per_value_format(tmp_path):
    bits = np.random.default_rng(17).integers(0, 2**64, size=100_000, dtype=np.uint64)
    columns = list(bits.view(np.float64).reshape(4, -1))
    header = ["w", "x", "y", "z"]
    assert _written(tmp_path, header, columns) == _reference_csv(header, columns)


@pytest.mark.parametrize("header, columns", [
    (["r", "u"], [np.empty(0), np.empty(0)]),
    (["r"], [np.linspace(0.01, 35.0, 3500)]),
    (["e"], [[1, 2, 3]]),
], ids=["zero-rows", "one-column", "one-list-column"])
def test_zero_row_and_one_column_tables_match_the_per_value_format(tmp_path, header, columns):
    assert _written(tmp_path, header, columns) == _reference_csv(header, columns)


@pytest.mark.parametrize("header, columns", [
    (["x", "y", "z"], [np.arange(3), np.arange(2)]),
    (["x", "y", "z"], [np.arange(3), np.arange(3)]),
    (["x"], [np.arange(3), np.arange(3)]),
    (["x", "y"], [np.arange(3), np.arange(4)]),
    (["x", "y"], [np.zeros((3, 2)), np.zeros((3, 2))]),
    ([], []),
], ids=["short-column-and-header", "header-too-long", "header-too-short", "long-column",
        "2-D-columns", "no-columns"])
def test_csv_shape_mismatch_raises_and_writes_nothing(tmp_path, header, columns):
    with pytest.raises(ValueError, match="header name per column|equal length"):
        OutputWriter(tmp_path).write_csv("t.csv", header, columns)
    assert not (tmp_path / "t.csv").exists()
