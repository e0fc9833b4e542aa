import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igci import (
    ConstantInputError,
    DataError,
    DimensionMismatchError,
    Direction,
    DomainError,
    EmptyManifestError,
    IgciError,
    LagAlignment,
    ParseError,
    SamplePair,
    TooFewRowsError,
    align_lag,
    evaluate_manifest,
    format_json_lines,
    format_tsv,
    load_manifest,
    load_pair,
    load_table,
    write_pair,
)
import igci.io
from igci.io import _parse_lines
from igci.simulation import substream


# ------------------------------------------------------------- table reading

def test_load_table_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("# header comment\n\n1 2\n3,4\n\n# trailing\n5\t6\n")
    table = load_table(p)
    assert table.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


def test_load_table_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("1 2\n3 4 5\n")
    with pytest.raises(ParseError, match=":2:"):
        load_table(p)
    p.write_text("1 2\n3 oops\n")
    with pytest.raises(ParseError, match=":2:"):
        load_table(p)


def test_load_table_comment_runs_to_the_end_of_its_line(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("1 2 # first\n3,4,# a trailing comma, then a comment\n5\t6#\n")
    assert load_table(p).tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


@pytest.mark.parametrize("row", ["0.1,,0.2", ",0.1,0.2", ","])
def test_load_table_empty_comma_field_is_an_error_naming_its_line(tmp_path, row):
    p = tmp_path / "gap.csv"
    p.write_text(f"# every row alike\n{row}\n{row}\n")
    with pytest.raises(ParseError, match=":2:"):
        load_table(p)


def test_load_table_empty_and_missing(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("# nothing here\n")
    with pytest.raises(TooFewRowsError):
        load_table(p)
    with pytest.raises(ParseError):
        load_table(tmp_path / "no_such_file.tsv")


def test_load_table_rejects_non_utf8_with_line_and_offset(tmp_path):
    p = tmp_path / "latin.tsv"
    for newline in (b"\n", b"\r\n", b"\r"):
        p.write_bytes(b"1 2" + newline + b"3 \xff4" + newline)
        offset = 5 + len(newline)
        with pytest.raises(ParseError, match=rf":2: not UTF-8 text \(byte 0xff at offset {offset}\)"):
            load_table(p)


_NUMBER_TOKENS = st.one_of(
    st.floats(width=64).map(lambda v: f"{v:.17g}"),
    st.floats(width=64).map(repr),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1e400", "-1e-400", "1_0", "1.", ".5"]),
)
_ODD_TOKENS = st.sampled_from(["#", "1#", "0x10", '"1"', "", "1d0", "\ufeff1"])


@st.composite
def _table_texts(draw):
    """Table text, well-formed or not, with either kind of separator."""
    width = draw(st.integers(1, 4))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    seps = st.sampled_from([" ", "\t", "  \t ", ",", ", "])
    sep = draw(seps)
    lines = []
    header = draw(st.sampled_from(["", "# x, y", "#x,y,z"]))  # commas in a header comment
    if header:
        lines.append(header)
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(
            st.sampled_from(["row"] * 6 + ["comment", "blank", "ragged", "odd", "mixed", "noted", "gap"])
        )
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "  # x, y", "#", "## a # b"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == "gap":  # a comma row with an empty field before its last value
            tokens = draw(st.lists(_NUMBER_TOKENS, min_size=width, max_size=width))
            tokens.insert(draw(st.integers(0, width - 1)), "")
            lines.append(draw(st.sampled_from([",", ", "])).join(tokens))
        else:
            n = draw(st.integers(1, 5)) if kind == "ragged" else width
            tokens = draw(st.lists(_NUMBER_TOKENS, min_size=n, max_size=n))
            if kind == "odd":
                tokens[draw(st.integers(0, n - 1))] = draw(_ODD_TOKENS)
            line = (draw(seps) if kind == "mixed" else sep).join(tokens)
            if kind == "noted":  # a data line with a trailing comment
                line += draw(st.sampled_from([" # note", "#", "\t# x, y", "#1 2"]))
            lines.append(line)
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def test_load_table_comment_commas_keep_the_whitespace_fast_path(tmp_path, monkeypatch):
    rows = "".join(f"{i} {i * i}\t{-i}\n" for i in range(50))
    plain = tmp_path / "plain.txt"
    plain.write_text(rows)
    headed = tmp_path / "headed.txt"
    headed.write_text("# x, x squared, -x\n\n" + rows.replace("7 49\t-7", "7 49\t-7  # a, b"))
    expected = load_table(plain)

    def refuse(path, text):
        raise AssertionError("the line parser was used")

    monkeypatch.setattr(igci.io, "_parse_lines", refuse)
    assert np.array_equal(load_table(headed), expected)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IgciError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(text=_table_texts())
def test_load_table_matches_the_line_parser(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "table.txt"
    path.write_bytes(text.encode("utf-8"))
    # read_text applies universal newlines, as the reader used to
    expected = _outcome(_parse_lines, path, path.read_text(encoding="utf-8"))
    got = _outcome(load_table, path)
    if isinstance(expected, tuple):
        assert isinstance(got, tuple) and got == expected
    else:
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == expected.shape
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


# -------------------------------------------------------------- pair round trip

def test_write_then_load_pair_is_bit_exact(tmp_path):
    rng = substream(101)
    x = np.concatenate([rng.standard_normal(200), [1e-17, -1e-17, 3.0]])
    y = np.concatenate([rng.random(200) * 1e6, [0.1 + 0.2, -0.0, 2.0 ** -40]])
    pair = SamplePair(x, y)
    path = tmp_path / "pair.tsv"
    write_pair(path, pair)
    loaded = load_pair(path)
    assert np.array_equal(loaded.x, pair.x)
    assert np.array_equal(loaded.y, pair.y)


def test_load_pair_column_selection(tmp_path):
    p = tmp_path / "three.tsv"
    p.write_text("1 10 100\n2 20 200\n3 30 300\n")
    pair = load_pair(p, x_col=0, y_col=2)
    assert pair.y.tolist() == [100.0, 200.0, 300.0]
    with pytest.raises(ParseError, match="column 3"):
        load_pair(p, x_col=0, y_col=3)


def test_load_pair_drops_non_finite_rows_with_warning(tmp_path):
    p = tmp_path / "gappy.tsv"
    p.write_text("1 1\nnan 2\n3 3\n4 inf\n5 5\n6 6\n")
    with pytest.warns(UserWarning, match="dropped 2 rows"):
        pair = load_pair(p)
    assert pair.x.tolist() == [1.0, 3.0, 5.0, 6.0]


def test_load_pair_too_few_usable_rows(tmp_path):
    p = tmp_path / "short.tsv"
    p.write_text("1 1\nnan 2\n3 3\n")
    with pytest.warns(UserWarning):
        with pytest.raises(TooFewRowsError):
            load_pair(p)


# -------------------------------------------------------------- lag alignment

def test_align_lag_recovers_shift():
    rng = substream(102)
    a = rng.standard_normal(200)
    b = np.roll(a, 5)  # b[i + 5] == a[i] away from the wrap
    found = align_lag(a, b, max_lag=10)
    assert found.lag == 5
    assert found.correlation >= 0.999
    assert found.overlap_length == 195
    flipped = align_lag(b, a, max_lag=10)
    assert flipped.lag == -5


def test_align_lag_zero_for_identical_series():
    rng = substream(103)
    a = rng.standard_normal(100)
    found = align_lag(a, a.copy(), max_lag=8)
    assert found.lag == 0
    assert found.correlation == pytest.approx(1.0, abs=1e-12)


def test_align_lag_tie_breaks_toward_smaller_signed_lag():
    # period-4 series: lags -2 and +2 both give exact correlation 1, and
    # no lag is anti-correlated as strongly
    a = np.tile([0.0, 1.0, 3.0, 1.0], 30)
    b = np.roll(a, 2)
    found = align_lag(a, b, max_lag=6)
    assert found.lag == -2
    assert found.correlation == pytest.approx(1.0, abs=1e-12)


def test_align_lag_maximizes_absolute_correlation():
    rng = substream(102)
    a = rng.standard_normal(200)
    found = align_lag(a, -np.roll(a, 5), max_lag=20)
    assert found.lag == 5
    assert found.correlation <= -0.999  # the sign is kept
    assert found.overlap_length == 195


def test_align_lag_breaks_absolute_ties_toward_smaller_signed_lag():
    # period-8 antiperiodic series: lag -2 gives r = -1 and lag +2 gives r = +1
    a = np.tile([0.0, 1.0, 3.0, 1.0, 0.0, -1.0, -3.0, -1.0], 12)
    b = np.roll(a, 2)
    assert float(np.corrcoef(a[2:], b[:-2])[0, 1]) == -1.0
    assert float(np.corrcoef(a[:-2], b[2:])[0, 1]) == 1.0
    found = align_lag(a, b, max_lag=6)
    assert (found.lag, found.correlation) == (-2, -1.0)


def _align_reference(a, b, max_lag):
    """The per-lag loop align_lag replaced, selecting by |r|."""
    best = None
    for lag in sorted(range(-max_lag, max_lag + 1), key=lambda L: (abs(L), L)):
        start = max(0, -lag)
        stop = min(a.size, b.size - lag)
        if stop - start < 3:
            continue
        seg_a = a[start:stop]
        seg_b = b[start + lag : stop + lag]
        if seg_a.std() == 0.0 or seg_b.std() == 0.0:
            continue
        corr = float(np.corrcoef(seg_a, seg_b)[0, 1])
        if best is None or abs(corr) > abs(best.correlation):
            best = LagAlignment(lag=lag, correlation=corr, overlap_length=stop - start)
    return best


def _series(kind, rng, n):
    if kind == "gaussian":
        return rng.standard_normal(n)
    if kind == "discrete":
        return rng.integers(0, 3, n).astype(np.float64)
    if kind == "stretches":
        values = rng.standard_normal(n)
        cut = rng.integers(0, n, 2)
        values[min(cut) : max(cut) + 1] = 0.1
        return values
    return 1e6 + np.cumsum(rng.standard_normal(n))  # random walk far from zero


@settings(max_examples=300, deadline=None)
@given(
    kinds=st.tuples(*[st.sampled_from(["gaussian", "discrete", "stretches", "walk"])] * 2),
    sizes=st.tuples(st.integers(3, 80), st.integers(3, 80)),
    lag_share=st.floats(0.0, 1.0),
    shift=st.integers(-10, 10),
    sign=st.sampled_from([1.0, -1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_align_lag_matches_per_lag_loop(kinds, sizes, lag_share, shift, sign, seed):
    rng = substream(seed)
    a = _series(kinds[0], rng, sizes[0])
    b = _series(kinds[1], rng, sizes[1])
    if kinds[0] == kinds[1]:
        b = sign * np.roll(np.resize(a, b.size), shift) + 0.1 * b
    max_lag = round(lag_share * (min(a.size, b.size) - 3))  # up to n - 3
    expected = _align_reference(a, b, max_lag)
    if expected is None:
        with pytest.raises(ConstantInputError):
            align_lag(a, b, max_lag)
        return
    found = align_lag(a, b, max_lag)
    assert (found.lag, found.overlap_length) == (expected.lag, expected.overlap_length)
    assert found.correlation == expected.correlation


def test_align_lag_guards():
    rng = substream(104)
    a = rng.standard_normal(20)
    with pytest.raises(TooFewRowsError):
        align_lag(a, a, max_lag=18)
    with pytest.raises(DomainError, match="max_lag must be nonnegative, got -1"):
        align_lag(a, a, max_lag=-1)
    with pytest.raises(DimensionMismatchError, match="series must be one-dimensional"):
        align_lag(a[None], a, max_lag=2)
    with pytest.raises(ConstantInputError):
        align_lag(a, np.ones(20), max_lag=2)


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_align_lag_scale_beyond_float64_is_a_data_error(scale):
    a = substream(107).standard_normal(101)
    b = np.roll(a, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"series ranges \[-.*\] and \[-.*\] are beyond"):
            align_lag(scale * a, scale * b, max_lag=10)


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
def test_align_lag_extreme_scales_that_float64_carries(scale):
    a = substream(107).standard_normal(101)
    b = np.roll(a, 3) + 0.1 * substream(108).standard_normal(101)
    expected = align_lag(a, b, max_lag=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = align_lag(scale * a, scale * b, max_lag=10)
    assert (found.lag, found.overlap_length) == (expected.lag, expected.overlap_length)
    assert found.correlation == pytest.approx(expected.correlation, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_align_lag_rejects_non_finite_values_before_the_fft_pass(monkeypatch, bad):
    def no_fft(*args):
        raise AssertionError("the FFT pass ran on non-finite input")

    monkeypatch.setattr(igci.io, "_candidate_lags", no_fft)
    a = substream(106).standard_normal(300)
    b = a.copy()
    b[17] = bad
    b[40] = bad
    with pytest.raises(DataError, match="series b has a non-finite value at row 17"):
        align_lag(a, b, max_lag=30)
    with pytest.raises(DataError, match="series a has a non-finite value at row 17"):
        align_lag(b, a, max_lag=30)


# ------------------------------------------------------------------ manifests

def _write_pair_file(path, seed: int, mechanism=np.cbrt, m: int = 400) -> None:
    x = substream(seed).random(m)
    write_pair(path, SamplePair(x, mechanism(x)))


def test_load_manifest_parsing(tmp_path):
    _write_pair_file(tmp_path / "p1.tsv", 105)
    _write_pair_file(tmp_path / "p2.tsv", 106)
    (tmp_path / "m.csv").write_text(
        "# id, path, x_col, y_col, truth, weight\n"
        "first, p1.tsv, 0, 1, X->Y, 2.5\n"
        "second, p2.tsv, 1, 0, ?\n"
        "third, p2.tsv, 0, 1\n"
    )
    manifest = load_manifest(tmp_path / "m.csv")
    assert len(manifest) == 3
    first, second, third = manifest
    assert first.truth is Direction.X_TO_Y and first.weight == 2.5
    assert first.path == (tmp_path / "p1.tsv").resolve()
    assert second.truth is None and (second.x_col, second.y_col) == (1, 0)
    assert third.weight == 1.0


@pytest.mark.parametrize(
    "line",
    [
        "only, three, fields\n",
        "a, p.tsv, 0, 1, sideways\n",
        "a, p.tsv, zero, 1\n",
        "a, p.tsv, 0, 1, x->y, -2\n",
        "a, p.tsv, 0, 1, x->y, 1, extra\n",
    ],
)
def test_load_manifest_rejects_malformed_rows(tmp_path, line):
    (tmp_path / "m.csv").write_text(line)
    with pytest.raises(ParseError):
        load_manifest(tmp_path / "m.csv")


def test_readme_manifest_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Manifests for `pairs`", 1)[1].split("```\n", 2)[1]
    (tmp_path / "m.csv").write_text(block)
    first, second = load_manifest(tmp_path / "m.csv")
    assert first.path == (tmp_path / "data" / "pair01.tsv").resolve()
    assert (first.x_col, first.y_col, first.truth, first.weight) == (0, 1, Direction.X_TO_Y, 1.0)
    assert (second.truth, second.weight) == (Direction.Y_TO_X, 2.0)


def test_load_manifest_empty(tmp_path):
    (tmp_path / "m.csv").write_text("# only a comment\n")
    with pytest.raises(EmptyManifestError):
        load_manifest(tmp_path / "m.csv")
    with pytest.raises(ParseError):
        load_manifest(tmp_path / "missing.csv")


def test_evaluate_manifest_clean_run(tmp_path):
    _write_pair_file(tmp_path / "p1.tsv", 107, np.cbrt)
    _write_pair_file(tmp_path / "p2.tsv", 108, np.sqrt)
    _write_pair_file(tmp_path / "p3.tsv", 109, lambda x: x ** 3)
    (tmp_path / "m.csv").write_text(
        "a, p1.tsv, 0, 1, x->y\n"
        "b, p2.tsv, 0, 1, x->y\n"
        "c, p3.tsv, 1, 0, y->x\n"  # columns swapped, truth flipped to match
        "d, p1.tsv, 0, 1, ?\n"
    )
    summary = evaluate_manifest(load_manifest(tmp_path / "m.csv"))
    assert summary.decisions_pct == 100.0
    assert summary.accuracy_pct == 100.0
    assert [r.entry.entry_id for r in summary.reports] == ["a", "b", "c", "d"]
    assert summary.reports[3].correct is None  # unknown truth never counts
    assert all(r.decided and r.error is None for r in summary.reports)


def test_evaluate_manifest_weights_and_errors(tmp_path):
    _write_pair_file(tmp_path / "p1.tsv", 110)
    (tmp_path / "tiny.tsv").write_text("1 1\n2 2\n")
    (tmp_path / "m.csv").write_text(
        "good, p1.tsv, 0, 1, x->y, 1\n"
        "bad_truth, p1.tsv, 0, 1, y->x, 3\n"
        "broken, tiny.tsv, 0, 1, x->y, 1\n"
    )
    summary = evaluate_manifest(load_manifest(tmp_path / "m.csv"))
    # weights: correct 1 of known 4; the unreadable entry decides nothing
    assert summary.accuracy_pct == pytest.approx(25.0, abs=1e-12)
    assert summary.decisions_pct == pytest.approx(100.0 * 4.0 / 5.0, abs=1e-12)
    broken = summary.reports[2]
    assert broken.report is None and "rows" in broken.error
    assert not broken.decided and broken.correct is None


def test_evaluate_manifest_order_invariance(tmp_path):
    for i in range(6):
        _write_pair_file(tmp_path / f"p{i}.tsv", 111 + i)
    lines = [f"e{i}, p{i}.tsv, 0, 1, x->y, {1.0 + 0.1 * i}\n" for i in range(6)]
    (tmp_path / "fwd.csv").write_text("".join(lines))
    (tmp_path / "rev.csv").write_text("".join(reversed(lines)))
    fwd = evaluate_manifest(load_manifest(tmp_path / "fwd.csv"))
    rev = evaluate_manifest(load_manifest(tmp_path / "rev.csv"))
    assert fwd.decisions_pct == rev.decisions_pct
    assert fwd.accuracy_pct == rev.accuracy_pct


# ------------------------------------------------------------------ renderers

def test_format_json_lines_is_key_order_independent():
    a = format_json_lines([{"b": 1, "a": 2.5}])
    b = format_json_lines([{"a": 2.5, "b": 1}])
    assert a == b == '{"a": 2.5, "b": 1}\n'


def test_format_tsv_layout():
    records = [
        {"record": "config", "m": 10, "flag": True},
        {"record": "cell", "row": "A", "value": 0.5, "note": None},
        {"record": "cell", "row": "B", "value": 1.0, "note": "x"},
    ]
    text = format_tsv(records)
    assert text == (
        "# m=10 flag=true\n"
        "row\tvalue\tnote\n"
        "A\t0.5\t\n"
        "B\t1.0\tx\n"
    )


def test_format_tsv_heads_each_layout():
    records = [
        {"record": "config", "seed": 1},
        {"record": "pair", "id": "a", "c_xy": 0.5},
        {"record": "pair", "id": "b", "c_xy": None},
        {"record": "summary", "entries": 2},
        {"record": "pair", "id": "c", "c_xy": 1.5},
    ]
    assert format_tsv(records) == (
        "# seed=1\n"
        "id\tc_xy\n"
        "a\t0.5\n"
        "b\t\n"
        "entries\n"
        "2\n"
        "id\tc_xy\n"
        "c\t1.5\n"
    )


def test_format_tsv_no_body():
    assert format_tsv([{"record": "config", "seed": 3}]) == "# seed=3\n"
