import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import colsel.io
from colsel import DomainError, ParseError, dumps_report, load_matrix, write_report
from colsel.pietsch import PietschFactorization


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_csv_identity(tmp_path):
    path = write(tmp_path, "i2.csv", "1,0\n0,1\n")
    assert np.allclose(load_matrix(path), np.eye(2))


def test_csv_whitespace_and_negatives(tmp_path):
    path = write(tmp_path, "m.csv", " 1.5 , -2e-1 \n 0, 3\n")
    assert np.allclose(load_matrix(path), [[1.5, -0.2], [0.0, 3.0]])


def test_csv_ragged_row(tmp_path):
    path = write(tmp_path, "ragged.csv", "1,2\n3\n")
    with pytest.raises(ParseError, match="line 2") as info:
        load_matrix(path)
    assert info.value.code == "ragged-row"
    assert info.value.line == 2


def test_csv_bad_token(tmp_path):
    path = write(tmp_path, "bad.csv", "1,2\n3,x\n")
    with pytest.raises(ParseError, match="line 2") as info:
        load_matrix(path)
    assert info.value.code == "bad-token"
    assert info.value.line == 2
    assert info.value.column == 2


def test_csv_empty_file(tmp_path):
    path = write(tmp_path, "empty.csv", "\n\n")
    with pytest.raises(ParseError) as info:
        load_matrix(path)
    assert info.value.code == "empty"


def test_undecodable_file_is_a_parse_error(tmp_path):
    # A UnicodeDecodeError once escaped the CLI with a traceback.
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"\xff1,0\n0,1\n")
    with pytest.raises(ParseError, match="latin1.csv: not UTF-8 text") as info:
        load_matrix(str(path))
    assert info.value.code == "encoding"


def test_matrix_market_array_column_major(tmp_path):
    text = "%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n"
    path = write(tmp_path, "i2.mtx", text)
    assert np.allclose(load_matrix(path), np.eye(2))

    text = "%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n6\n"
    path = write(tmp_path, "cm.mtx", text)
    assert np.allclose(load_matrix(path), [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])


def test_matrix_market_coordinate_general(tmp_path):
    text = (
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n"
        "2 2 2\n"
        "1 1 1.0\n"
        "2 2 1.0\n"
    )
    path = write(tmp_path, "coo.mtx", text)
    assert np.allclose(load_matrix(path), np.eye(2))


def test_matrix_market_coordinate_symmetric_mirrors(tmp_path):
    text = (
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "2 1 5.0\n"
        "3 3 1.0\n"
    )
    path = write(tmp_path, "sym.mtx", text)
    a = load_matrix(path)
    assert a[1, 0] == 5.0
    assert a[0, 1] == 5.0
    assert a[2, 2] == 1.0


def test_matrix_market_unsupported_qualifiers(tmp_path):
    cases = [
        "%%MatrixMarket matrix array complex general\n1 1\n1 0\n",
        "%%MatrixMarket matrix array real symmetric\n1 1\n1\n",
        "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n",
        "%%MatrixMarket matrix dense real general\n1 1\n1\n",
    ]
    for i, text in enumerate(cases):
        path = write(tmp_path, f"u{i}.mtx", text)
        with pytest.raises(ParseError) as info:
            load_matrix(path)
        assert info.value.code == "mm-unsupported"


def test_matrix_market_errors(tmp_path):
    array = "%%MatrixMarket matrix array real general\n"
    coordinate = "%%MatrixMarket matrix coordinate real general\n"
    cases = [  # text, code, line
        ("1 2\n3 4\n", "mm-header", 1),
        ("%%MatrixMarket tensor array real general\n1 1\n1\n", "mm-header", 1),
        (array + "% no size line\n", "mm-size", None),
        (coordinate + "2 2\n1 1 1.0\n", "mm-size", 2),
        (array + "0 2\n", "mm-size", 2),
        (array + "2 2\n1\n", "mm-count", None),
        (coordinate + "2 2 2\n1 1 1.0\n", "mm-count", None),
        (coordinate + "2 2 1\n3 1 1.0\n", "mm-entry", 3),
    ]
    for i, (text, code, line) in enumerate(cases):
        path = write(tmp_path, f"e{i}.mtx", text)
        with pytest.raises(ParseError) as info:
            load_matrix(path)
        assert (info.value.code, info.value.line) == (code, line), text


@pytest.mark.parametrize(
    "symmetry, body, code, line",
    [
        ("general", "2 2 2\n1 1 1.0\n1.5 2 2.0\n", "mm-index", 4),
        ("general", "2 2 2\n1 x 1.0\n2 2 2.0\n", "mm-index", 3),
        ("general", "2 2 2\n1 2 1.0\n1 2 5.0\n", "mm-duplicate", 4),
        ("symmetric", "2 2 3\n1 1 1.0\n2 1 3.0\n1 2 4.0\n", "mm-duplicate", 5),
    ],
)
def test_matrix_market_coordinate_strictness(tmp_path, symmetry, body, code, line):
    text = f"%%MatrixMarket matrix coordinate real {symmetry}\n" + body
    path = write(tmp_path, "strict.mtx", text)
    with pytest.raises(ParseError, match=f"line {line}") as info:
        load_matrix(path)
    assert info.value.code == code
    assert info.value.line == line


def test_size_guardrail(tmp_path):
    text = "%%MatrixMarket matrix coordinate real general\n4000 4000 1\n1 1 1.0\n"
    path = write(tmp_path, "big.mtx", text)
    with pytest.raises(DomainError, match="dense"):
        load_matrix(path)


def test_format_inference_and_override(tmp_path):
    text = "%%MatrixMarket matrix array real general\n1 1\n2\n"
    path = write(tmp_path, "weird.txt", text)
    with pytest.raises(ParseError):
        load_matrix(path)  # inferred csv chokes on the banner
    assert load_matrix(path, fmt="matrix-market")[0, 0] == 2.0


def test_dumps_report_shape():
    text = dumps_report({"b": 1, "a": [1.5, None, True], "c": "x"})
    assert text == '{"a": [1.5, null, true], "b": 1, "c": "x"}\n'


def test_dumps_report_float_round_trip():
    values = [0.1, 1 / 3, 2.0, -1e-17, 6.02e23, math.pi]
    text = dumps_report(values)
    parsed = json.loads(text)
    assert parsed == values
    assert text.endswith("\n")


def test_dumps_report_non_finite_becomes_null():
    assert dumps_report([math.inf, -math.inf, math.nan]) == "[null, null, null]\n"


def test_dumps_report_numpy_and_dataclass():
    fact = PietschFactorization(
        d=np.array([1.0, 0.0]),
        t=np.eye(2),
        alpha_effective=np.float64(2.0),
        eta=-0.5,
        reconstruction_residual=0.0,
        t_norm=1.0,
    )
    parsed = json.loads(dumps_report(fact))
    assert parsed["d"] == [1.0, 0.0]
    assert parsed["t"] == [[1.0, 0.0], [0.0, 1.0]]
    assert parsed["alpha_effective"] == 2.0

    @dataclasses.dataclass
    class Outer:
        inner: PietschFactorization
        pair: tuple

    report = {
        "outer": Outer(fact, (np.int64(3), np.bool_(True), np.float32(0.5))),
        10: "ten",
        9: np.bool_(False),
        "n": np.int64(-7),
    }
    text = dumps_report(report)
    # Keys sort as strings, so "10" comes before "9".
    assert text.index('"10"') < text.index('"9"')
    assert text.startswith('{"10": "ten", "9": false, "n": -7, "outer": {"inner": {')
    assert '"pair": [3, true, 0.5]' in text
    assert json.loads(text)["outer"]["inner"] == parsed


def test_dumps_report_deterministic():
    report = {"x": math.sqrt(2), "y": [1, 2, 3], "z": {"k": 0.1}}
    assert dumps_report(report) == dumps_report(report)


@dataclasses.dataclass
class _Record:
    name: str
    value: object


def _expected(x):
    """What a report of ``x`` reads back as, converted without ``colsel``."""
    if isinstance(x, np.ndarray):
        return _expected(x[()]) if x.ndim == 0 else [_expected(v) for v in x]
    if isinstance(x, np.generic):
        return _expected(x.item())
    if isinstance(x, float):
        return None if x != x or abs(x) == math.inf else x
    if isinstance(x, (list, tuple)):
        return [_expected(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _expected(v) for k, v in x.items()}
    if isinstance(x, _Record):
        return {k: _expected(v) for k, v in vars(x).items()}
    return x


def _assert_same(got, want):
    # Bit for bit, and bool, int and float apart (True == 1 == 1.0 in Python).
    assert type(got) is type(want), (got, want)
    if isinstance(want, dict):
        assert list(got) == sorted(want)
        for k in want:
            _assert_same(got[k], want[k])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(want, float):
        assert got.hex() == want.hex()
    else:
        assert got == want


_REPORT_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=5),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)),
)
_REPORTS = st.recursive(
    _REPORT_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers(-3, 3)), children,
                        max_size=4),
        st.builds(_Record, st.text(max_size=3), children),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(report=_REPORTS)
@example(report={"b": [math.nan, -math.inf, 0.1], 10: np.array([[1.5, math.inf]]), "9": ()})
@example(report={1: "int key", "1": "str key"})
def test_dumps_report_is_json_of_the_plain_report(report):
    text = dumps_report(report)
    # json.loads keeps the text's key order, which _assert_same holds sorted.
    _assert_same(json.loads(text), _expected(report))
    assert text.endswith("\n") and text.count("\n") == 1
    assert dumps_report(json.loads(text)) == text


def test_write_report_file_and_newline(tmp_path):
    target = tmp_path / "out.json"
    write_report({"a": 1}, str(target))
    assert target.read_text() == '{"a": 1}\n'


def test_write_report_error_names_path(tmp_path):
    bad = tmp_path / "missing-dir" / "out.json"
    with pytest.raises(OSError, match="missing-dir"):
        write_report({"a": 1}, str(bad))


def _token_loop(text):
    """A per-token CSV parser from the module's number grammar and fault
    finder, with the fast path's empty check."""
    lines = text.splitlines()
    rows = [line.split(",") for line in lines if line.strip()]
    if not rows:
        raise ParseError("no rows", code="empty")
    colsel.io._csv_fault(lines, "m.csv")
    return np.array([[colsel.io._number(tok) for tok in row] for row in rows], dtype=float)


def _outcome(parse, text):
    try:
        a = parse(text)
    except ParseError as exc:
        return exc.code, exc.line, exc.column
    return a.shape, a.tobytes()


_TOKENS = st.one_of(
    st.floats().map(lambda v: format(v, ".17g")),
    st.sampled_from(
        ["1_0", "", " 2 ", "-0", "nan", "-inf", "Infinity", "+1.5", ".5", "5.",
         "1e400", "x", "0x10", "1 2", "3\x0c", "\x1c4", "5\x85", "\u2028", "6\r",
         "1e5_0", "\u0663", "\xa07", "8\u3000"]
    ),
)
_LINES = st.one_of(
    st.lists(_TOKENS, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", "   "]),
)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(_LINES, max_size=6),
    end=st.sampled_from(["", "\n", "\r\n"]),
    sep=st.sampled_from(["\n", "\r\n"]),
)
@example(lines=["1_0,2", "3,4"], end="\n", sep="\n")
@example(lines=["1,2", "", "3"], end="", sep="\n")
@example(lines=["1\x1c,2"], end="", sep="\n")
def test_csv_fast_path_matches_the_token_loop(lines, end, sep):
    # np.loadtxt must give the loop's bits, or refuse with the loop's errors:
    # the two read one number grammar.
    text = sep.join(lines) + end
    expected = _outcome(_token_loop, text)
    assert _outcome(lambda t: colsel.io._parse_csv(t, "m.csv"), text) == expected


@pytest.mark.parametrize("token", ["1e5_0", "1_0", "٣"])
def test_csv_refuses_what_loadtxt_refuses(tmp_path, token):
    # float() takes underscores and non-ASCII digits; the CSV grammar does not.
    path = write(tmp_path, "grammar.csv", f"1,2\n3,{token}\n")
    with pytest.raises(ParseError, match="line 2") as info:
        load_matrix(path)
    assert info.value.code == "bad-token"
    assert (info.value.line, info.value.column) == (2, 2)


def test_csv_whitespace_only_line_is_skipped(tmp_path):
    path = write(tmp_path, "blank.csv", "1,2\n   \n3,4\n")
    assert np.array_equal(load_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_fault_after_a_whitespace_only_line_names_its_line(tmp_path):
    path = write(tmp_path, "blank.csv", "1,2\n \t\n3\n")
    with pytest.raises(ParseError) as info:
        load_matrix(path)
    assert (info.value.code, info.value.line) == ("ragged-row", 3)


@pytest.mark.parametrize("body, line", [("1 x\n2 7 9\n", 3), ("1\n2 7 9\n", 4)])
def test_matrix_market_array_line_holds_one_value(tmp_path, body, line):
    # Trailing tokens were once dropped: this file loaded as [[1], [2]].
    path = write(tmp_path, "array.mtx", "%%MatrixMarket matrix array real general\n2 1\n" + body)
    with pytest.raises(ParseError, match=f"line {line}") as info:
        load_matrix(path)
    assert (info.value.code, info.value.line) == ("mm-entry", line)


@pytest.mark.parametrize("token", ["1_0", "٣"])
def test_matrix_market_values_read_the_csv_grammar(tmp_path, token):
    text = f"%%MatrixMarket matrix array real general\n2 1\n1\n{token}\n"
    path = write(tmp_path, "grammar.mtx", text)
    with pytest.raises(ParseError, match="line 4") as info:
        load_matrix(path)
    assert (info.value.code, info.value.line) == ("bad-token", 4)
