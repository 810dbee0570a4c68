"""Property checks of the command line boundary, driving ``main`` in-process on inputs that hypothesis draws.

Whatever the input, ``main`` returns 0, 2 or 3, nothing escapes but
argparse's ``SystemExit(2)``, no RuntimeWarning is raised, and an exit-2
message names the experiment, the file, or the field or option at fault.
The inputs are JSON grids of small valid cells (at most 5 replications,
b at most 20 and 60 values) mutated by type swaps, booleans, strings,
NaN and infinities, nesting, huge integers, and missing or unknown keys,
and option values for ``test``, ``simulate`` and ``critical``.  Huge
integers start at 2**40, so a size, a b or a draw count either stays in
the small range or is refused: nothing large is drawn.  The data CSVs
of ``test`` are a small valid file mutated in its header, quoting, byte
order mark, bytes, blank lines, values and groups; a fault in one of
its rows is named by ``path:line``.
"""

import contextlib
import io
import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivar import ALL_METHODS, Distribution
from equivar.cli import main

BOUNDARY = settings(derandomize=True, max_examples=200, deadline=None, database=None)

HUGE = st.integers(2**40, 2**80)
JUNK = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, -1.0, 2.0, 1e-17, 5e-324]),
    st.integers(-3, 3),
    HUGE,
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.sampled_from(["a", "levene"]), st.integers(0, 3), max_size=1),
)
# left out, these take the library defaults, 1000 replications of 500 resamples
_KEPT = ("replications", "bootstrap_b")

DATA_CSV = "group,value\n" + "".join(f"{g},{v}\n" for g in "ab" for v in (0.1, -0.3, 0.5, 1.2, -0.9, 0.7, 0.2))


@st.composite
def cells(draw):
    """A valid cell of 2-4 groups, mutated at up to two places."""
    k = draw(st.integers(2, 4))
    cell = {
        "distribution": draw(st.sampled_from([d.value for d in Distribution])),
        "sizes": draw(st.lists(st.integers(2, 15), min_size=k, max_size=k)),
        "variances": draw(st.lists(st.sampled_from([1, 1.0, 2.5, 1e-3]), min_size=k, max_size=k)),
        "alpha": draw(st.sampled_from([0.05, 0.5, 1.0])),
        "replications": draw(st.integers(1, 5)),
        "bootstrap_b": draw(st.integers(1, 20)),
        "seed": draw(st.integers(0, 2**64)),
        "tests": draw(st.lists(st.sampled_from(ALL_METHODS), min_size=1, max_size=4, unique=True)),
    }
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(cell)))
        action = draw(st.sampled_from(["value", "item", "huge", "drop", "unknown"]))
        if action == "value":
            cell[key] = draw(JUNK)
        elif action == "item" and isinstance(cell[key], list) and cell[key]:
            cell[key][draw(st.integers(0, len(cell[key]) - 1))] = draw(JUNK)
        elif action == "huge":
            field = draw(st.sampled_from(["sizes", "bootstrap_b"]))
            if field == "sizes" and isinstance(cell.get("sizes"), list) and cell["sizes"]:
                cell["sizes"][0] = draw(HUGE)
            else:
                cell["bootstrap_b"] = draw(HUGE)
        elif action == "drop" and key not in _KEPT:
            del cell[key]
        elif action == "unknown":
            cell[draw(st.sampled_from(["level", "b", "Sizes"]))] = draw(JUNK)
    return cell


grids = st.one_of(st.lists(cells(), min_size=1, max_size=2), cells(), st.lists(JUNK, max_size=2))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("boundary")
    (path / "data.csv").write_text(DATA_CSV)
    cell = {"distribution": "normal", "sizes": [6, 6], "variances": [1, 2], "replications": 4, "bootstrap_b": 10}
    (path / "cell.json").write_text(json.dumps(cell))
    return path


def _run(argv) -> tuple[int, str]:
    """``main(argv)``'s return code and stderr; argparse's exit counts as its code, 2, and nothing else may escape."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, exc.code)
            assert "argument --" in err.getvalue(), (argv, err.getvalue())
            code = 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (argv, [str(w.message) for w in caught])
    assert code in (0, 2, 3), (argv, code)
    return code, err.getvalue()


@BOUNDARY
@given(grid=grids)
def test_any_grid_exits_0_2_or_3_naming_the_experiment(workdir, grid):
    path = workdir / "grid.json"
    path.write_text(json.dumps(grid))
    code, err = _run(["simulate", str(path)])
    if code == 2:
        assert "experiment " in err or str(path) in err, (grid, err)


ALPHAS = st.one_of(
    st.sampled_from(["0.05", "1", "0", "-0.1", "1.5", "nan", "inf", "-inf", "1e-17", "1e-4", "5e-324", "x", ""]),
    st.floats(0.0, 1.0).map(repr),
)
SEEDS = st.one_of(st.integers(0, 2**70).map(str), st.sampled_from(["-1", "1.5", "x", ""]))


def _counts(valid):
    return st.one_of(valid.map(str), st.sampled_from(["0", "-1", "2.5", "x", ""]), HUGE.map(str))


def _options(draw, options: dict) -> list[str]:
    """Each of ``options``, a flag and its strategy, with a drawn value or left out."""
    argv = []
    for flag, values in options.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@BOUNDARY
@given(data=st.data())
def test_any_option_values_exit_0_2_or_3_naming_the_option(workdir, data):
    command = data.draw(st.sampled_from(["test", "simulate", "critical"]))
    if command == "test":
        # --bootstrap-b is always given, as its default of 500 is past the bound on the work
        argv = ["test", str(workdir / "data.csv"), "--bootstrap-b", data.draw(_counts(st.integers(1, 20)))]
        argv += _options(data.draw, {"--alpha": ALPHAS, "--seed": SEEDS})
        names = ["alpha", "--bootstrap-b", "seed", str(workdir / "data.csv")]
    elif command == "simulate":
        argv = ["simulate", str(workdir / "cell.json")] + _options(data.draw, {"--threads": _counts(st.integers(1, 3))})
        names = ["threads", str(workdir / "cell.json")]
    else:
        # likewise --draws, whose default is 200000
        argv = ["critical", "--sizes", data.draw(st.sampled_from(["3,3", "10,10,10", "10"])),
                "--draws", data.draw(_counts(st.just(1000)))]
        argv += _options(data.draw, {"--alpha": ALPHAS, "--seed": SEEDS})
        names = ["alpha", "draws", "seed", "sizes"]
    code, err = _run(argv)
    if code == 2:
        assert any(name in err for name in names), (argv, err)


HEADERS = ["group,value", " group , value ", '"group","value"', "Group,Value", "value,group", "group;value",
           "group,value,extra", "group", ""]
VALUES = ["1e308", "-1e308", "1e309", "5e-324", "-5e-324", "0", "nan", "x", "", " 1.5 ", '"0,5"']
LINES = ['"a","0.25"', '"a', '"a\nb",1', "a,1,2", "", "   ", ","]
BYTES = [b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\x00"]
# the messages of a fault in one row, each of which names its line
ROW_FAULTS = ("is not a number", "is not finite", "expected 2 fields", "line contains NUL", "unexpected end of data")


@st.composite
def csv_texts(draw) -> bytes:
    """``DATA_CSV`` with up to three row mutations, a BOM, a foreign byte and CRLF line ends, each drawn."""
    rows = [line.split(",") for line in DATA_CSV.splitlines()[1:]]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        action = draw(st.sampled_from(["value", "line", "single", "lone"]))
        if action == "value" and len(rows[i]) == 2:
            rows[i][1] = draw(st.sampled_from(VALUES))
        elif action == "line":  # quoting, a quoted line break, a third field, blank lines
            rows.insert(i, [draw(st.sampled_from(LINES))])
        elif action == "single":  # a group of one value
            rows.append(["c", "0.5"])
        else:  # a lone group
            rows = [["a", row[-1]] for row in rows]
    header = draw(st.one_of(st.just(HEADERS[0]), st.sampled_from(HEADERS)))
    text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
    data = text.replace("\n", "\r\n" if draw(st.booleans()) else "\n").encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BYTES)) + data[at:]
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + data


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=csv_texts())
def test_any_csv_text_exits_0_2_or_3_naming_the_file_and_line(workdir, data):
    path = workdir / "mutated.csv"
    path.write_bytes(data)
    code, err = _run(["test", str(path), "--bootstrap-b", "20"])
    if code == 2:
        assert str(path) in err, (data, err)
        if any(fault in err for fault in ROW_FAULTS):
            line = re.search(re.escape(str(path)) + r":(\d+): ", err)
            assert line and 1 <= int(line.group(1)) <= data.count(b"\n") + 1, (data, err)
