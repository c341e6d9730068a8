"""Property test: `--weight-file` ends cleanly through `design`, `smooth` and `verify`.

Weight files hold finite values over the whole float range, NaN, infinities,
zeros, negatives and non-numbers, separated by spaces, commas or line ends,
in counts that do and do not match the window.  Every run exits 0, 1 or 2,
prints at most one `error:` line and no traceback, and raises no warning.
"""

import contextlib
import io
import warnings

import numpy as np
import pytest

from wsavgol import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

VALUES = (st.floats(min_value=1e-300, max_value=1e308)
          | st.sampled_from([1e308, 1.7976931348623157e308, 5e-324, 2.2e-308, 1.0, 0.5])
          | st.floats())
TOKENS = (VALUES.map(repr)
          | st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e999", "abc", "1,5", "0x10"]))
COMMANDS = {
    "design": lambda q: ["design", "--window", str(q), "--degree", "2", "--format", "csv"],
    "smooth": lambda q: ["smooth", "--column", "y", "--window", str(q), "--degree", "2",
                         "--edge", "polyfit"],
    "verify": lambda q: ["verify", "--max-window", "7", "--max-degree", "2"],
}


@st.composite
def weight_files(draw):
    """(window length, file text): mostly the window's length of one magnitude, else anything."""
    q = draw(st.sampled_from([3, 5, 7]))
    if draw(st.booleans()):
        scale = draw(VALUES)
        count = q if draw(st.integers(0, 3)) else draw(st.integers(0, 9))
        tokens = [repr(scale * draw(st.floats(0.5, 2.0))) for _ in range(count)]
    else:
        tokens = draw(st.lists(TOKENS, max_size=9))
    if tokens and draw(st.booleans()):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
    separator = draw(st.sampled_from(["\n", " ", ", ", "\t"]))
    return q, separator.join(tokens) + draw(st.sampled_from(["", "\n"]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights")
    (path / "in.csv").write_text("y\n" + "".join(f"{float(np.sin(i)) * 1e3!r}\n" for i in range(12)))
    return path


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(case=weight_files(), command=st.sampled_from(sorted(COMMANDS)))
def test_every_weight_file_ends_cleanly(workdir, case, command):
    q, text = case
    (workdir / "w.txt").write_text(text)
    argv = COMMANDS[command](q) + ["--weight-file", str(workdir / "w.txt")]
    if command == "smooth":
        argv += ["--input", str(workdir / "in.csv")]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines)
