"""Generated correlator CSVs, dense-state files and state specs driven
through ``kslab.cli.main``.

Every command runs through ``golden_corpus.run``, so whatever the input
it must end by the corpus's outcome rule: exit 0, 1 or 2, no exception
escaping ``main``, a JSON report on stdout in strict JSON (no NaN or
Infinity), and at most one line on stderr.  When the parser refuses the
arguments, its usage text is not counted, only its ``error:`` line.
"""

from __future__ import annotations

import pytest
from golden_corpus import run
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

LETTERS = st.text(alphabet="IXYZ", min_size=1, max_size=5)
WORDS = st.one_of(
    st.tuples(st.sampled_from(["", "+", "-", "+i", "-i"]), LETTERS).map("".join),
    st.sampled_from(["Z" * 40, "XX", "YY", "ZZ", "IZZ", "ZIZ", "ZZI", "III"]),
    st.text(max_size=6),
)
NUMBERS = st.one_of(
    st.floats(-2, 2).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1e200", "", "x", "0.5", "-0"]),
)
CSV_ROWS = st.one_of(
    st.tuples(WORDS, NUMBERS, NUMBERS).map(",".join),
    st.text(max_size=12),
)
CSV_FILES = st.one_of(
    st.lists(CSV_ROWS, max_size=6).map(lambda rows: "\n".join(["word,value,sigma", *rows])),
    st.text(max_size=40),
).map(str.encode)

HEADERS = st.one_of(
    st.integers(-4, 12).map(str),
    st.sampled_from(["100000", "-3", "0", "11", "", "x", "2.5", "9" * 5000]),
)
ENTRIES = st.one_of(
    st.tuples(NUMBERS, NUMBERS).map(",".join),
    st.sampled_from(["0,0", "0.5,0", "1", "a,b", "1,2,3", ",0", "1,"]),
)


@st.composite
def dense_files(draw) -> bytes:
    """A valid diagonal state on one or two sites, or a file whose header
    or rows are wrong (bad counts, short files, junk entries)."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 2))
        dim = 1 << n
        weights = draw(st.lists(st.floats(0, 1), min_size=dim, max_size=dim))
        total = sum(weights) or 1.0
        rows = [
            " ".join(f"{weights[i] / total!r},0" if i == j else "0,0" for j in range(dim))
            for i in range(dim)
        ]
        return "\n".join([str(n), *rows]).encode()
    header = draw(HEADERS)
    rows = draw(st.lists(st.lists(ENTRIES, max_size=5).map(" ".join), max_size=5))
    return "\n".join([header, *rows]).encode()


STATE_SPECS = st.one_of(
    st.builds(
        "ghz:n={},alpha={},beta={}".format,
        st.integers(-2, 2000),
        NUMBERS,
        NUMBERS,
    ),
    st.text(alphabet="+-01xyz", max_size=30).map("product:".__add__),
    NUMBERS.map("werner:lambda={}".format),
    st.text(max_size=20),
)
KINDS = st.sampled_from([[], ["--kind", "two"], ["--kind", "multi"]])


# Without the explain phase, which reruns variants of every distinct
# failing example: with it, a real failure took minutes and hundreds of
# MB to report.
FUZZ = settings(
    deadline=None,
    max_examples=200,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(content=CSV_FILES, kind=st.sampled_from(["two", "multi"]), k=st.none() | NUMBERS)
@FUZZ
def test_check_on_generated_csv(work_dir, content, kind, k):
    path = work_dir / "data.csv"
    path.write_bytes(content)
    run(["check", "--file", str(path), "--kind", kind] + ([] if k is None else ["--k", k]))


@given(content=dense_files(), kind=KINDS)
@FUZZ
def test_violate_on_generated_dense_file(work_dir, content, kind):
    path = work_dir / "state.txt"
    path.write_bytes(content)
    run(["violate", "--state", f"dense:@{path}"] + kind)


@given(spec=STATE_SPECS, kind=KINDS)
@FUZZ
def test_violate_on_generated_spec(spec, kind):
    run(["violate", "--state", spec] + kind)
