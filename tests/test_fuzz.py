"""Fuzzing the two outside inputs: config text and the command line.

Whatever a user writes, ``parse_config`` either returns a run or raises
``ConfigError``, and ``main`` returns 0, 2 or 3; neither lets any other
exception out.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sqzbudget import ConfigError, default_config_text, parse_config
from sqzbudget.cli import EXIT_CONFIG, EXIT_OK, EXIT_ORACLE, main

# numpy warns when an extreme value overflows an array element to inf;
# only exceptions matter here.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

KEYS = [line.split("=")[0].strip() for line in default_config_text().splitlines() if "=" in line]

# Text with no decimal digit cannot parse as an integer, so the only
# integers the command line sees are the bounded ones drawn below.
_TEXT = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=10)
_FLOAT = st.floats().map(repr)
# Powers of ten across the whole float range, where squares and ratios of
# valid values overflow or underflow.
_DECADE = st.integers(-330, 310).map("1e{}".format)


def _config_docs(ints):
    """Config documents: numbers on distinct known keys, plus up to two lines of anything."""
    number = st.one_of(_FLOAT, _DECADE, _DECADE, ints.map(str))
    value = st.one_of(
        number,
        st.sampled_from(["none", "log", "linear", "a:0.5", "a:1e-300,b:1", "a:", ":0.5"]),
        st.text(max_size=12),
    )
    known = st.dictionaries(st.sampled_from(KEYS), number, max_size=5)
    line = st.builds("{} = {}".format, st.sampled_from(KEYS) | _TEXT, value)
    extra = st.lists(line | _TEXT, max_size=2)
    return st.builds(
        lambda pairs, more: "\n".join([f"{k} = {v}" for k, v in pairs.items()] + more),
        known,
        extra,
    )


@given(_config_docs(st.integers()))
@settings(max_examples=500, deadline=None)
def test_parse_config_raises_only_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass


# Small integers only: a grid or an oracle run of millions of points is
# valid input but would take seconds per example.
_SMALL_INTS = st.integers(-10, 3000)
_TOKEN = st.one_of(
    st.sampled_from(
        [
            "budget", "ledger", "sweep", "oracle", "preset", "--config", "{config}",
            "--format", "csv", "json", "svg", "all", "--axis", "eta", "injected_db",
            "sigma", "--values", "--solve-improvement-db", "--seed", "--samples", "-h",
        ]
    ),
    _FLOAT,
    _SMALL_INTS.map(str),
    st.lists(_FLOAT, min_size=1, max_size=4).map(",".join),
    _TEXT,
)


@given(
    command=st.sampled_from(["budget", "ledger", "sweep", "oracle", "preset"]),
    tokens=st.lists(_TOKEN, max_size=7),
    config=_config_docs(_SMALL_INTS),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_main_exits_0_2_or_3(command, tokens, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config)
        argv = [command, *(path if t == "{config}" else t for t in tokens)]
        if command != "preset":  # the last --out wins: nothing is written outside tmp
            argv += ["--out", os.path.join(tmp, "out")]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_ORACLE)
