"""Fuzzing the command line: every run ends in a documented exit code.

Arbitrary argv (subcommand x flags x small orders x formats) and JSON
datasets with wrong shapes, bools, floats, negatives and short
``nested_diamonds`` go through ``cli.main`` in-process.  An argparse
error is a ``SystemExit``, as it is for the installed script; any other
exception escaping ``main`` fails the test.
"""

import json

from conftest import run_cli
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbhodge.surfaces import PRESET_NAMES

EXIT_CODES = {0, 1, 2, 3}

# the order flag each subcommand requires; hilb takes -n or -N
ORDER_FLAGS = {
    "hilb": ("-n", "-N"),
    "sym": ("-a",),
    "nested": ("-n",),
    "chiy": ("-N",),
    "betti": ("-N",),
    "hh": ("-n",),
    "deform": ("-n",),
    "verify": ("-N",),
}
FORMATS = ("diamond", "latex", "json", "poly", "text", "yaml")

junk = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-3, -1),
    st.integers(4, 40),
    st.text(max_size=3),
    st.none(),
    st.just([]),
    st.just({}),
)
grid = st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), min_size=3, max_size=3)
triple = st.lists(st.integers(0, 3), min_size=3, max_size=3)


def _paths(node, path=()):
    """Every position in a JSON value, as the key path from the root."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def datasets(draw):
    """A valid dataset text, then up to two positions deleted or replaced by junk."""
    top = draw(st.integers(0, 4))
    data = {
        "name": "fuzz",
        "max_power": top,
        "diamonds": draw(st.lists(grid, min_size=top + 1, max_size=top + 1)),
    }
    if draw(st.booleans()):  # possibly shorter than the main table
        data["nested_diamonds"] = draw(st.lists(grid, min_size=1, max_size=top + 1))
    if draw(st.booleans()):
        data["deformation"] = {
            "hT": draw(triple),
            "hO": draw(triple),
            "hW2": draw(triple),
            "connected": draw(st.booleans()),
        }
    if draw(st.booleans()):
        data["kahler_symmetric"] = draw(st.booleans())
    for _ in range(draw(st.integers(0, 2))):
        *parent_path, key = draw(st.sampled_from(list(_paths(data))[1:]))
        parent = data
        for step in parent_path:
            parent = parent[step]
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(junk)
    return json.dumps(data)


source = st.one_of(
    st.sampled_from(PRESET_NAMES).map(lambda name: ["--preset", name]),
    datasets().map(lambda text: ["--input", text]),
    st.sampled_from([["--preset", "nope"], ["--input", "[1]"], ["--input", "{"], []]),
)
# mostly valid orders, so most runs get past argparse
value = st.sampled_from(["0", "1", "2", "3", "1", "2", "3", "-1", "x", "1.5"])
extra = st.one_of(
    st.tuples(st.sampled_from(("-n", "-N", "-a", "-k", "--qmax")), value),
    st.tuples(st.just("--format"), st.sampled_from(FORMATS)),
    st.tuples(st.just("--method"), st.sampled_from(("product", "exp", "hodge", "log"))),
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(ORDER_FLAGS)))
    args = [command, *draw(source)]
    args += [draw(st.sampled_from(ORDER_FLAGS[command])), draw(value)]
    for flag, setting in draw(st.lists(extra, max_size=2)):
        args += [flag, setting]
    return args


def _assert_documented_exit(args: list[str]) -> None:
    code, _out, _err = run_cli(*args)
    assert code in EXIT_CODES, (args, code)


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_cli_argv_exits_with_a_documented_code(args):
    _assert_documented_exit(args)


@settings(max_examples=150, deadline=None)
@given(datasets(), st.sampled_from(sorted(ORDER_FLAGS)), st.integers(0, 3))
def test_cli_datasets_exit_with_a_documented_code(text, command, order):
    flag = ORDER_FLAGS[command][0]
    _assert_documented_exit([command, "--input", text, flag, str(order)])
