"""Malformed input never surfaces as an internal error.

Each case starts from a valid input file, applies up to three random edits
(replace a value anywhere in the document with arbitrary JSON, delete a
key or list item, add a key or item) and sometimes spoils the text itself
(truncation, a stray byte, invalid UTF-8). Through cli.main, mutated design,
kernel, cost and selection-script files must give exit 0, 2 or 3, never 1;
RunConfig.from_json must either decode a mutated run config or raise an
InputError. The runs are derandomized with a fixed example count, so the
suite sees the same inputs every time.
"""

import contextlib
import copy
import io
import json
from importlib import resources

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cgraforge.arch import serialize_design
from cgraforge.cli import EXIT_INTERNAL, main
from cgraforge.decode import InputError, loads
from cgraforge.orchestrate import RunConfig

from helpers import make_design

FUZZ = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

#: Keys and tokens the inputs use, so that edits also reach the checks
#: behind the first layer of unknown-key rejections.
NAMES = st.sampled_from(
    ["rows", "kind", "id", "src", "dst", "distance", "latency", "ADD", "PHI", "MESH", "TORUS", "sigma", "alpha",
     "validation_interval", "t_score", "steps", "selection", "mode", "min_speedup", "backend", "budget", "max_ii",
     "HEURISTIC", "LLM", "MIN_POWER", "wiring_mult", "fu_power_mw", "ctx_power_mw", "nodes", "edges", "x"]
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=40)
    | st.integers()
    | st.sampled_from([10**400, -(10**400), 2**63])
    | st.floats(allow_nan=True, allow_infinity=True)
    | NAMES
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=3), max_leaves=5
)


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_text(draw, base) -> bytes:
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "replace":
            parent[path[-1]] = draw(JSON_VALUES)
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.insert(path[-1], draw(JSON_VALUES))
        else:
            parent[draw(NAMES)] = draw(JSON_VALUES)
    text = json.dumps(doc).encode()
    spoil = draw(st.sampled_from(["none", "none", "truncate", "byte"]))
    if spoil == "truncate":
        text = text[: draw(st.integers(0, len(text)))]
    elif spoil == "byte":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([b"\xff", b"}", b",", b"[", b'"', b"NaN"])) + text[at:]
    return text


def exit_code(*argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code != EXIT_INTERNAL, err.getvalue()
    return code


TINY_KERNEL = {
    "name": "tiny",
    "trip_count": 8,
    "nodes": [{"id": 0, "kind": "PHI", "latency": 1}, {"id": 1, "kind": "ADD", "latency": 2}],
    "edges": [{"src": 0, "dst": 1, "distance": 0}, {"src": 1, "dst": 0, "distance": 1}],
}
DESIGN = json.loads(serialize_design(make_design(rows=2, cols=2, design_id="fuzz")))
COEFFS = json.loads(resources.files("cgraforge.data").joinpath("cost_coeffs.json").read_text("utf-8"))
SCRIPT = {
    "selection": {"conf_threshold": 0.5, "validation_interval": 3, "alpha": 0.5, "sigma": None},
    "steps": [{"t_score": 2.0, "l_score": 1.5}, {"t_score": -1, "l_score": 3}],
}
RUN_CONFIG = {
    "kernel": "spmv",
    "objective": {"mode": "MIN_POWER", "min_speedup": 1.5},
    "iterations": 2,
    "seed": 3,
    "backend": {"kind": "heuristic", "base_url": None, "temperature": 0.2, "max_retries": 1},
    "selection": {"conf_threshold": 0.7, "validation_interval": 5, "alpha": 0.3, "sigma": None},
    "budget": {"max_ii": 8, "placement_attempts": 100},
    "cost_coeffs": None,
}


#: Keeps each search short: an unroll factor of 8 makes the tiny kernel 16 nodes.
SMALL_BUDGET = ("--max-ii", "6", "--attempts", "200")


def write(path, data) -> str:
    path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
    return str(path)


@FUZZ
@given(text=mutated_text(DESIGN))
def test_mutated_design_files_never_exit_one(tmp_path, text):
    kernel = write(tmp_path / "k.json", TINY_KERNEL)
    exit_code("map", write(tmp_path / "d.json", text), "--kernel", kernel, *SMALL_BUDGET)


@FUZZ
@given(text=mutated_text(TINY_KERNEL))
def test_mutated_kernel_files_never_exit_one(tmp_path, text):
    design = write(tmp_path / "d.json", DESIGN)
    exit_code("map", design, "--kernel", write(tmp_path / "k.json", text), *SMALL_BUDGET)


@FUZZ
@given(text=mutated_text(COEFFS))
def test_mutated_cost_files_never_exit_one(tmp_path, text):
    design, kernel = write(tmp_path / "d.json", DESIGN), write(tmp_path / "k.json", TINY_KERNEL)
    exit_code("evaluate", design, "--kernel", kernel, "--coeffs", write(tmp_path / "c.json", text), "--json")


@FUZZ
@given(text=mutated_text(SCRIPT))
def test_mutated_selection_scripts_never_exit_one(tmp_path, text):
    exit_code("select-sim", write(tmp_path / "s.json", text), "--json")


@FUZZ
@given(text=mutated_text(RUN_CONFIG))
def test_mutated_run_configs_raise_only_input_errors(text):
    try:
        RunConfig.from_json(loads(text.decode("utf-8", errors="replace")))
    except InputError:
        pass
