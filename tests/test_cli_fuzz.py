"""The three input files fuzzed: a task file, a model spec or a result file,
mutated at random and run through ``cli.main`` (``suggest``, or ``eval``
for a result file), exits 0, 1 or 2 with nothing on stderr but a one-line
message.

The fuzzing runs in one subprocess whose address space is limited, so an
input that makes the program allocate without bound fails the test rather
than exhaust the runner's memory.
"""

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from tsdecode import cli

LIMIT = 1 << 30
EXAMPLES = 150

TASKS = [
    {"task_id": "a", "source": [2, 5, 7], "prefix": [3], "suffix": [4], "gold_span": [6], "gold_full": [3, 6, 4]},
    {"task_id": "b", "source": [9, 2], "prefix": [], "suffix": [6, 2], "gold_span": [5, 8], "gold_full": [5, 8, 6, 2]},
]
SPEC = {"kind": "ngram_gen", "vocab_size": 12, "order": 2, "seed": 3, "concentration": 0.3, "table": None}

# Values a mutation puts in: edge cases of each JSON type. Integers stay
# small or go past every bound (``core.MAX_VOCAB_SIZE`` is 2**20): a
# vocabulary size the bound admits but of tens of thousands of ids or more
# takes seconds to minutes per command, and the row memo, which keeps every
# row, can then outgrow the limit, so sizes from 41 to 2**20 are not drawn.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 40),
    st.sampled_from([2**20 + 1, 2**31, 2**63, 2**64, 10**12, 2**70, -(2**63)]),
    st.sampled_from([0.0, -0.0, 1e-300, 0.001, 0.5, 2.5, 1e300, math.inf, -math.inf, math.nan]),
    st.text(max_size=4),
)
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def mutated(draw, node):
    """``node``, a JSON value, with one value somewhere in it replaced, or
    one key or item dropped, and at times a key added."""
    if not (isinstance(node, (dict, list)) and node and draw(st.booleans())):
        return draw(VALUES)
    node = dict(node) if isinstance(node, dict) else list(node)
    key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
    if draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(mutated(node[key]))
    if isinstance(node, dict) and draw(st.booleans()):
        node[draw(st.text(max_size=4))] = draw(VALUES)
    return node


@st.composite
def damaged(draw, data: bytes):
    """``data`` cut short, or with a byte put in or left out."""
    at = draw(st.integers(0, len(data)))
    how = draw(st.sampled_from(["cut", "insert", "drop"]))
    if how == "cut":
        return data[:at]
    if how == "insert":
        return data[:at] + draw(st.binary(min_size=1, max_size=1)) + data[at:]
    return data[:at] + data[at + 1 :]


def jsonl(rows) -> bytes:
    return "".join(json.dumps(row) + "\n" for row in rows).encode()


def fuzz(directory: str) -> None:
    """Fuzz the three files in ``directory`` with this process's address
    space limited to ``LIMIT`` bytes; an input that breaks the contract
    raises, naming the falsifying example."""
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))
    path = {name: str(Path(directory) / name) for name in ("tasks", "spec", "results", "out")}

    def run(argv):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, stderr.getvalue()

    def suggest(decoder):
        return ["suggest", "--tasks", path["tasks"], "--model-spec", path["spec"], "--decoder", decoder,
                "--out", path["out"]]

    valid = {"tasks": jsonl(TASKS), "spec": json.dumps(SPEC).encode()}
    for name in valid:
        Path(path[name]).write_bytes(valid[name])
    assert run(suggest("psgd")) == (0, "")
    valid["results"] = Path(path["out"]).read_bytes()
    documents = {"tasks": TASKS, "spec": SPEC, "results": [json.loads(line) for line in valid["results"].splitlines()]}

    @settings(max_examples=EXAMPLES, deadline=None, database=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    @given(st.data())
    def mutate_one_file(data):
        name = data.draw(st.sampled_from(["tasks", "spec", "results"]))
        document = documents[name]
        if data.draw(st.booleans()):
            changed = data.draw(mutated(document))
            text = jsonl(changed) if name != "spec" and isinstance(changed, list) else json.dumps(changed).encode()
        else:
            text = data.draw(damaged(valid[name]))
        # Each file is unlinked before it is written: opening a file that
        # holds data with O_TRUNC can wait tens of milliseconds on the disk's
        # writeback, while creating a new one does not.
        for each in valid:
            Path(path[each]).unlink(missing_ok=True)
            Path(path[each]).write_bytes(text if each == name else valid[each])
        if name == "results":
            argv = ["eval", "--tasks", path["tasks"], "--results", path["results"], "--out", path["out"]]
        else:
            argv = suggest(data.draw(st.sampled_from(["psgd", "dba"])))
        code, message = run(argv)
        assert code in (0, 1, 2)
        if code == 0:
            assert message == ""
        else:
            assert message.count("\n") == 1 and message.endswith("\n"), message

    mutate_one_file()


def test_mutated_input_files_exit_0_1_or_2_with_a_one_line_message(tmp_path):
    tests, src = Path(__file__).resolve().parent, Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests), os.environ.get("PYTHONPATH", "")]))
    code = f"import test_cli_fuzz; test_cli_fuzz.fuzz({str(tmp_path)!r})"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
