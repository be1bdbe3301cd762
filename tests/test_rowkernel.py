"""The compiled kernel: the same finished row blocks as the Python loop
and numpy, one field and one check for each exported function, a cache
that is built once and checked, and every failure to build, load or match
falling back to Python with the same rows."""

import ctypes
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import sysconfig
import threading
import time
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsdecode import decode, lm, rng, rowkernel
from tsdecode.core import TokenSeq, TsTask, Vocab
from tsdecode.decode import DbaParams
from tsdecode.lm import _COIN_TAG, _ROW_TAG, NgramGenModel, make_perturbed_sibling
from tsdecode.rng import Stream, hash_key, mix64

from util import (best_finish, drawn_rows, finish_rows, gamma, kernel_paths, memo_bytes, on_every_path,
                  reference_beam_core, run_by)

COMPILER = rowkernel.compiler()
HAS_COMPILER = COMPILER is not None and shutil.which(COMPILER[0]) is not None
needs_compiler = pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler")
needs_kernel = pytest.mark.skipif("kernel" not in kernel_paths("block"), reason="the row kernel cannot be built here")

# Keys of vocab-20 rows at concentration 0.2; the second has a long run of
# rejections, more than 4n + 16 draws.
KEYS = [hash_key(29, 20, 1097), hash_key(29, 20, 1098)] + [hash_key(k, 2) for k in range(10)]


def drawn_row(key, concentration, n):
    """The bytes of a fresh stream's row drawn by the Python loop, and the
    draws it consumed."""
    stream = Stream(key)
    return stream.dirichlet(concentration, n).tobytes(), stream._counter


def reference_row(key, concentration, n):
    """A fresh stream's row as ``n`` scalar ``gamma`` calls, and its draws."""
    stream = Stream(key)
    draws = np.array([gamma(stream, concentration) for _ in range(n)])
    return (draws / draws.sum()).tobytes(), stream._counter


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One build of the kernel, made before any case patches the build."""
    directory = tmp_path_factory.mktemp("built")
    rowkernel.load(directory)
    (path,) = directory.glob("rowkernel-*.so")
    return path


@needs_compiler
def test_kernel_loads_where_a_compiler_runs(tmp_path):
    directory = tmp_path / "cache"
    assert all(rowkernel.load(directory))
    assert directory.stat().st_mode & 0o777 == 0o700
    (built,) = directory.iterdir()
    assert built.name.startswith("rowkernel-") and built.suffix == ".so"


def test_every_exported_kernel_function_is_a_field_of_functions():
    # Each function _rowkernel.c exports is tsd_<name> of one field of
    # rowkernel.Functions; every other function is static.
    code = re.sub(r"/\*.*?\*/", "", rowkernel.SOURCE.read_text(), flags=re.S)
    exported = re.findall(r"^(?!static\b)[A-Za-z_][\w ]*?[\s*](\w+)\([^;{]*\)\s*\{", code, flags=re.M)
    assert sorted(exported) == sorted("tsd_" + name for name in rowkernel.Functions._fields)


# The check in ``rowkernel`` that decides each field of ``Functions``.
CHECKS = {
    "block": "block_self_check",
    "beam_search": "beam_search_self_check",
    "psgd_search": "psgd_self_check",
}


def test_every_pointer_field_is_set():
    # A misspelt section name would set a Python attribute instead of its
    # field, and the kernel would read through NULL. No kernel is called:
    # each decode's stand-in records the pointers and returns at once.
    rows, seen, fixed_eos = rowkernel.CheckRows(), [], set()

    def stand_in(context):
        def call(address):
            seen.append(rowkernel._pointers_set(context.buffers) and not vars(context.buffers))
            return 0
        return call

    for name, source, constraints, width, max_len in rowkernel.CHECK_SEARCHES:
        context = rowkernel.CompiledSearch()
        context(stand_in(context), rowkernel._check_model(name, rows), source, constraints, width, max_len)
    for name, source, p, s, params in rowkernel.CHECK_DECODES:
        context = rowkernel.CompiledPsgd()
        context(stand_in(context), rowkernel._check_model(name, rows), source, p, s, params, params.max_span_len)
        fixed_eos.add(context.buffers.fixed_eos)
    assert fixed_eos == {False, True}
    assert seen == [True] * (len(rowkernel.CHECK_SEARCHES) + len(rowkernel.CHECK_DECODES))


@pytest.mark.parametrize("ids", [[-1, 5, 5], [3, 2, 2]], ids=["a negative length", "past the ids"])
def test_a_record_of_a_negative_length_or_past_its_ids_raises(ids):
    # A faulty kernel could write either; reading it would loop without end
    # or read ids the kernel did not write. The load check that reads it
    # then fails instead, and the search falls back.
    context = rowkernel.CompiledSearch()
    context.views = {"wanted": np.array([2, 4, 5, *ids])}
    assert context._records("wanted", 3) == [(4, 5)]
    with pytest.raises(ValueError, match="record"):
        context._records("wanted", 3 + len(ids))


# Loads the kernel from the cache directory argv[1] with the beam search's
# section "best_tokens" misspelt, so that struct tsd_search's pointer stays
# NULL, and prints the functions that fell back and the warnings' categories.
MISSPELT = """
import sys, warnings
from pathlib import Path
from tsdecode import rowkernel

sections = rowkernel._sections
rowkernel._sections = lambda struct, reals, ints: sections(struct, reals, [
    ("best_tokns" if name == "best_tokens" and isinstance(struct, rowkernel._SearchBuffers) else name, n)
    for name, n in ints])
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    functions = rowkernel.load(Path(sys.argv[1]))
print([name for name, f in functions._asdict().items() if f is None], [w.category.__name__ for w in caught])
"""


@needs_compiler
def test_a_null_section_pointer_falls_back_instead_of_crashing(built, tmp_path):
    # The search check refuses the take before the kernel writes a finish
    # through NULL, which would end the process.
    directory = tmp_path / "cache"
    directory.mkdir(mode=0o700)
    shutil.copy(built, directory)
    src = str(Path(rng.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", MISSPELT, str(directory)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "['beam_search'] ['RuntimeWarning']"


@needs_compiler
@pytest.mark.parametrize("name", rowkernel.Functions._fields)
def test_each_field_holds_its_function_decided_by_its_own_check(name, built, tmp_path, monkeypatch):
    assert getattr(rowkernel._open(built), name).__name__ == "tsd_" + name
    directory = tmp_path / "cache"
    directory.mkdir(mode=0o700)
    shutil.copy(built, directory)
    monkeypatch.setattr(rowkernel, CHECKS[name], lambda function, *rows: False)
    functions, warned = loaded_with_warnings(directory)
    assert fallen_back(functions) == {name}
    assert warned == [RuntimeWarning]


def drawn_block(path, model, source, contexts):
    """The bytes of the finished block ``model`` draws for ``contexts`` of
    ``source``, the ``path`` way: by the compiled block or by the Python
    loop and numpy."""
    with run_by("block", path):
        return model._finished_rows(source, contexts).tobytes()


@needs_kernel
@given(
    # Vocabularies of 3 to 301 ids, 128 to 132 among them: every branch of
    # numpy's sum, in the Dirichlet row (vocab - 1 entries) and the
    # finished row (vocab).
    st.one_of(st.sampled_from([3, 4, 20, 100, 128, 129, 130, 131, 132, 301]), st.integers(3, 301)),
    st.integers(1, 4),
    st.sampled_from([None, 0.0, 0.3, 0.5, 1.0]),
    st.one_of(st.sampled_from([0.001, 0.05, 0.2, 1.0, 2.5, 3.0]), st.floats(0.05, 3.0)),
    st.integers(0, 2**64 - 1),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_kernel_blocks_equal_python_blocks(vocab_size, order, rate, concentration, seed, data):
    model = NgramGenModel(Vocab(vocab_size), order, seed, concentration)
    if rate is not None:
        model = make_perturbed_sibling(model, data.draw(st.integers(0, 2**64 - 1)), rate)
    ids = st.integers(0, vocab_size - 1)
    source = tuple(data.draw(st.lists(ids, max_size=8)))
    prefixes = data.draw(st.lists(st.lists(st.integers(2, vocab_size - 1), max_size=order + 2).map(tuple),
                                  min_size=1, max_size=6))
    contexts = list(dict.fromkeys(model._contexts(prefixes)))
    assert drawn_block("kernel", model, source, contexts) == drawn_block("python", model, source, contexts)


def test_the_block_check_covers_every_context_length_and_both_coin_sides():
    (_, _, rate, source, contexts), (_, _, full_rate, _, _) = lm.CHECK_BLOCKS[:2]
    assert (rate, source, full_rate) == (0.5, (), 1.0)
    assert sorted(map(len, contexts)) == list(range(7))
    coins = [hash_key(7, _COIN_TAG, source, context) for context in contexts]
    below = [rng._uniform(coin, 1) < rate for coin in coins]
    assert 0 < sum(below) < len(contexts)
    assert any((rng._uniform(coin, 0) < rate) != side for coin, side in zip(coins, below))


def test_the_block_check_holds_a_row_for_each_branch_of_a_row():
    # One row per later block, as lm.block_self_check draws it: its
    # variates and the draws they consumed. The check compares the kernel's
    # bytes of each with these.
    rows = {}
    for size, concentration, rate, source, contexts in lm.CHECK_BLOCKS[1:]:
        model = NgramGenModel(Vocab(size), 6, 41, concentration, 7, rate)
        (key,) = model._row_keys(source, contexts)
        stream = Stream(key)
        rows[concentration] = size - 1, stream._gammas(concentration, size - 1), stream._counter
    assert sorted(rows) == [0.001, 0.05, 0.2, 1.0]
    n, _, drawn = rows[0.2]
    assert drawn > 4 * n + 16
    assert not any(rows[0.001][1])
    assert rows[1.0][0] == 257


def sum_branches(n, depth=0):
    """The branches numpy's pairwise sum of ``n`` entries takes
    (``numpy_sum``): below 8 entries, 8 accumulators with or without a
    remainder, and parts split at each depth."""
    if n < 8:
        return {"below 8"}
    if n <= 128:
        return {"8 accumulators, remainder" if n % 8 else "8 accumulators"}
    half = n // 2 - n // 2 % 8
    return {f"split {depth + 1}"} | sum_branches(half, depth + 1) | sum_branches(n - half, depth + 1)


def test_the_block_check_takes_every_branch_of_numpys_sum():
    # Each row is summed twice: its vocab - 1 variates, then its vocab entries.
    taken = set().union(*(sum_branches(n) for size, *_ in lm.CHECK_BLOCKS for n in (size - 1, size)))
    assert taken == {"below 8", "8 accumulators", "8 accumulators, remainder", "split 1", "split 2"}


@needs_compiler
def test_a_cached_kernel_is_loaded_without_compiling(tmp_path, monkeypatch):
    compiled = []
    compile_ = rowkernel._compile

    def recorded(command, path):
        compiled.append(path)
        compile_(command, path)

    monkeypatch.setattr(rowkernel, "_compile", recorded)
    assert all(rowkernel.load(tmp_path))
    assert all(rowkernel.load(tmp_path))
    assert len(compiled) == 1
    # Another compile command names another file, built afresh.
    monkeypatch.setattr(rowkernel, "FLAGS", rowkernel.FLAGS + ("-g",))
    assert all(rowkernel.load(tmp_path))
    assert len(compiled) == 2 and compiled[0] != compiled[1]
    assert sorted(tmp_path.iterdir()) == sorted(compiled)


@needs_compiler
def test_a_cache_directory_others_may_write_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(rowkernel, "_compile", lambda command, path: pytest.fail("compiled"))
    tmp_path.chmod(0o777)
    with pytest.warns(RuntimeWarning, match="not private to this user"):
        assert rowkernel.load(tmp_path) == rowkernel.Functions()


def loaded_with_warnings(directory):
    """``rowkernel.load(directory)`` and the categories of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        functions = rowkernel.load(directory)
    return functions, [w.category for w in caught]


def _refuse(*args, **kwargs):
    raise OSError("refused")


def _fail_to_compile(command, path):
    raise subprocess.CalledProcessError(1, command)


def _one_ulp_off(block):
    # Nudges the last entry of the block's last row.
    def wrong(*args):
        block(*args)
        n_rows, vocab, rows = args[5], args[6], args[-1]
        entries = (ctypes.c_double * (n_rows * vocab)).from_address(ctypes.addressof(rows))
        entries[-1] = math.nextafter(entries[-1], math.inf)

    return wrong


def _step_one_short(beam_search):
    # Counts one emitted step fewer.
    def wrong(at):
        status = beam_search(at)
        if status == 0:
            rowkernel._SearchBuffers.from_address(at).emitted -= 1
        return status

    return wrong


def _score_one_ulp_off(beam_search):
    # Nudges the score of the best finish kept after each call.
    def wrong(at):
        status = beam_search(at)
        buffers = rowkernel._SearchBuffers.from_address(at)
        buffers.best = math.nextafter(buffers.best, -math.inf)
        return status

    return wrong


def _best_score_one_ulp_off(psgd_search):
    # Nudges the best score of a finished decode.
    def wrong(at):
        status = psgd_search(at)
        if status == 0:
            buffers = rowkernel._PsgdBuffers.from_address(at)
            buffers.best = math.nextafter(buffers.best, -math.inf)
        return status

    return wrong


def _fold(h, context, length=True):
    # rng.hash_key's fold of a sequence part, or with its length left out.
    if length:
        h = mix64(h ^ mix64(len(context) ^ 0xA5A5A5A5))
    for t in context:
        h = mix64(h ^ mix64(t))
    return h


def _sequential(values):
    total = -0.0
    for value in values:
        total += value
    return total


def numpy_sum(values, rule=None):
    """``np.add.reduce`` of a contiguous run of float64 ``values``, numpy's
    pairwise sum as ``_rowkernel.c``'s ``add_reduce`` writes it, or with the
    one rule ``rule`` changed: ``"sequential"`` adds them left to right,
    ``"block-256"`` gives up to 256 entries to the eight accumulators,
    ``"any-split"`` splits a longer run at half its length, not rounded down
    to a multiple of 8, ``"in-order"`` adds the accumulators left to right
    and ``"remainder-first"`` adds the remainder before them."""
    if rule == "sequential":
        return 0.0 + _sequential(values)

    def pairwise(a):
        n = len(a)
        if n < 8:
            return _sequential(a)
        if n <= (256 if rule == "block-256" else 128):
            whole = n - n % 8
            r = [_sequential(a[j:whole:8]) for j in range(8)]
            if rule == "in-order":
                return _sequential([_sequential(r), *a[whole:]])
            tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            if rule == "remainder-first":
                return _sequential(a[whole:]) + tree
            return _sequential([tree, *a[whole:]])
        half = n // 2
        if rule != "any-split":
            half -= half % 8
        return pairwise(a[:half]) + pairwise(a[half:])

    return 0.0 + pairwise(values)


def _row(variates, total=numpy_sum, reciprocal=False, uniform=True):
    """``rng._normalized(variates)`` as a list, or with a rule changed: the
    row divided by the ``total`` of its variates, multiplied by its
    reciprocal, or never uniform."""
    t = total(variates)
    if t <= 0.0 and uniform:
        return [1.0 / len(variates)] * len(variates)
    if reciprocal:
        return [v * (1.0 / t) for v in variates]
    return [v / t if t else math.nan for v in variates]


def _python_block(length=True, coin_at=1, inverted=False, rule=None, reciprocal=False, uniform=True,
                  bos_summed=False, bos_at_eps=False, scale_over_total=False):
    """``tsd_block`` written in Python, with one rule changed unless every
    argument keeps its default: the length left out of the fold, the coin
    drawn at another counter, the coin's choice inverted, both sums of a row
    by numpy's sum with the one ``rule`` changed (``numpy_sum``), the
    Dirichlet row made by ``_row`` multiplied by the reciprocal of its sum
    or never uniform, or the finish summing the BOS entry the block held
    before the call, leaving BOS at ``eps`` or multiplying by the scale over
    the sum."""
    total = partial(numpy_sum, rule=rule)

    def block(h_row, h_alt, h_coin, rate, contexts, n_rows, vocab, concentration, scale, eps, rows):
        packed = struct.unpack(f"{len(contexts) // 8}q", contexts)
        ids = iter(packed[n_rows:])
        out = (ctypes.c_double * (n_rows * vocab)).from_address(ctypes.addressof(rows))
        for r, n in enumerate(packed[:n_rows]):
            context = tuple(next(ids) for _ in range(n))
            h = h_row
            if rate > 0.0 and (rng._uniform(_fold(h_coin, context, length), coin_at) < rate) != inverted:
                h = h_alt
            variates = Stream(_fold(h, context, length))._gammas(concentration, vocab - 1)
            raw = [out[r * vocab] if bos_summed else 0.0, *_row(variates, total, reciprocal, uniform)]
            t = total(raw)
            row = [v * (scale / t) + eps if scale_over_total else v / t * scale + eps for v in raw]
            if not bos_at_eps:
                row[0] = 0.0
            out[r * vocab : (r + 1) * vocab] = row

    return block


BLOCK_MUTANTS = {
    "block-length-unmixed": _python_block(length=False),
    "block-coin-at-0": _python_block(coin_at=0),
    "block-coin-inverted": _python_block(inverted=True),
    "sequential-sum": _python_block(rule="sequential"),
    "bos-summed": _python_block(bos_summed=True),
}
# Mutants of the row alone, which the check's rows were found to reject.
ROW_MUTANTS = {
    **{f"sum-{rule}": _python_block(rule=rule) for rule in ("block-256", "any-split", "in-order", "remainder-first")},
    "row-times-reciprocal": _python_block(reciprocal=True),
    "row-never-uniform": _python_block(uniform=False),
    "finish-bos-at-eps": _python_block(bos_at_eps=True),
    "finish-times-scale-over-total": _python_block(scale_over_total=True),
}


def test_the_python_sum_is_numpys():
    values = [(k * 0.6180339887498949 % 1.0) ** 4 for k in range(1, 301)]
    for n in range(1, 301):
        assert numpy_sum(values[:n]) == np.add.reduce(np.array(values[:n]))


def test_the_block_check_passes_the_python_block_and_rejects_each_mutant():
    # Each mutant is the Python block with one rule changed, so the check
    # rejects it for that rule alone.
    assert lm.block_self_check(_python_block())
    mutants = {**BLOCK_MUTANTS, **ROW_MUTANTS}
    assert [name for name, mutant in mutants.items() if lm.block_self_check(mutant)] == []


def _opened_as(wrap, name):
    """``rowkernel._open`` with its function ``name`` wrapped by ``wrap``."""
    open_ = rowkernel._open

    def opened(path):
        functions = open_(path)
        return functions._replace(**{name: wrap(getattr(functions, name))})

    return opened


# Without a compiler the Python row loop, finalisation and searches are
# taken silently; any other failure is reported. A function that fails its
# check leaves the others compiled: ONLY names what falls back.
SILENT = {"no-compiler-named", "compiler-missing"}
ONLY = {
    "wrong-bytes": "block",
    "step-one-short": "beam_search",
    "step-score-wrong": "beam_search",
    "round-score-wrong": "psgd_search",
    "round-tie-wrong": "psgd_search",
    **dict.fromkeys(BLOCK_MUTANTS, "block"),
}
FALLBACKS = {
    "no-compiler-named": (sysconfig, "get_config_var", lambda name: None),
    "compiler-missing": (sysconfig, "get_config_var", lambda name: "/nonexistent/cc"),
    "compiler-fails": (sysconfig, "get_config_var", lambda name: "false"),
    "compile-step-fails": (rowkernel, "_compile", _fail_to_compile),
    "load-fails": (ctypes, "CDLL", _refuse),
    "wrong-bytes": (rowkernel, "_open", _opened_as(_one_ulp_off, "block")),
    "step-one-short": (rowkernel, "_open", _opened_as(_step_one_short, "beam_search")),
    "step-score-wrong": (rowkernel, "_open", _opened_as(_score_one_ulp_off, "beam_search")),
    "round-score-wrong": (rowkernel, "_open", _opened_as(_best_score_one_ulp_off, "psgd_search")),
    **{name: (rowkernel, "_open", _opened_as(lambda block, mutant=mutant: mutant, "block"))
       for name, mutant in BLOCK_MUTANTS.items()},
}
# Mutants of ``_rowkernel.c`` itself, each built from a copy of the source
# with its one ``old`` text made ``new``: a round's first-ranked item is the
# later of two tied spans in lexicographic order.
SOURCE_MUTANTS = {"round-tie-wrong": ("lex_less(beam.tokens + b * cap, beam.tokens + best * cap, n)",
                                      "lex_less(beam.tokens + best * cap, beam.tokens + b * cap, n)")}
# The cases that fail after the kernel is built load one build, copied into
# their cache directories, rather than compile it afresh.
PREBUILT = {name for name, (_, attr, _) in FALLBACKS.items() if attr in ("_open", "CDLL")}
# A constrained decode whose beams the Python step must take as the
# reference does.
PARAMS = DbaParams(4, 10, ((4,), (6, 2)))


def fallen_back(functions) -> set[str]:
    return {name for name, function in functions._asdict().items() if function is None}


@pytest.mark.parametrize("fallback", sorted({**FALLBACKS, **SOURCE_MUTANTS}))
def test_every_failure_falls_back_to_the_python_loop(fallback, tmp_path, monkeypatch, request):
    if fallback in PREBUILT:
        built = request.getfixturevalue("built")
        for directory in (tmp_path / "cache", tmp_path / "xdg" / "tsdecode"):
            directory.mkdir(mode=0o700, parents=True)
            shutil.copy(built, directory)
    if fallback in SOURCE_MUTANTS:
        old, new = SOURCE_MUTANTS[fallback]
        code = rowkernel.SOURCE.read_text()
        assert code.count(old) == 1
        source = tmp_path / rowkernel.SOURCE.name
        source.write_text(code.replace(old, new))
        monkeypatch.setattr(rowkernel, "SOURCE", source)
    else:
        monkeypatch.setattr(*FALLBACKS[fallback])
    functions, warned = loaded_with_warnings(tmp_path / "cache")
    failed = {ONLY[fallback]} if fallback in ONLY else set(rowkernel.Functions._fields)
    assert fallen_back(functions) == failed
    assert warned == ([] if fallback in SILENT else [RuntimeWarning])
    assert not list(tmp_path.glob("cache/.build-*"))
    # A process that draws its first block of rows now draws every row with
    # the Python loop and finishes it in numpy, unless only another function
    # failed: the reference's bytes, block or not, and the reference's draw
    # counts row by row. It takes its beams by the Python step and its PSGD
    # decodes by the Python round when those failed, with the same bytes.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(rng, "_compiled", None)
    model = NgramGenModel(Vocab(12), 2, seed=9, concentration=0.2)
    contexts = [(0,), (0, 3), (3, 7), (7, 5)]
    with warnings.catch_warnings(record=True):
        block = model._finished_rows((3, 7, 5, 9), contexts)
    assert fallen_back(rng.compiled()) == failed
    want = [reference_row(hash_key(9, _ROW_TAG, (3, 7, 5, 9), context), 0.2, 11)[0] for context in contexts]
    assert block.tobytes() == finish_rows([np.frombuffer(row) for row in want]).tobytes()
    rows = [Stream(key).dirichlet(0.2, 20) for key in KEYS]
    want = [reference_row(key, 0.2, 20) for key in KEYS]
    assert [row.tobytes() for row in rows] == [row for row, _ in want]
    assert [drawn_row(key, 0.2, 20) for key in KEYS] == want
    best, beam, stats = decode._beam_core(model, (3, 7, 5, 9), PARAMS)
    beam = beam()
    want_finished, want_beam, want_stats = reference_beam_core(model, (3, 7, 5, 9), PARAMS)
    assert (best, [entry[:3] for entry in beam]) == (best_finish(want_finished), want_beam)
    assert replace(stats, wall_time_us=0) == want_stats
    task = TsTask("t", TokenSeq((3, 7, 5, 9)), TokenSeq((4,)), TokenSeq((6, 2)))
    got, want = decode.psgd(model, task), decode.psgd_two_pass(model, task)
    assert (got.span, got.whole_seq_score) == (want.span, want.whole_seq_score)


def run_loop(loop, source, target):
    """Run the log ``loop`` from the float64 array ``source`` to ``target``,
    as ``struct tsd_rows`` calls it."""
    args = (ctypes.c_void_p * 2)(source.ctypes.data, target.ctypes.data)
    dimensions, steps = (ctypes.c_ssize_t * 1)(len(source)), (ctypes.c_ssize_t * 2)(8, 8)
    rowkernel._LOOP(loop.function)(args, dimensions, steps, loop.data)


def test_the_log_loop_writes_np_logs_bytes():
    # Finished rows of several concentrations, BOS at 1.0 as the kernel sets
    # it, with entries at the floor: every length 1..301 at offsets 0-3,
    # out of place and in place.
    loop = rowkernel.log_loop()
    if loop is None:
        pytest.skip("numpy's float64 log loop is not found here")
    rows = [NgramGenModel(Vocab(20), 2, 5, c)._python_rows((2,), [(k,) for k in range(2, 8)])
            for c in (0.2, 0.001, 1.0)]
    values = np.concatenate(rows).ravel()
    values[values == 0.0] = 1.0
    assert (values[:301] == lm.EPS_FLOOR).sum() > 10 and (values[:301] == 1.0).sum() == 16
    for n in range(1, 302):
        for offset in range(4):
            source = np.empty(n + offset)[offset:]
            source[:] = values[:n]
            want = np.log(source).tobytes()
            target = np.full(n + offset, math.nan)[offset:]
            run_loop(loop, source, target)
            assert target.tobytes() == want
            run_loop(loop, source, source)
            assert source.tobytes() == want


def _refused_check(loop):
    return False


@needs_compiler
@pytest.mark.parametrize("refusal", [(rowkernel, "_log_loop", _refuse), (rowkernel, "log_self_check", _refused_check)],
                         ids=["lookup-fails", "check-fails"])
def test_a_missing_or_refused_log_loop_warns_once_and_keeps_every_function(refusal, monkeypatch):
    monkeypatch.setattr(*refusal)
    monkeypatch.setattr(rng, "_compiled", None)
    monkeypatch.setattr(rng, "_log", None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        functions = rng.compiled()
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "numpy's float64 log loop is not used" in str(caught[0].message)
    assert rng._log is None and not fallen_back(functions)


def decoded_with_and_without_the_log_loop(monkeypatch, suggest, searched_in_c):
    """``suggest(model, task)`` on a fresh sibling model with the log loop
    and without it: each time the suggestion's span, score bytes, stats
    and memo bytes. The searches draw rows in C only with the loop, and
    then whenever ``searched_in_c``; every other missed row takes
    ``_draw``."""
    log, drawn = rng._log, drawn_rows(monkeypatch)
    task = TsTask("t", TokenSeq((3, 7, 5)), TokenSeq((4,)), TokenSeq((6, 2)))
    outcomes = []
    for loop in (log, None):
        monkeypatch.setattr(rng, "_log", loop)
        drawn.clear()
        model = make_perturbed_sibling(NgramGenModel(Vocab(12), 2, 9, 0.2), 5, 0.5)
        got = suggest(model, task)
        outcomes.append((got.span, got.whole_seq_score.hex(), replace(got.stats, wall_time_us=0), memo_bytes(model)))
        in_c = searched_in_c and loop is not None and "kernel" in kernel_paths("block")
        assert (True in {by_kernel for _, _, by_kernel in drawn}) == in_c
    return outcomes


@on_every_path("beam_search")
def test_without_the_log_loop_a_dba_decode_takes_draw_with_the_same_bytes(beam_path, monkeypatch):
    with_loop, without = decoded_with_and_without_the_log_loop(
        monkeypatch, lambda model, task: decode.dba_suggest(model, task, beam_width=3), beam_path == "kernel")
    assert with_loop == without


@on_every_path("psgd_search")
def test_without_the_log_loop_a_psgd_decode_takes_draw_with_the_same_bytes(round_path, monkeypatch):
    with_loop, without = decoded_with_and_without_the_log_loop(monkeypatch, decode.psgd, round_path == "kernel")
    assert with_loop == without


@pytest.mark.parametrize("path", ["python", "kernel"])
def test_a_kernel_decode_reads_and_draws_no_row_in_python(monkeypatch, path):
    # On the kernel path, PSGD reads its fixed terms' rows in C and DBA
    # scores an output that is prefix + span + suffix from its own finish:
    # neither calls rows_after or _draw. In Python both read every row
    # through rows_after and draw each missed one with _draw.
    functions = rng.compiled()
    if path == "kernel" and not (functions.beam_search and functions.psgd_search and functions.block and rng._log):
        pytest.skip("the compiled searches, the row block or the log loop is not used here")
    drawn, reads = drawn_rows(monkeypatch), []
    rows_after = vars(lm.SequenceModel)["rows_after"]
    monkeypatch.setattr(lm.SequenceModel, "rows_after",
                        lambda self, source, prefixes: reads.append(source) or rows_after(self, source, prefixes))
    # Prefix (5,) and suffix (6, 2, 3) at order 2: the fixed terms are the
    # prefix term, after BOS, a tail term after (6, 2) and the EOS term
    # after (2, 3).
    task = TsTask("t", TokenSeq((3, 7, 5)), TokenSeq((5,)), TokenSeq((6, 2, 3)))
    fixed = {((3, 7, 5), context) for context in ((0,), (6, 2), (2, 3))}
    model = NgramGenModel(Vocab(12), 2, seed=9, concentration=0.2)
    with run_by("psgd_search", path), run_by("beam_search", path):
        decode.psgd(model, task)
        psgd_drawn, psgd_reads = list(drawn), len(reads)
        got = decode.dba_suggest(model, task, beam_width=3)
    assert got.span.tokens == (5, 7, 6, 5, 9, 11, 6, 2, 4, 2, 6, 6)  # the output is prefix + span + suffix
    by_kernel = {(source, context): kernel for source, context, kernel in psgd_drawn}
    assert {by_kernel[key] for key in fixed} == {path == "kernel"}
    if path == "kernel":
        assert (psgd_reads, len(reads), {kernel for _, _, kernel in drawn}) == (0, 0, {True})
    else:
        assert 0 < psgd_reads < len(reads) and {kernel for _, _, kernel in drawn} == {False}


@needs_compiler
def test_kernel_source_compiles_without_warnings(tmp_path):
    flags = ["-std=c99", "-Wall", "-Wextra", "-Werror", "-ffp-contract=off", "-O2", "-c"]
    command = [*COMPILER, *flags, str(rowkernel.SOURCE), "-o", str(tmp_path / "rowkernel.o")]
    proc = subprocess.run(command, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_program_loads_no_kernel():
    src = str(Path(rng.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, tsdecode.cli; print('tsdecode.rowkernel' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "order", [("rows", "beams", "psgd"), ("beams", "rows", "psgd"), ("psgd", "beams", "rows")],
    ids=["rows", "beams", "psgd"],
)
def test_a_process_loads_the_kernel_once(order, monkeypatch):
    # Row blocks, beam searches and PSGD decodes share one load, whichever
    # comes first.
    monkeypatch.setattr(rng, "_compiled", None)
    calls = []
    load = rowkernel.load

    def counted(directory=None, log=None):
        calls.append(1)
        return load(directory, log)

    monkeypatch.setattr(rowkernel, "load", counted)
    model = NgramGenModel(Vocab(12), 2, seed=9, concentration=0.2)
    uses = {
        "rows": lambda: model._finished_rows((3, 7, 5, 9), [(0,), (0, 3)]),
        "beams": lambda: decode.beam_search(model, (3, 7, 5, 9), 4, 10),
        "psgd": lambda: decode.psgd(model, TsTask("t", TokenSeq((3, 7)), TokenSeq((4,)), TokenSeq((6, 2)))),
    }
    for name in order:
        uses[name]()
    assert len(calls) == 1
    assert rng.compiled() is rng.compiled()


def test_threads_that_first_use_the_kernel_at_once_load_it_once(monkeypatch):
    # Without rng's lock every thread would see no kernel during the slow
    # load and load its own.
    monkeypatch.setattr(rng, "_compiled", None)
    calls = []

    def slow_load(directory=None, log=None):
        calls.append(1)
        time.sleep(0.05)
        return rowkernel.Functions()

    monkeypatch.setattr(rowkernel, "load", slow_load)
    start = threading.Barrier(3)
    got = [None] * 3

    def first_use(i):
        start.wait(timeout=10)
        got[i] = rng.compiled()

    threads = [threading.Thread(target=first_use, args=(i,)) for i in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert len(calls) == 1
    assert got[0] == rowkernel.Functions() and all(functions is got[0] for functions in got)


def test_drawing_a_row_loads_no_openssl():
    # The cached kernel's name is zlib's CRC-32 and Adler-32: hashlib would
    # load OpenSSL's _hashlib into every process that draws a row.
    src = str(Path(rng.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, tsdecode.cli\n"
        "from tsdecode import core, lm, rng\n"
        "lm.NgramGenModel(core.Vocab(20), 2, 1, 0.2)._finished_rows((2,), [()])\n"
        "print(rng._compiled.block is not None, '_hashlib' in sys.modules)"
    )
    # A first draw that waits for rng's lock forever fails here, not hangs.
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split() == [str(rng.compiled().block is not None), "False"]


@needs_compiler
def test_the_cached_name_changes_with_the_source_and_the_platform(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    assert all(rowkernel.load(cache))
    changed = tmp_path / "_rowkernel.c"
    changed.write_bytes(rowkernel.SOURCE.read_bytes() + b"\n")
    monkeypatch.setattr(rowkernel, "SOURCE", changed)
    assert all(rowkernel.load(cache))
    platform = sysconfig.get_platform()
    monkeypatch.setattr(sysconfig, "get_platform", lambda: platform + "-other")
    assert all(rowkernel.load(cache))
    monkeypatch.setattr(rowkernel, "FLAGS", rowkernel.FLAGS + ("-g",))
    assert all(rowkernel.load(cache))
    assert len(list(cache.glob("rowkernel-*.so"))) == 4
