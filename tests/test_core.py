import json
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

import tsdecode
from tsdecode.core import (
    MAX_VOCAB_SIZE,
    ReservedTokenInContent,
    ResultRow,
    TokenOutOfRange,
    TokenSeq,
    TsError,
    TsTask,
    Vocab,
    check_tokens,
    read_results_jsonl,
    read_tasks_jsonl,
    result_from_dict,
    result_to_dict,
    task_from_dict,
    task_to_dict,
    validate_task,
    write_results_jsonl,
    write_tasks_jsonl,
)

from util import reference_check_tokens


def make_task(source, prefix, suffix, gold_span=None, gold_full=None, task_id="t"):
    return TsTask(
        task_id,
        TokenSeq(tuple(source)),
        TokenSeq(tuple(prefix)),
        TokenSeq(tuple(suffix)),
        None if gold_span is None else TokenSeq(tuple(gold_span)),
        None if gold_full is None else TokenSeq(tuple(gold_full)),
    )


class TestVocab:
    def test_content_ids_exclude_reserved(self):
        assert Vocab(5).content_ids == (2, 3, 4)

    def test_too_small(self):
        with pytest.raises(ValueError):
            Vocab(2)

    def test_too_large(self):
        assert Vocab(MAX_VOCAB_SIZE).size == 2**20
        with pytest.raises(ValueError, match="vocab_size must be in"):
            Vocab(MAX_VOCAB_SIZE + 1)

    def test_bos_and_eos_ids_are_fixed(self):
        assert [f.name for f in fields(Vocab)] == ["size"]
        assert (Vocab(5).bos_id, Vocab(5).eos_id) == (0, 1)
        with pytest.raises(TypeError):
            Vocab(4, bos_id=1)


class TestValidateTask:
    def test_valid_task_passes_through(self):
        vocab = Vocab(10)
        task = make_task([2, 3], [4], [5], gold_span=[6], gold_full=[4, 6, 5])
        assert validate_task(task, vocab) is task

    def test_token_out_of_range(self):
        vocab = Vocab(10)
        task = make_task([2], [9, 10], [])
        with pytest.raises(TokenOutOfRange):
            validate_task(task, vocab)

    def test_reserved_token_in_content(self):
        vocab = Vocab(10)
        task = make_task([2], [], [vocab.eos_id])
        with pytest.raises(ReservedTokenInContent):
            validate_task(task, vocab)

    def test_empty_prefix_and_suffix_are_valid(self):
        validate_task(make_task([2], [], []), Vocab(10))


def test_gold_consistency_enforced():
    with pytest.raises(ValueError):
        make_task([2], [3], [4], gold_span=[5], gold_full=[3, 5, 5])


def test_token_seq_accepts_and_drops_a_positional_role():
    # bench/workloads.py still builds TokenSeq(tokens, role); the role is
    # neither stored nor compared.
    assert TokenSeq((2, 3), "prefix") == TokenSeq((2, 3))
    assert [f.name for f in fields(TokenSeq)] == ["tokens"]
    ref = (4, 5, 6, 7)
    task = TsTask(
        task_id="s000_m00",
        source=TokenSeq((8, 9), "source"),
        prefix=TokenSeq(ref[:1], "prefix"),
        suffix=TokenSeq(ref[3:], "suffix"),
        gold_span=TokenSeq(ref[1:3], "span"),
        gold_full=TokenSeq(ref, "target"),
    )
    assert task_from_dict(task_to_dict(task)) == task


content_tokens = st.lists(st.integers(min_value=2, max_value=99), max_size=6)


@st.composite
def tasks(draw):
    prefix = tuple(draw(content_tokens))
    suffix = tuple(draw(content_tokens))
    span = draw(st.none() | content_tokens.map(tuple))
    gold_full = None if span is None else prefix + span + suffix
    return make_task(
        tuple(draw(content_tokens)),
        prefix,
        suffix,
        gold_span=span,
        gold_full=gold_full,
        task_id=draw(st.text(st.characters(categories=("L", "N")), max_size=8)),
    )


@given(tasks())
def test_task_roundtrip_field_for_field(task):
    assert task_from_dict(task_to_dict(task)) == task


@given(tasks())
def test_task_dict_is_json_serializable(task):
    line = json.dumps(task_to_dict(task))
    assert task_from_dict(json.loads(line)) == task


def test_optional_fields_serialize_as_null():
    d = task_to_dict(make_task([2], [3], []))
    assert d["gold_span"] is None and d["gold_full"] is None


def test_tasks_jsonl_roundtrip(tmp_path):
    tasks_ = [
        make_task([2, 3], [4], [5], gold_span=[6], gold_full=[4, 6, 5], task_id="a"),
        make_task([7], [], [], task_id="b"),
    ]
    path = tmp_path / "tasks.jsonl"
    write_tasks_jsonl(path, tasks_)
    assert read_tasks_jsonl(path) == tasks_


def test_results_jsonl_roundtrip(tmp_path):
    rows = [
        ResultRow("a", "psgd", (2, 3), -1.25, 10, 40, 4, "patience", 123),
        ResultRow("b", "dba", (), 0.0, 0, 0, 0, "max_len", 0, error="ConstraintsUnsatisfiable"),
    ]
    path = tmp_path / "results.jsonl"
    write_results_jsonl(path, rows)
    assert read_results_jsonl(path) == rows


def test_result_dict_hides_absent_error():
    row = ResultRow("a", "psgd", (2,), -1.0, 1, 2, 1, "patience", 5)
    d = result_to_dict(row)
    assert "error" not in d
    assert result_from_dict(d) == row


def test_decode_stats_rejects_unknown_stop_reason():
    from tsdecode.core import DecodeStats

    with pytest.raises(ValueError):
        DecodeStats(1, 1, 0, "bored", 0)


def test_suggestion_requires_finite_score():
    from tsdecode.core import DecodeStats, Suggestion

    stats = DecodeStats(1, 1, 0, "patience", 0)
    with pytest.raises(ValueError):
        Suggestion(TokenSeq(()), float("-inf"), stats)


def test_public_names_resolve():
    names = tsdecode.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    for name in names:
        assert hasattr(tsdecode, name), f"tsdecode.__all__ names missing {name!r}"


@given(
    st.integers(min_value=3, max_value=12).flatmap(
        lambda size: st.tuples(st.just(size), st.lists(st.integers(min_value=-3, max_value=size + 2), max_size=8))
    ),
    st.booleans(),
)
def test_check_tokens_raises_as_its_loop_does(sized, content):
    # Ids from -3 to size + 2 at every position, BOS and EOS among them:
    # the fast path accepts exactly what the loop accepts, and otherwise the
    # loop raises its first error.
    size, tokens = sized

    def outcome(check):
        try:
            check(tuple(tokens), Vocab(size), "seq", content)
        except TsError as exc:
            return type(exc), str(exc)
        return None

    assert outcome(check_tokens) == outcome(reference_check_tokens)
