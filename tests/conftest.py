import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from tsdecode.core import TokenSeq, TsTask, Vocab
from tsdecode.lm import TableModel

from util import run_by


# The four-token lookup fixture used throughout: bos=0, eos=1, a=2, b=3,
# order 1, single source [a]. Rows chosen so the modal sentence is "a b".
M1_TABLE = {
    ((2,), (0,)): [0.0, 0.1, 0.7, 0.2],
    ((2,), (2,)): [0.0, 0.2, 0.2, 0.6],
    ((2,), (3,)): [0.0, 0.6, 0.3, 0.1],
}


@pytest.fixture(scope="session")
def vocab4():
    return Vocab(size=4)


@pytest.fixture(scope="session")
def m1(vocab4):
    return TableModel(vocab4, 1, M1_TABLE)


@pytest.fixture(scope="session")
def m1_src():
    return TokenSeq((2,))


@pytest.fixture(scope="session")
def m1_task(m1_src):
    """Fill between prefix [a] and suffix [b] under the M1 model."""
    return TsTask("m1", m1_src, TokenSeq((2,)), TokenSeq((3,)))


@pytest.fixture(scope="session")
def m1_task_empty(m1_src):
    """Unconstrained task: both prefix and suffix empty."""
    return TsTask("m1e", m1_src, TokenSeq(()), TokenSeq(()))


@pytest.fixture
def finalize_path(request):
    """Finishes the test's rows by the row block named by its parameter,
    ``"python"`` or ``"kernel"`` (``util.kernel_paths``): the compiled
    block returns finished rows."""
    with run_by("finalize", request.param):
        yield request.param


@pytest.fixture
def beam_path(request):
    """Takes the test's beam-search steps with the step named by its
    parameter, ``"python"`` or ``"kernel"`` (``util.kernel_paths``)."""
    with run_by("beam_step", request.param):
        yield request.param


@pytest.fixture
def round_path(request):
    """Scores the test's PSGD rounds with the round named by its parameter,
    ``"python"`` or ``"kernel"`` (``util.kernel_paths``)."""
    with run_by("psgd_round", request.param):
        yield request.param
