"""The compiled row kernel: build, cache, load and check ``_rowkernel.c``.

``_rowkernel.c`` is ``rng.Stream._gammas``, the loop that draws the gamma
variates of a Dirichlet row, in C, statement for statement. ``rng`` calls
``load`` when a process draws its first row, never at import, and draws
every row with the kernel if ``load`` returns it, with the much slower
``_gammas`` otherwise.

``load`` builds the kernel with the C compiler the running Python was built
with (``sysconfig``'s ``CC``) and ``FLAGS``, which keep every float
operation as the source writes it: never fast-math or ``-march=native``,
as a fused multiply-add or a reordered sum changes bytes. The shared object
is cached in ``cache_dir()``, a directory only its owner may write, under a
name that is a 64-bit ``rng.hash_key`` of the source, the compile command
and the platform, so a changed source or compiler builds a new file; the
name needs no ``hashlib``, which loads OpenSSL into the process. It is written
to a temporary file and moved into place, so processes that build it at
once never load half a file.

Before the kernel is used, ``self_check`` draws ``CHECK_ROWS`` through both
loops and requires every variate's bytes and every draw count to match. No
compiler, a failed build or load, or a mismatch gives None, and rows are
drawn by ``_gammas`` exactly as without the kernel. Without a compiler that
is silent; any other failure is reported by one ``RuntimeWarning``. The
cache holds code, never rows: every command still draws every row it
reads.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import shutil
import sysconfig
import warnings
from pathlib import Path

from .rng import Stream, hash_key

SOURCE = Path(__file__).with_name("_rowkernel.c")
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

# (key, draws consumed before the row, concentration, n): rows the kernel
# must reproduce, byte for byte, before it is used. A boosted vocab-20 row
# with a long run of rejections, more than 4n + 16 draws (key
# hash_key(29, 20, 1098)), an unboosted row after three draws, the shape
# 1.0 edge that does not boost, a vocab-100 row at concentration 0.05, and
# a row whose every boost ``pow`` underflows to 0 (key hash_key(31, 8)).
CHECK_ROWS = (
    (0x863357EB4D8456EF, 0, 0.2, 20),
    (0x243F6A8885A308D3, 3, 2.5, 19),
    (0x13198A2E03707344, 0, 1.0, 7),
    (0xA4093822299F31D0, 1, 0.05, 99),
    (0x0E8764AD5652F529, 0, 0.001, 3),
)


def compiler() -> list[str] | None:
    """The C compiler this Python was built with, as a command; None when
    it names none."""
    cc = sysconfig.get_config_var("CC")
    return shlex.split(cc) if cc else None


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/tsdecode``, or ``~/.cache/tsdecode`` when
    ``XDG_CACHE_HOME`` is unset or not an absolute path."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    return (Path(base) if os.path.isabs(base) else Path.home() / ".cache") / "tsdecode"


def load(directory: Path | None = None):
    """The kernel's ``tsd_gammas`` from ``directory`` (``cache_dir()`` by
    default), built there first if it is not there yet; None when there is
    no compiler, or when the kernel cannot be built or loaded or fails
    ``self_check``, which is reported as a warning."""
    cc = compiler()
    if cc is None or shutil.which(cc[0]) is None:
        return None
    try:
        command = [*cc, *FLAGS]
        directory = cache_dir() if directory is None else directory
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        _check_private(directory)
        data = SOURCE.read_bytes() + "\0".join([*command, sysconfig.get_platform()]).encode()
        words = memoryview(data + bytes(-len(data) % 8)).cast("Q")
        path = directory / f"rowkernel-{hash_key(len(data), words):016x}.so"
        if not path.exists():
            _compile(command, path)
        kernel = _open(path)
        if self_check(kernel):
            return kernel
        problem = "its rows differ from the Python loop's"
    except Exception as exc:  # whatever fails, rows are drawn by the Python loop
        problem = repr(exc)
    warnings.warn(f"the row kernel is not used ({problem}); rows are drawn in Python", RuntimeWarning, stacklevel=2)
    return None


def _check_private(directory: Path) -> None:
    """Refuse a cache directory that another user owns or may write: code
    loaded from it runs in this process."""
    st = directory.stat()
    if st.st_mode & 0o022 or st.st_uid != os.getuid():
        raise PermissionError(f"{directory} is not private to this user")


def _compile(command: list[str], path: Path) -> None:
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run([*command, "-o", tmp, str(SOURCE), "-lm"], capture_output=True, text=True, timeout=300)
        if proc.returncode:
            raise OSError(f"{command[0]} exited with {proc.returncode}: {proc.stderr.strip()[-400:]}")
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _open(path: Path):
    kernel = ctypes.CDLL(str(path)).tsd_gammas
    kernel.argtypes = (ctypes.c_uint64, ctypes.c_uint64, ctypes.c_int64, ctypes.c_double,
                       ctypes.POINTER(ctypes.c_double))
    kernel.restype = ctypes.c_uint64
    return kernel


def self_check(kernel) -> bool:
    """Whether ``kernel`` draws every row of ``CHECK_ROWS`` with the bytes
    and the draw count of ``rng.Stream._gammas``."""
    for key, start, concentration, n in CHECK_ROWS:
        stream = Stream(key)
        stream._counter = start
        want = stream._gammas(concentration, n)
        got = (ctypes.c_double * n)()
        drawn = kernel(key, start, n, concentration, got)
        if bytes(got) != bytes((ctypes.c_double * n)(*want)) or start + drawn != stream._counter:
            return False
    return True
