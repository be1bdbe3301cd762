"""Each struct of ``_rowkernel.c`` that Python lays out has the fields of
its ctypes mirror in ``rowkernel``, in order. A field left out, added or
moved on one side only shifts every later field, and the kernel would
read and write the wrong ones; the search checks would then crash the
process that loads the kernel rather than fail. This module loads no
kernel, so it runs, and names the field, even then."""

import re

import pytest

from tsdecode import rowkernel

# Each struct of _rowkernel.c that Python lays out, and its ctypes mirror.
MIRRORS = {"tsd_source": rowkernel._Source, "tsd_rows": rowkernel._RowBuffers,
           "tsd_search": rowkernel._SearchBuffers, "tsd_psgd": rowkernel._PsgdBuffers}


def c_fields(code, name):
    """The field names of ``struct name`` in the comment-free ``code``, in
    order; a first field that is a mirrored struct counts as its fields, as
    a ctypes base class's come first."""
    body = re.search(rf"^struct {name} \{{(.*?)^\}};", code, flags=re.S | re.M).group(1)
    fields = []
    for declaration in body.split(";")[:-1]:
        base = re.fullmatch(r"\s*struct (\w+) \w+\s*", declaration)
        if not fields and base and base.group(1) in MIRRORS:
            fields += c_fields(code, base.group(1))
        else:
            fields += [re.fullmatch(r"\**(\w+)(\[\d+\])?", part.split()[-1]).group(1)
                       for part in declaration.split(",")]
    return fields


@pytest.mark.parametrize("name", sorted(MIRRORS))
def test_every_struct_mirror_has_the_c_fields_in_order(name):
    code = re.sub(r"/\*.*?\*/", "", rowkernel.SOURCE.read_text(), flags=re.S)
    mirror = [field[0] for cls in reversed(MIRRORS[name].__mro__) for field in vars(cls).get("_fields_", ())]
    assert mirror == c_fields(code, name)
