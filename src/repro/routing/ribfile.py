"""RIB text files: one CIDR prefix per line, read as columns.

The format ``repro stream --rib`` takes: ``a.b.c.d/len`` per line, a
bare address meaning a /32 host route, ``#`` starting a comment, blank
lines ignored. What is accepted is what :meth:`Prefix.parse` accepts —
but a backbone table is ~100k lines, so the whole file is parsed with
array operations, and only a line that pass cannot fully account for
(odd spacing, four-digit octets, any fault) is handed to
:meth:`Prefix.parse` itself, so the accept set and the error messages
cannot drift apart.

The pass works on separators, the bytes below ``"0"``: each closes one
field, and its distance to the separator before it is the field's
width. The up-to-three digits before every separator are read at once
as ``uint8`` columns and summed into ``uint16`` values, so a field
costs a few narrow operations, not an int64 temporary per place. A
line is taken when it has three dots and, unless it is a bare address,
a slash, each field one to three digits and each octet at most 255,
and the prefix passes :meth:`PrefixColumns.valid`. :func:`read_rib`
then sorts the keys once and drops repeats, which is the sorted,
duplicate-free order :class:`~repro.routing.lpm.CompiledLpm` checks
in one pass instead of sorting again.
"""

from __future__ import annotations

import re

import numpy as np

from repro.errors import AddressError, ClassificationError, ReproError
from repro.net.prefix import Prefix, PrefixColumns
from repro.routing.lpm import CompiledLpm

#: A comment, and blanks at either end of a line.
_NOISE = re.compile(r"[ \t]*#[^\n]*|^[ \t]+|[ \t]+$", re.MULTILINE)
_DOT, _SLASH, _NEWLINE, _ZERO, _NINE = b"./\n09"


def parse_prefix_lines(text: str, source: str = "RIB") -> PrefixColumns:
    """The prefixes of ``text``, one per non-blank line, in line order.

    A line :meth:`Prefix.parse` refuses raises its
    :class:`~repro.errors.AddressError`, naming ``source`` and the line.
    """
    if "#" in text or " " in text or "\t" in text:
        text = _NOISE.sub("", text)
    data = (text if text.endswith("\n") else text + "\n").encode()
    raw = np.frombuffer(data, dtype=np.uint8)
    # every byte below "0" is a separator; a line the vector pass takes
    # has exactly ". . . \n" or ". . . / \n", and digits between them
    marks = np.flatnonzero(raw < _ZERO)
    kinds = raw[marks]
    closing = np.flatnonzero(kinds == _NEWLINE)
    ends = marks[closing]
    starts = np.append(0, ends[:-1] + 1)
    inner = np.diff(closing, prepend=-1) - 1  # separators inside the line
    plain = (inner == 3) | (inner == 4)
    plain[np.searchsorted(ends, np.flatnonzero(raw > _NINE))] = False
    # per separator, the field it closes: one to three digits (``gap``
    # is one more than the field's width), worth at most 999 — uint16.
    # A byte before a field's first digit may be read (clipped to the
    # text), never counted.
    gap = np.diff(marks, prepend=-1)
    fits = (gap - 2).view(np.uint64) < 3
    value = raw.take(marks - 1, mode="clip") - np.uint8(_ZERO)
    value = value.astype(np.uint16)  # the units; tens and hundreds next
    for place, weight in ((2, 10), (3, 100)):
        digit = raw.take(marks - place, mode="clip") - np.uint8(_ZERO)
        digit *= gap > place
        value += digit * np.uint16(weight)
    octet = fits & (value <= 255)
    lines = np.flatnonzero(plain)
    last = closing[lines]  # the separator that ends the line
    first = last - inner[lines]
    bare = inner[lines] == 3  # a host address: no "/length" field
    good = fits[last] & (bare | (kinds[first + 3] == _SLASH))
    network = np.zeros(lines.size, dtype=np.int64)
    for field in range(4):
        good &= octet[first + field]
        if field < 3:
            good &= kinds[first + field] == _DOT
        network |= value[first + field].astype(np.int64) << 24 - 8 * field
    length = np.where(bare, 32, value[last])
    good &= PrefixColumns(network, length).valid()
    rest = ends > starts  # the non-blank lines the pass did not take
    rest[lines[good]] = False
    if not rest.any():
        return PrefixColumns(network[good], length[good])
    table = np.full((2, ends.size), -1, dtype=np.int64)  # -1: no prefix yet
    table[:, lines[good]] = network[good], length[good]
    # whatever is left — anything unusual, anything wrong — goes through
    # the scalar parser, in line order so the first fault is the one told
    for line in np.flatnonzero(rest).tolist():
        content = data[starts[line] : ends[line]].decode().strip()
        if content:
            try:
                prefix = Prefix.parse(content)
            except AddressError as exc:
                raise AddressError(f"{source} line {line + 1}: {exc}") from exc
            table[:, line] = prefix.network, prefix.length
    return PrefixColumns(*table[:, table[1] >= 0])


def read_rib(path: str) -> CompiledLpm:
    """Compile the RIB file at ``path`` for batch longest-prefix match.

    A prefix listed twice — a BGP dump has one line per path — is one
    flow key and is kept once.
    """
    try:
        with open(path) as stream:
            text = stream.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ClassificationError(
            f"cannot read RIB file {path!r}: {exc}"
        ) from exc
    keys = np.sort(parse_prefix_lines(text, f"RIB file {path}").keys())
    if not keys.size:
        raise ReproError(f"no prefixes in RIB file {path}")
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    return CompiledLpm(PrefixColumns(keys >> 6, keys & 63))
