"""RIB text files: one CIDR prefix per line, read as columns.

The format ``repro stream --rib`` takes: ``a.b.c.d/len`` per line, a
bare address meaning a /32 host route, ``#`` starting a comment, blank
lines ignored. What is accepted is what :meth:`Prefix.parse` accepts —
but a backbone table is ~100k lines, so the digits of the whole file
are parsed with array operations, and only a line that pass cannot
fully account for (odd spacing, four-digit octets, any fault) is handed
to :meth:`Prefix.parse` itself, so the accept set and the error
messages cannot drift apart.
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
    closing = np.flatnonzero(raw[marks] == _NEWLINE)
    ends = marks[closing]
    starts = np.append(0, ends[:-1] + 1)
    inner = np.diff(closing, prepend=-1) - 1  # separators inside the line
    plain = (inner == 3) | (inner == 4)
    plain[np.searchsorted(ends, np.flatnonzero(raw > _NINE))] = False
    lines = np.flatnonzero(plain)
    # field j — four octets, then the length — lies between edges j and
    # j + 1 (for a bare host address the length's two edges coincide)
    first = closing[lines] - inner[lines]
    between = [marks[first + j] for j in range(4)]
    edges = np.stack([starts[lines] - 1, *between, ends[lines]], axis=1)
    widths = np.diff(edges, axis=1) - 1
    values = np.zeros(widths.shape, dtype=np.int64)
    for place, weight in ((1, 1), (2, 10), (3, 100)):
        byte = raw[np.maximum(edges[:, 1:] - place, 0)].astype(np.int64)
        values += np.where(widths >= place, byte - _ZERO, 0) * weight
    bare = inner[lines] == 3
    values[bare, 4], widths[bare, 4] = 32, 2
    network = values[:, :4] @ (1 << np.array([24, 16, 8, 0]))
    good = (
        (raw[edges[:, 1:4]] == _DOT).all(axis=1)
        & (bare | (raw[edges[:, 4]] == _SLASH))
        & ((widths >= 1) & (widths <= 3)).all(axis=1)
        & (values[:, :4] <= 255).all(axis=1)
        & PrefixColumns(network, values[:, 4]).valid()
    )
    table = np.full((2, ends.size), -1, dtype=np.int64)  # -1: no prefix yet
    table[:, lines[good]] = network[good], values[good, 4]
    # whatever is left — anything unusual, anything wrong — goes through
    # the scalar parser, in line order so the first fault is the one told
    for line in np.flatnonzero((table[1] < 0) & (ends > starts)).tolist():
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
