"""The columnar RIB reader against the line loop it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError, ClassificationError, ReproError
from repro.net.prefix import Prefix, PrefixColumns
from repro.routing.ribfile import parse_prefix_lines, read_rib


def line_loop(path):
    """The boxed loader ``repro stream --rib`` used to run (the oracle):
    one ``Prefix.parse`` per line, with the error text the new one owes."""
    prefixes = []
    try:
        with open(path) as stream:
            for number, line in enumerate(stream, 1):
                line = line.split("#", 1)[0].strip()
                if line:
                    try:
                        prefixes.append(Prefix.parse(line))
                    except AddressError as exc:
                        return f"RIB file {path} line {number}: {exc}"
    except UnicodeDecodeError as exc:
        return f"cannot read RIB file {path!r}: {exc}"
    return prefixes or f"no prefixes in RIB file {path}"


def valid_line():
    """What the format allows: leading zeros, a bare host, stray blanks,
    a trailing comment — and prefixes of every length."""

    def render(address, length, pads, bare, lead, gap, comment):
        if not bare:
            address = address >> (32 - length) << (32 - length)
        text = ".".join(
            pad + str(address >> shift & 255)
            for pad, shift in zip(pads, (24, 16, 8, 0))
        )
        if not bare:
            text += f"/{length}"
        return lead + text + gap + comment

    return st.builds(
        render,
        st.integers(0, (1 << 32) - 1),
        st.integers(0, 32),
        st.lists(st.sampled_from(["", "", "0", "00"]), min_size=4, max_size=4),
        st.booleans(),
        st.sampled_from(["", "", " ", "\t "]),
        st.sampled_from(["", "", " ", "  \t"]),
        st.sampled_from(["", "", "# 10.0.0.0/8", "#", "# é 1.2.3/4"]),
    )


NOISE = ["", "   ", "# only a comment", "\t# 1.2.3.4/5", "\x0c"]
#: Lines only the scalar parser understands — and accepts.
QUIRKS = [
    "10.0.0.0 /8",
    "0000010.2.0.0/16",
    "10.3.0.0/0000016",
    "\x0b10.4.0.0/16\x0c",
    "١.2.3.4",  # an Arabic-Indic digit: isdigit() says yes
]
FAULTS = [
    "10.0.0.256/32",
    "10.0.0.0/33",
    "10.1.2.3/16",
    "10.1.2/24",
    "1..2.3/8",
    "10.0.0.0/",
    "10.0.0.0/8/8",
    "10.0.0.0 / 8",
    "10.0.0.0/ 8",
    "10.0.0.0/8x",
    "ten.0.0.0/8",
    "10.0.0.0/-1",
    "1.2.3.4.5/32",
    "/24",
    ".",
    "10.0.0.0/08x",
    "10,0.0.0/8",
    "10. 1.0.0/16",
]


@st.composite
def rib_bytes(draw):
    line = st.one_of(valid_line(), st.sampled_from(NOISE + QUIRKS))
    lines = draw(st.lists(line, max_size=30))
    fault = draw(st.one_of(st.none(), st.sampled_from(FAULTS + [b"\xff"])))
    if fault is not None:
        lines.insert(draw(st.integers(0, len(lines))), fault)
    endings = draw(
        st.lists(
            st.sampled_from([b"\n", b"\r\n"]),
            min_size=len(lines),
            max_size=len(lines),
        )
    )
    if lines and draw(st.booleans()):
        endings[-1] = b""  # no newline at end of file
    return b"".join(
        (line if isinstance(line, bytes) else line.encode()) + ending
        for line, ending in zip(lines, endings)
    )


class TestAgainstTheLineLoop:
    @settings(max_examples=300, deadline=None)
    @given(data=rib_bytes())
    def test_same_prefixes_or_same_error(self, data, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("rib") / "table.rib")
        with open(path, "wb") as stream:
            stream.write(data)
        expected = line_loop(path)
        if isinstance(expected, str):
            with pytest.raises(ReproError) as caught:
                read_rib(path)
            assert str(caught.value) == expected
        else:
            assert read_rib(path).prefixes == sorted(set(expected))
            with open(path) as stream:
                assert parse_prefix_lines(stream.read()) == expected

    def test_every_fault_alone(self, tmp_path):
        for number, fault in enumerate(FAULTS):
            path = tmp_path / f"fault{number}.rib"
            path.write_text(f"10.0.0.0/8\n\n{fault} # why\n11.0.0.0/8\n")
            with pytest.raises(AddressError) as caught:
                read_rib(str(path))
            assert str(caught.value) == line_loop(str(path))
            assert f"RIB file {path} line 3: " in str(caught.value)


class TestReadRib:
    def test_large_table_round_trips(self, tmp_path):
        rng = np.random.default_rng(4)
        length = rng.integers(8, 33, 30_000)
        network = rng.integers(0, 1 << 32, 30_000) >> (32 - length)
        columns = PrefixColumns(network << (32 - length), length)
        path = tmp_path / "big.rib"
        path.write_text("".join(f"{prefix}\n" for prefix in columns))
        with open(path) as stream:
            assert parse_prefix_lines(stream.read()) == columns
        assert read_rib(str(path)).prefixes == sorted(set(columns))

    def test_a_prefix_listed_twice_is_one_flow_key(self, tmp_path):
        # `show ip bgp` has one line per path
        path = tmp_path / "paths.rib"
        path.write_text("10.0.0.0/8\n192.0.2.0/24\n10.0.0.0/8\n010.0.0.0/8")
        lpm = read_rib(str(path))
        assert lpm.prefixes == [
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("192.0.2.0/24"),
        ]

    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.rib"
        path.write_text("# table\n10.0.0.0/8\r\n10.1.2.3/16\n")
        with pytest.raises(AddressError) as caught:
            read_rib(str(path))
        assert str(caught.value) == (
            f"RIB file {path} line 3: '10.1.2.3/16' has host bits set"
        )

    def test_empty_and_unreadable_files(self, tmp_path):
        empty = tmp_path / "empty.rib"
        empty.write_text("# nothing\n\n")
        with pytest.raises(ReproError, match="no prefixes in RIB file"):
            read_rib(str(empty))
        with pytest.raises(ClassificationError, match="cannot read RIB file"):
            read_rib(str(tmp_path / "missing.rib"))
        garbled = tmp_path / "garbled.rib"
        garbled.write_bytes(b"10.0.0.0/8\n\xff\xfe\n")
        with pytest.raises(ClassificationError, match="cannot read RIB file"):
            read_rib(str(garbled))
