"""The columnar summary codec against the boxed one it replaced.

``boxed_from_bytes`` is a test-side copy of the parser as it stood
before summaries held columns: one validated ``Prefix`` per entry, a
``set`` for duplicate-freedom, the constructor's checks in its order.
The columnar ``SlotSummary.from_bytes`` must return the same entries
or raise ``SummaryFormatError`` with the same text — for valid v1/v2
records, for records with one thing wrong, and for arbitrary bytes —
and nothing but ``SummaryFormatError`` may escape it.

The golden literals were recorded from the parent commit: a daemon
upgraded in place must keep reading the bytes its predecessor wrote,
and keep writing bytes its predecessor could read.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import SlotSummary, load_summaries, save_summaries
from repro.errors import ClassificationError, ReproError, SummaryFormatError
from repro.net.prefix import Prefix

MAGIC = b"RSUM"
HEADER = struct.Struct(">4sHqddddIH")
HEADER_V1 = struct.Struct(">4sHqdddIH")


def boxed_from_bytes(payload):
    """The pre-columns parser: fields as a dict, or SummaryFormatError."""
    if len(payload) < 6:
        raise SummaryFormatError("summary record truncated")
    magic, version = struct.unpack_from(">4sH", payload)
    if magic != MAGIC:
        raise SummaryFormatError(
            f"bad summary magic {magic!r}; expected {MAGIC!r}"
        )
    if version == 2:
        header = HEADER
    elif version == 1:
        header = HEADER_V1
    else:
        raise SummaryFormatError(
            f"summary version {version} unsupported (speaks 2)"
        )
    if len(payload) < header.size:
        raise SummaryFormatError("summary record truncated")
    fields = list(header.unpack_from(payload)[2:])
    if version == 1:
        fields.insert(4, 1.0)
    slot, start, seconds, residual, rate, count, name_len = fields
    offset = header.size
    expected = offset + name_len + count * (4 + 1 + 8)
    if len(payload) != expected:
        raise SummaryFormatError(
            f"summary record is {len(payload)} bytes; header "
            f"promises {expected}"
        )
    name = payload[offset : offset + name_len]
    offset += name_len
    networks = struct.unpack_from(f">{count}I", payload, offset)
    lengths = payload[offset + 4 * count : offset + 5 * count]
    volumes = struct.unpack_from(f">{count}d", payload, offset + 5 * count)
    try:
        prefixes = tuple(map(Prefix, networks, lengths))
        monitor = name.decode("utf-8")
        scalars = (start, seconds, residual, rate, *volumes)
        if not all(map(math.isfinite, scalars)):
            raise ClassificationError("summary fields must be finite")
        if seconds <= 0:
            raise ClassificationError("slot_seconds must be positive")
        if rate < 1.0:
            raise ClassificationError("sample_rate must be >= 1")
        if len(set(prefixes)) != len(prefixes):
            raise ClassificationError(
                "summary entries must be duplicate-free"
            )
        if residual < 0 or any(volume < 0 for volume in volumes):
            raise ClassificationError("byte volumes cannot be negative")
    except (ReproError, UnicodeDecodeError) as exc:
        raise SummaryFormatError(
            f"summary record carries invalid data: {exc}"
        ) from exc
    return {
        "slot": slot,
        "start": start,
        "slot_seconds": seconds,
        "prefixes": prefixes,
        "volumes": list(volumes),
        "residual_bytes": residual,
        "monitor": monitor,
        "sample_rate": rate,
    }


def outcome(parse, payload):
    """What a parser makes of ``payload``: its fields or its error."""
    try:
        parsed = parse(payload)
    except SummaryFormatError as exc:
        return "error", str(exc)
    if isinstance(parsed, SlotSummary):
        parsed = {
            "slot": parsed.slot,
            "start": parsed.start,
            "slot_seconds": parsed.slot_seconds,
            "prefixes": tuple(parsed.prefixes),
            "volumes": parsed.volumes.tolist(),
            "residual_bytes": parsed.residual_bytes,
            "monitor": parsed.monitor,
            "sample_rate": parsed.sample_rate,
        }
    return "parsed", parsed


def encode(version, slot, start, seconds, residual, rate, name, entries):
    """A wire record from raw fields, valid or not."""
    networks = [network for network, _, _ in entries]
    lengths = [length for _, length, _ in entries]
    volumes = [volume for _, _, volume in entries]
    count = len(entries)
    if version == 1:
        head = HEADER_V1.pack(
            MAGIC, 1, slot, start, seconds, residual, count, len(name)
        )
    else:
        head = HEADER.pack(
            MAGIC, 2, slot, start, seconds, residual, rate, count, len(name)
        )
    return b"".join(
        (
            head,
            name,
            struct.pack(f">{count}I", *networks),
            bytes(lengths),
            struct.pack(f">{count}d", *volumes),
        )
    )


@st.composite
def prefixes(draw):
    length = draw(st.integers(0, 32))
    index = draw(st.integers(0, (1 << length) - 1))
    return index << (32 - length), length


@st.composite
def records(draw):
    """The raw fields of a valid record (entries distinct)."""
    keys = draw(st.lists(prefixes(), max_size=12, unique=True))
    volume = st.floats(0.0, 1e12, allow_nan=False)
    return {
        "version": draw(st.sampled_from([1, 2])),
        "slot": draw(st.integers(-5, 1 << 40)),
        "start": draw(st.floats(-1e9, 2e9, allow_nan=False)),
        "seconds": draw(st.floats(1e-3, 1e6, allow_nan=False)),
        "residual": draw(volume),
        "rate": draw(st.floats(1.0, 1e4, allow_nan=False)),
        "name": draw(st.text(max_size=8)).encode("utf-8"),
        "entries": [(*key, draw(volume)) for key in keys],
    }


#: One thing wrong with a record. Each takes the valid fields and a
#: data source and returns the payload; the faults that need an entry
#: to break are skipped (by returning the valid record) without one.
def cut_anywhere(fields, data):
    payload = encode(**fields)
    return payload[: data.draw(st.integers(0, len(payload) - 1))]


def count_off_by_one(fields, data):
    payload = bytearray(encode(**fields))
    offset = (HEADER_V1 if fields["version"] == 1 else HEADER).size - 6
    (count,) = struct.unpack_from(">I", payload, offset)
    step = data.draw(st.sampled_from([-1, 1]))
    struct.pack_into(">I", payload, offset, max(count + step, 0))
    return bytes(payload)


def break_entry(change):
    def fault(fields, data):
        entries = list(fields["entries"])
        if entries:
            row = data.draw(st.integers(0, len(entries) - 1))
            entries[row] = change(entries[row])
        return encode(**{**fields, "entries": entries})

    return fault


def duplicate_entry(fields, data):
    entries = list(fields["entries"])
    if entries:
        entries.append(data.draw(st.sampled_from(entries)))
    return encode(**{**fields, "entries": entries})


def with_field(**changes):
    return lambda fields, data: encode(**{**fields, **changes})


FAULTS = {
    "cut": cut_anywhere,
    "count": count_off_by_one,
    "host-bits": break_entry(lambda e: (e[0] | 1, min(e[1], 31), e[2])),
    "length-33": break_entry(lambda e: (e[0], 33, e[2])),
    "duplicate": duplicate_entry,
    "nan-volume": break_entry(lambda e: (e[0], e[1], float("nan"))),
    "negative-volume": break_entry(lambda e: (e[0], e[1], -1.0)),
    "inf-volume": break_entry(lambda e: (e[0], e[1], float("inf"))),
    "rate-half": with_field(rate=0.5),
    "bad-utf8": with_field(name=b"mon-\xff"),
    "long-name": with_field(name=b"m" * 0xFFFF),
    "trailing": lambda fields, data: encode(**fields) + b"\x00garbage",
}


class TestAgainstTheBoxedParser:
    @settings(max_examples=150, deadline=None)
    @given(fields=records())
    def test_valid_records_parse_alike(self, fields):
        payload = encode(**fields)
        got = outcome(SlotSummary.from_bytes, payload)
        assert got == outcome(boxed_from_bytes, payload)
        assert got[0] == "parsed"
        if fields["version"] == 2:
            # and what was parsed goes back out as the bytes it came in
            assert SlotSummary.from_bytes(payload).to_bytes() == payload

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @settings(max_examples=40, deadline=None)
    @given(fields=records(), data=st.data())
    def test_one_fault_fails_alike(self, fault, fields, data):
        payload = FAULTS[fault](fields, data)
        got = outcome(SlotSummary.from_bytes, payload)
        assert got == outcome(boxed_from_bytes, payload)

    @settings(max_examples=300, deadline=None)
    @given(
        head=st.sampled_from(
            [b"", MAGIC, MAGIC + b"\x00\x01", MAGIC + b"\x00\x02"]
        ),
        tail=st.binary(max_size=80),
    )
    def test_arbitrary_bytes_fail_alike(self, head, tail):
        payload = head + tail
        got = outcome(SlotSummary.from_bytes, payload)
        assert got == outcome(boxed_from_bytes, payload)

    def test_the_first_bad_row_is_the_one_reported(self):
        entries = [(10 << 24, 8, 1.0), (1, 24, 2.0), (0, 40, 3.0)]
        payload = encode(2, 0, 0.0, 60.0, 0.0, 1.0, b"\xff", entries)
        # a bad row comes before a bad name, as it did for the boxed
        # parser, and the text is Prefix's own
        with pytest.raises(SummaryFormatError, match="0.0.0.1/24 has host"):
            SlotSummary.from_bytes(payload)


# -- golden bytes, recorded from the parent commit ---------------------

GOLDEN_SUMMARY = bytes.fromhex(
    "5253554d000200000000000000034066800000000000404e00000000000040c81cc00000"
    "000040490000000000000000000400066d6f6e2dc3a90a000000c0a8040000000000cb00"
    "7107081600204097700000000000000000000000000041e2a05f20000000405008000000"
    "0000"
)

GOLDEN_NPZ = bytes.fromhex(
    "504b03042d00000008000000210047b61024ffffffffffffffff0b00140076657273696f"
    "6e2e6e707901001000880000000000000046000000000000009bec17ea1b10c9c850c650"
    "ad9e925a9c5ca46ea5a06e9369a1aea3a09e965f54529498179f5f94920a12774bcc294e"
    "058a17672416a402f91a9a3a0ab50a14012e2606080000504b03042d0000000800000021"
    "00ba13ac99ffffffffffffffff10001400736c6f745f7365636f6e64732e6e7079010010"
    "00880000000000000047000000000000009bec17ea1b10c9c850c650ad9e925a9c5ca46e"
    "a5a06e9366a1aea3a09e965f54529498179f5f94920a12774bcc294e058a17672416a402"
    "f91a9a3a0ab50a14012e0630f0730000504b03042d000000080000002100a2e82eedffff"
    "ffffffffffff0b0014006d6f6e69746f722e6e7079010010009400000000000000500000"
    "00000000009bec17ea1b10c9c850c650ad9e925a9c5ca46ea5a06e136aaaaea3a09e965f"
    "54529498179f5f94920a12774bcc294e058a17672416a402f91a9a3a0ab50a1401ae5c06"
    "06867c20ce03625d207e09c400504b03042d000000080000002100333a1f4cffffffffff"
    "ffffff09001400736c6f74732e6e70790100100098000000000000004d00000000000000"
    "9bec17ea1b10c9c850c650ad9e925a9c5ca46ea5a06e9369a1aea3a09e965f5452949817"
    "9f5f94920a12774bcc294e058a17672416a402f91ac63a9a3a0ab50a14002e6606086081"
    "d26c501a00504b03042d000000080000002100fb99296dffffffffffffffff0a00140073"
    "74617274732e6e707901001000980000000000000052000000000000009bec17ea1b10c9"
    "c850c650ad9e925a9c5ca46ea5a06e9366a1aea3a09e965f54529498179f5f94920a1277"
    "4bcc294e058a17672416a402f91ac63a9a3a0ab50a14002e061068487300d30c7910baa1"
    "cc0100504b03042d000000080000002100e0b950edffffffffffffffff0d001400726573"
    "696475616c732e6e707901001000980000000000000050000000000000009bec17ea1b10"
    "c9c850c650ad9e925a9c5ca46ea5a06e9366a1aea3a09e965f54529498179f5f94920a12"
    "774bcc294e058a17672416a402f91ac63a9a3a0ab50a14002e0620382073c28101057cb0"
    "0700504b03042d0000000800000021004da12fe0ffffffffffffffff1000140073616d70"
    "6c655f72617465732e6e70790100100098000000000000004e000000000000009bec17ea"
    "1b10c9c850c650ad9e925a9c5ca46ea5a06e9366a1aea3a09e965f54529498179f5f9492"
    "0a12774bcc294e058a17672416a402f91ac63a9a3a0ab50a14002e0630f07480d01fec61"
    "3400504b03042d000000080000002100394f7c2dffffffffffffffff0a001400636f756e"
    "74732e6e70790100100098000000000000004a000000000000009bec17ea1b10c9c850c6"
    "50ad9e925a9c5ca46ea5a06e9369a1aea3a09e965f54529498179f5f94920a12774bcc29"
    "4e058a17672416a402f91ac63a9a3a0ab50a14002e160654c004a501504b03042d000000"
    "0800000021001b7d08cdffffffffffffffff0c0014006e6574776f726b732e6e70790100"
    "1000980000000000000059000000000000009bec17ea1b10c9c850c650ad9e925a9c5ca4"
    "6ea5a06e536aa2aea3a09e965f54529498179f5f94920a12774bcc294e058a17672416a4"
    "02f91a663a9a3a0ab50a14002e0606062e069615078034037b21c3690606813520310050"
    "4b03042d000000080000002100937a2e11ffffffffffffffff0b0014006c656e67746873"
    "2e6e70790100100086000000000000004a000000000000009bec17ea1b10c9c850c650ad"
    "9e925a9c5ca46ea5a05e536aa8aea3a09e965f54529498179f5f94920a12774bcc294e05"
    "8a17672416a402f91a663a9a3a0ab50a14002e0e3106051e0e00504b03042d0000000800"
    "000021005c160ccaffffffffffffffff0b001400766f6c756d65732e6e707901001000b0"
    "0000000000000062000000000000009bec17ea1b10c9c850c650ad9e925a9c5ca46ea5a0"
    "6e9366a1aea3a09e965f54529498179f5f94920a12774bcc294e058a17672416a402f91a"
    "663a9a3a0ab50a14002e06102898eec080000af10b1e3982591c01507119873f2b3f5ef2"
    "4d0ab00700504b01022d032d00000008000000210047b6102446000000880000000b0000"
    "00000000000000000080010000000076657273696f6e2e6e7079504b01022d032d000000"
    "080000002100ba13ac994700000088000000100000000000000000000000800183000000"
    "736c6f745f7365636f6e64732e6e7079504b01022d032d000000080000002100a2e82eed"
    "50000000940000000b000000000000000000000080010c0100006d6f6e69746f722e6e70"
    "79504b01022d032d000000080000002100333a1f4c4d0000009800000009000000000000"
    "0000000000800199010000736c6f74732e6e7079504b01022d032d000000080000002100"
    "fb99296d52000000980000000a0000000000000000000000800121020000737461727473"
    "2e6e7079504b01022d032d000000080000002100e0b950ed50000000980000000d000000"
    "00000000000000008001af020000726573696475616c732e6e7079504b01022d032d0000"
    "000800000021004da12fe04e0000009800000010000000000000000000000080013e0300"
    "0073616d706c655f72617465732e6e7079504b01022d032d000000080000002100394f7c"
    "2d4a000000980000000a00000000000000000000008001ce030000636f756e74732e6e70"
    "79504b01022d032d0000000800000021001b7d08cd59000000980000000c000000000000"
    "00000000008001540400006e6574776f726b732e6e7079504b01022d032d000000080000"
    "002100937a2e114a000000860000000b00000000000000000000008001eb0400006c656e"
    "677468732e6e7079504b01022d032d0000000800000021005c160cca62000000b0000000"
    "0b0000000000000000000000800172050000766f6c756d65732e6e7079504b0506000000"
    "000b000b007c020000110600000000"
)


def assert_same_summary(got, want):
    assert (got.slot, got.start, got.slot_seconds) == (
        want.slot,
        want.start,
        want.slot_seconds,
    )
    assert got.prefixes == want.prefixes
    assert got.volumes.tolist() == want.volumes.tolist()
    assert got.residual_bytes == want.residual_bytes
    assert (got.monitor, got.sample_rate) == (want.monitor, want.sample_rate)


class TestGoldenBytes:
    """``golden_run`` (conftest.py) is what the literals were made of."""

    def test_to_bytes_writes_the_parents_record(self, golden_run):
        assert golden_run[0].to_bytes() == GOLDEN_SUMMARY

    def test_from_bytes_reads_the_parents_record(self, golden_run):
        got = SlotSummary.from_bytes(GOLDEN_SUMMARY)
        assert_same_summary(got, golden_run[0])

    def test_load_summaries_reads_the_parents_npz(self, golden_run, tmp_path):
        path = tmp_path / "parent.npz"
        path.write_bytes(GOLDEN_NPZ)
        got = load_summaries(str(path))
        assert len(got) == 3
        for mine, theirs in zip(got, golden_run):
            assert_same_summary(mine, theirs)

    def test_save_summaries_writes_the_parents_arrays(
        self, golden_run, tmp_path
    ):
        """Same members, dtypes, shapes and values as the parent wrote
        (the deflate stream itself may differ between zlib builds)."""
        (tmp_path / "parent.npz").write_bytes(GOLDEN_NPZ)
        save_summaries(str(tmp_path / "mine.npz"), golden_run)
        with (
            np.load(tmp_path / "parent.npz") as theirs,
            np.load(tmp_path / "mine.npz") as mine,
        ):
            assert mine.files == theirs.files
            for name in theirs.files:
                assert mine[name].dtype == theirs[name].dtype, name
                assert mine[name].tolist() == theirs[name].tolist(), name
