"""Hypothesis strategies for the config and snapshot inputs the io and cli
tests feed in."""

from hypothesis import strategies as st

from dendrosim.io import CONFIG_KEYS

HEADER_KEYS = (b"nx", b"ny", b"dx", b"dt", b"step", b"field")
HEADER_VALUES = st.one_of(
    st.sampled_from([b"-4", b"0", b"2", b"3", b"4", b"1e400", b"nan", b"9" * 30]),
    st.binary(max_size=6),
)


def snapshot_bodies():
    """Complete headers with odd values, followed by a payload of whole cells."""
    header = st.tuples(*[HEADER_VALUES] * len(HEADER_KEYS)).map(
        lambda vs: b"".join(k + b" " + v + b"\n" for k, v in zip(HEADER_KEYS, vs))
    )
    payload = st.integers(0, 20).map(lambda n: b"\x00" * (8 * n))
    return st.tuples(header, payload).map(lambda hp: hp[0] + b"\n" + hp[1])


def config_texts():
    """Lines of known keys with arbitrary values, mixed with arbitrary lines."""
    line = st.one_of(
        st.tuples(st.sampled_from(CONFIG_KEYS), st.text(max_size=12)).map(" = ".join),
        st.text(max_size=30),
    )
    return st.lists(line, max_size=6).map("\n".join)
