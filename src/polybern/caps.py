"""Input caps that the CLI and the library share.

This module imports nothing from polybern, so the CLI can check a literal or
a polylog order before it loads the code that would compute with it.
"""

#: The most digits of one integer literal, in an expression or a CLI flag.
MAX_LITERAL_DIGITS = 100

#: The largest |k| of a polylog order. For |k| >= N the weights m^(-k),
#: m <= N, have |k| log2(N) bits, so |k| bounds the size of exact values.
MAX_ABS_K = 20_000


def check_k(k: int) -> int:
    """``k`` itself if it is an ``int`` of at most ``MAX_ABS_K`` in absolute
    value; else ``TypeError`` (a ``bool`` included) or ``ValueError``."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError(f"k must be an int, not {type(k).__name__}")
    if abs(k) > MAX_ABS_K:
        raise ValueError(f"|k| must be at most {MAX_ABS_K}, not {abs(k)}")
    return k
