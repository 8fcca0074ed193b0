"""The creator stream as a generator, as the package drew it before every
round loop compared ``rand() < alpha`` inline.  Kept as the reference the
package's one draw source must match: the same creators from a seed, and
the same errors for a bad explicit list."""

import random
from typing import Iterator, Optional

from posmine.blocktree import MINER1, MINER2


def creator_stream(
    alpha: float, seed: Optional[int], explicit=None, needed: Optional[int] = None
) -> Iterator[int]:
    """The creator of each round: the ``explicit`` list if one is given
    (it must hold at least ``needed`` entries, each 1 or 2), else Miner 1
    with probability ``alpha`` from ``random.Random(seed)``, one draw a
    round."""
    if explicit is None:
        return _draws(alpha, random.Random(seed))
    if needed is not None and len(explicit) < needed:
        raise ValueError(f"{len(explicit)} creators given, {needed} needed")
    for c in explicit[:needed]:
        if c != MINER1 and c != MINER2:
            raise ValueError(f"creator must be 1 or 2, got {c}")
    return iter(explicit)


def _draws(alpha: float, rng: random.Random) -> Iterator[int]:
    while True:
        yield MINER1 if rng.random() < alpha else MINER2
