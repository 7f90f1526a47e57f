"""Named random substreams derived from one root seed.

Every stochastic stage (data generation, weight init, relaxation noise,
shuffling) draws from its own child of the root
``SeedSequence``, so adding draws to one stage never perturbs another
and full runs are reproducible from a single integer.
"""

from __future__ import annotations

import numpy as np

STREAMS = ("data", "init", "noise", "shuffle")

_STREAM_IDS = {name: i for i, name in enumerate(STREAMS)}


def substream(seed: int, name: str, index: int = 0) -> np.random.Generator:
    """Generator for stream ``name`` (see :data:`STREAMS`) under ``seed``.

    ``index`` selects independent instances within one stream, e.g. one
    per training step.
    """
    try:
        stream_id = _STREAM_IDS[name]
    except KeyError:
        raise ValueError(f"unknown stream {name!r}; expected one of {STREAMS}") from None
    ss = np.random.SeedSequence(seed, spawn_key=(stream_id, index))
    return np.random.Generator(np.random.PCG64(ss))
