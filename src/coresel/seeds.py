"""One rule seeds every random draw: `derive(seed, purpose, *indices)` is the SeedSequence over [seed, *indices, word].

`word`, the purpose's 1-based position in PURPOSES, is nonzero and each purpose takes a fixed number of indices, so no
key is another key zero-padded, as a SeedSequence pads entropy shorter than four words ([a, b] draws as [a, b, 0]).
"""

import numpy as np

# Every purpose a draw serves, in word order, with the number of indices its key holds after the seed.
PURPOSES = (
    ("corpus", 0), ("canvas", 1), ("reduced_classes", 0), ("angle", 1), ("permutation", 1), ("train_rows", 1),
    ("test_rows", 1), ("imbalance", 1), ("noise", 1), ("init", 0), ("reservoir", 0), ("shuffle", 2),
    ("replay_batch", 3), ("select", 3), ("commit_reference", 1), ("commit_order", 1), ("downsample", 2),
    ("diagnose_init", 0), ("diagnose_cross", 0), ("diagnose_batch", 2),
)
_WORDS = {purpose: (word, arity) for word, (purpose, arity) in enumerate(PURPOSES, start=1)}


def derive(seed: int, purpose: str, *indices: int) -> np.random.SeedSequence:
    """The SeedSequence of the draw for `purpose` at `indices` under `seed`."""
    word, arity = _WORDS[purpose]
    if len(indices) != arity:
        raise ValueError(f"a {purpose!r} seed takes {arity} indices, got {len(indices)}")
    return np.random.SeedSequence([int(seed), *(int(i) for i in indices), word])
