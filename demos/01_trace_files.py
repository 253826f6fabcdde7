"""Attention-trace files: the three synthetic recipes and the .tkv format.

Generates one trace per synthetic profile, writes it to disk, reads it back,
and shows that the round trip is bit-exact and fully determined by the seed.
"""

import io
import tempfile
from pathlib import Path

import numpy as np

from semkv import (
    SyntheticProfile,
    clustered_planted_heads,
    gen_synthetic_trace,
    read_trace,
    write_trace,
)

shape = (2, 8, 256, 16)  # layers, heads, sequence, head_dim
profiles = [
    SyntheticProfile("uniform-random", seed=7),
    SyntheticProfile("clustered-heads", seed=7, planted=2),
    SyntheticProfile("planted-needle", seed=7, needle_position=40, tail_len=32),
]

with tempfile.TemporaryDirectory(prefix="semkv_demo_") as tmp:
    out_dir = Path(tmp)
    print(f"shape R,n,N,d = {shape}; files under {out_dir}\n")
    for profile in profiles:
        trace = gen_synthetic_trace(profile, shape)
        path = out_dir / f"{profile.kind}.tkv"
        written = write_trace(trace, path)
        again = read_trace(path)
        print(f"{profile.kind:15s} wrote {written:>9} bytes "
              f"(header 24 + payload {trace.header.payload_bytes})")
        print(f"{'':15s} round-trip bit-exact: {again == trace}")

        # same profile, fresh generation -> identical bytes
        buf = io.BytesIO()
        write_trace(gen_synthetic_trace(profile, shape), buf)
        print(f"{'':15s} regeneration byte-identical: {buf.getvalue() == path.read_bytes()}\n")

clustered = profiles[1]
print("clustered-heads ground truth (planted head indices per layer):")
print(" ", clustered_planted_heads(clustered, shape[0], shape[1]))

needle = profiles[2]
trace = gen_synthetic_trace(needle, shape)
inputs = trace.head_inputs(0, 0)
from semkv import window_column_scores

scores = window_column_scores(inputs, 32)
print(f"\nplanted-needle: window scores peak at position "
      f"{int(np.argmax(scores))} (planted at {needle.needle_position}), "
      f"holding {scores.max():.1%} of the window mass")
