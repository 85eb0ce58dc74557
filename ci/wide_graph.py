"""Write the seeded n = 20,000 graph (about 10^5 edges) of CI's `check` memory ceiling.

Usage: python3 ci/wide_graph.py DIR   (writes DIR/g.edges and DIR/g.cfg)
"""
import sys
from pathlib import Path

import numpy as np

out = Path(sys.argv[1])
out.mkdir(parents=True, exist_ok=True)
n, rng = 20000, np.random.default_rng(20000)
# vertices 1-3 hear only each other (the root class); each later one hears 5 before it
lines = [f"n {n}", "1 2 1.0", "2 3 1.0", "3 1 1.0"]
for i in range(3, n):
    lines += [f"{i + 1} {j + 1} {rng.uniform(0.5, 1.5)!r}" for j in rng.choice(i, min(i, 5), replace=False)]
x0 = ", ".join(repr(v) for v in rng.uniform(-10, 10, n).tolist())
Path(out, "g.edges").write_text("\n".join(lines) + "\n")
Path(out, "g.cfg").write_text(f"graph = g.edges\ncase = 2\nm = 10\nh = 0.05\nx0 = {x0}\n")
