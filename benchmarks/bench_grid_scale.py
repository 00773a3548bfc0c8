#!/usr/bin/env python
"""Grid-scale benchmark: what the format costs as the tile grid grows.

Holds the payload near 1 MB per 2^18 stored edges and doubles the tile
grid's side ``p`` (R-MAT at ``--scales``, edge factor 2, ``tile_bits=6``,
``group_q=16``: scale 17 is p = 2^11, 2.1 M tile positions), timing the
four whole-graph operations that touch every position — ``from_edge_list``,
``load``, ``to_edge_list`` and the deep ``fsck`` audit — and the process's
peak RSS.  One subprocess per scale so peak RSS is that scale's alone;
``--src`` points it at another checkout's ``src/`` (an exported parent
commit) for the side-by-side table in docs/PERFORMANCE.md.

Usage::

    python benchmarks/bench_grid_scale.py                       # this tree
    python benchmarks/bench_grid_scale.py --src /tmp/parent/src --scales 15 16
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CHILD = r"""
import json, resource, sys, tempfile, time
from repro.format.tiles import TiledGraph
from repro.format.validate import check_tiled_graph
from repro.graphgen.rmat import rmat

scale = int(sys.argv[1])
el = rmat(scale, edge_factor=2, seed=7)
out = {"scale": scale}

def timed(label, fn):
    t0 = time.perf_counter()
    value = fn()
    out[label] = round(time.perf_counter() - t0, 3)
    return value

tg = timed("from_edge_list_s", lambda: TiledGraph.from_edge_list(
    el, tile_bits=6, group_q=16))
out.update(p=tg.p, positions=tg.n_tiles, stored_edges=tg.n_edges)
with tempfile.TemporaryDirectory() as d:
    tg.save(d)
    del tg
    back = timed("load_s", lambda: TiledGraph.load(d))
    timed("to_edge_list_s", back.to_edge_list)
    rep = timed("deep_fsck_s", lambda: check_tiled_graph(back, deep=True))
    ext = TiledGraph.load(d, resident=False)
    ext_rep = check_tiled_graph(ext, deep=True)
out["fsck_resident"] = [rep.ok, rep.tiles_checked, rep.edges_checked]
out["fsck_external"] = [ext_rep.ok, ext_rep.tiles_checked, ext_rep.edges_checked]
out["peak_rss_mib"] = round(
    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
print(json.dumps(out))
"""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="the src/ directory to measure (default: this tree)")
    ap.add_argument("--scales", type=int, nargs="+", default=[15, 16, 17, 18])
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=args.src)
    print(json.dumps({
        "src": args.src, "python": platform.python_version(),
        "machine": platform.machine(), "cpus": os.cpu_count(),
    }))
    for scale in args.scales:
        subprocess.run(
            [sys.executable, "-c", _CHILD, str(scale)], env=env, check=True
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
