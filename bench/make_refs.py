"""Regenerate bench/refs.json and bench/base_rings.json.

Run from the repository root:

    python3 bench/make_refs.py

The reference rows are the ``augq corpus`` rows of every fixed workload.
They do not rest on the code under test alone: each ring's ideal chain
I^1 .. I^(max_n+1) is recomputed with ``tests/oracles.hnf_oracle`` from the
ring's structure constants and compared basis for basis, and each |Q_n| is
recomputed from Gram determinants.  ``refs.json`` records, per ring, the
largest n up to which both checks ran (rings whose oracle run exceeded the
time budget stop early).  dense-specs rows are checked at run time against
the acceptance-corpus rows of their un-rebased rings.
"""

import csv
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from augq import quotient_sequence  # noqa: E402
from augq.cli import _construct_family_ring  # noqa: E402
from augq.cli import main as augq_main  # noqa: E402
from oracles import hnf_oracle  # noqa: E402
from workloads import (  # noqa: E402
    BASE_RINGS_PATH,
    REFS_PATH,
    WINDOW,
    WORKLOADS,
    ring_id,
)

ORACLE_BUDGET_S = 120.0
DENSE_DIMS = range(4, 13)


def corpus_rows(rings, max_n):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "corpus.txt")
        out = os.path.join(tmp, "out.csv")
        with open(corpus, "w") as fh:
            fh.writelines(f"{f} {s}\n" for f, s in rings)
        code = augq_main(
            ["corpus", corpus, "--max-n", str(max_n), "--window", str(WINDOW),
             "--out", out]
        )
        if code != 0:
            raise SystemExit(f"augq corpus exited {code}")
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
    return {row[0]: row for row in rows}


def bareiss_det(rows):
    """Exact determinant by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def gram_det(basis):
    return bareiss_det(
        [[sum(x * y for x, y in zip(u, v)) for v in basis] for u in basis]
    )


def oracle_check(spec, ring, max_n, deadline):
    """Largest n such that I^1..I^n match the oracle and |Q_1..Q_(n-1)| too."""
    m = len(spec["basis"])
    e = spec["identity"]
    eps = [int(x) for x in spec["augmentation"]]
    table = {}
    for i, j, k, c in spec["structure"]:
        table.setdefault((i, j), [0] * m)[k] += int(c)

    def product(x, y):
        out = [0] * m
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                if xi and yj:
                    vec = table.get((i, j)) or table.get((j, i)) or ()
                    for k, c in enumerate(vec):
                        out[k] += xi * yj * c
        return out

    gens = []
    for i in range(m):
        if i != e:
            v = [0] * m
            v[i] = 1
            v[e] -= eps[i]
            gens.append(v)
    ideal = hnf_oracle(gens)
    powers = ring.ideal_powers(max_n)
    orders = [q.order for q in quotient_sequence(ring, max_n)]
    current = ideal
    dets = [gram_det(ideal)]
    checked = 0
    for n in range(1, max_n + 2):
        if current != powers[n - 1].basis.data:
            raise SystemExit(f"oracle disagrees on I^{n}")
        if n > 1:
            dets.append(gram_det(current))
            ratio, rem = divmod(dets[-1], dets[-2])
            if rem or ratio != orders[n - 2] ** 2:
                raise SystemExit(f"oracle disagrees on |Q_{n - 1}|")
        checked = n
        if n == max_n + 1 or time.monotonic() > deadline:
            break
        prods = {tuple(product(x, y)) for x in ideal for y in current}
        current = hnf_oracle(sorted(prods))
    return checked


def main():
    base_rings = {}
    for family, spec in WORKLOADS["acceptance-corpus"]["rings"]:
        d = _construct_family_ring(family, spec).to_dict()
        if len(d["basis"]) in DENSE_DIMS:
            base_rings[ring_id(family, spec)] = d
    refs = {}
    for name, wl in WORKLOADS.items():
        if wl["rings"] is None:
            continue
        rows = corpus_rows(wl["rings"], wl["max_n"])
        oracle = {}
        for family, spec in wl["rings"]:
            rid = ring_id(family, spec)
            ring = _construct_family_ring(family, spec)
            t = time.monotonic()
            checked = oracle_check(
                ring.to_dict(), ring, wl["max_n"], t + ORACLE_BUDGET_S
            )
            oracle[rid] = checked
            print(f"{name} {rid}: oracle chain I^1..I^{checked} "
                  f"({time.monotonic() - t:.1f} s)", flush=True)
        refs[name] = {
            "max_n": wl["max_n"],
            "rows": {ring_id(f, s): rows[ring_id(f, s)] for f, s in wl["rings"]},
            "oracle_checked_through_n": oracle,
        }
    with open(REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(BASE_RINGS_PATH, "w") as fh:
        json.dump(base_rings, fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
