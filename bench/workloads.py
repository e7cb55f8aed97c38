"""Workload definitions and input generation for the augq benchmark.

Each workload is a set of rings swept by ``augq corpus`` at a fixed
``max_n`` (window 5).  The benchmark writes the inputs from the seed; the
program only ever sees the generated corpus file and, for ``dense-specs``,
the generated ring-spec JSON files.

This module is stdlib-only and never imports augq, so the inputs and the
correctness checks do not depend on the code under test.
"""

import csv
import io
import json
import os
import random

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(BENCH_DIR, "refs.json")
BASE_RINGS_PATH = os.path.join(BENCH_DIR, "base_rings.json")

WINDOW = 5

# The 53 rings of tests/conftest.corpus_ring_specs, in that order.
_ABELIAN_16 = (
    "1 C2 C3 C4 C2xC2 C5 C6 C7 C8 C2xC4 C2xC2xC2 C9 C3xC3 C10 C11 C12 C2xC6 "
    "C13 C14 C15 C16 C2xC8 C4xC4 C2xC2xC4 C2xC2xC2xC2"
).split()
_ABELIAN_12 = _ABELIAN_16[: _ABELIAN_16.index("C13")]
ACCEPTANCE_CORPUS = (
    [("group-ring", g) for g in _ABELIAN_16]
    + [("burnside", g) for g in _ABELIAN_12 + ["D3", "D4", "D5", "D6", "S3"]]
    + [("rep", f"D{m}") for m in range(3, 9)]
)

WIDE_RINGS = [
    ("group-ring", "C2xC2xC2xC2xC2"),
    ("group-ring", "C32"),
    ("rep", "D24"),
    ("burnside", "S4"),
    ("burnside", "D32"),
    ("burnside", "C2xC2xC2xC2"),
]

COEFF_BLOWUP = [("group-ring", "C2xC2xC8")]

# dense-specs rebases every acceptance-corpus ring of dimension 4..12 (listed
# in base_rings.json) this many times per input set, each copy with its own
# seeded change of basis.  The cost of one copy of the set varies across
# seeds by about 8 % (standard deviation); four copies halve that.
DENSE_COPIES = 4

# BENCHMARK.json lists coeff-blowup and dense-specs only.  On a shared
# 2-vCPU machine the speed of a sweep drifts by +-25 % over tens of seconds,
# so the fixed run budget buys steady medians only with long runs of few
# workloads.  dense-specs enters every layer (its un-rebased rings include
# Burnside rings) and coeff-blowup is where echelon blow-up dominates; the
# other two stay runnable by hand with the same command.
WORKLOADS = {
    "acceptance-corpus": {
        "max_n": 20,
        "rings": ACCEPTANCE_CORPUS,
        "why": "the 53-ring acceptance corpus users run: many small rings, "
        "where per-ring fixed costs show",
    },
    "wide-rings": {
        "max_n": 10,
        "rings": WIDE_RINGS,
        "why": "dimensions up to 67 with small coefficients: validate "
        "(O(m^4)) and ring construction do real work here",
    },
    "coeff-blowup": {
        "max_n": 10,
        "rings": COEFF_BLOWUP,
        "why": "C2xC2xC8 alone: echelon intermediates blow up while the "
        "output basis stays under 14 bits",
    },
    "dense-specs": {
        "max_n": 20,
        "rings": None,
        "why": "corpus rings after seeded unimodular changes of basis: the "
        "only ring-spec JSON path, and structure constants beyond 0/+-1",
    },
}


def ring_id(family, spec):
    return f"{family}:{spec}"


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- dense-specs generator ----------------------------------------------------


def _identity(m):
    return [[int(i == j) for j in range(m)] for i in range(m)]


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def change_of_basis(m, identity, rng):
    """A seeded unimodular U and its inverse, with the identity row fixed.

    The non-identity basis elements are paired in basis order, and the
    first of each pair gains +-1 times the second: b'_i = b_i + c b_j.  No
    index is both a target and a source, so U = I + N with N^2 = 0 and the
    inverse is I - N.  The caller still checks U @ U_inv == I.
    """
    others = [i for i in range(m) if i != identity]
    u = _identity(m)
    u_inv = _identity(m)
    for i, j in zip(others[0::2], others[1::2]):
        c = rng.choice((-1, 1))
        u[i][j] += c
        u_inv[i][j] -= c
    return u, u_inv


def check_change_of_basis(u, u_inv, identity):
    """Raises ValueError unless U is unimodular and fixes the identity."""
    m = len(u)
    if _matmul(u, u_inv) != _identity(m):
        raise ValueError("change of basis is not unimodular")
    if u[identity] != [int(j == identity) for j in range(m)]:
        raise ValueError("change of basis moves the identity element")


def _dense_structure(spec):
    """b_i * b_j as dense vectors, mirrored as the ring-spec format says."""
    m = len(spec["basis"])
    table = {}
    for i, j, k, c in spec["structure"]:
        table.setdefault((i, j), [0] * m)[k] += int(c)
    full = [[None] * m for _ in range(m)]
    for (i, j), vec in table.items():
        full[i][j] = vec
    for i in range(m):
        for j in range(m):
            if full[i][j] is None:
                full[i][j] = full[j][i] or [0] * m
    return full


def rebase(spec, u, u_inv):
    """The ring spec in the basis b'_i = sum_j U[i][j] b_j."""
    m = len(spec["basis"])
    full = _dense_structure(spec)
    quads = []
    for i in range(m):
        for j in range(i, m):
            prod = [0] * m
            for a, ua in enumerate(u[i]):
                if not ua:
                    continue
                for b, ub in enumerate(u[j]):
                    if not ub:
                        continue
                    f = ua * ub
                    for k, c in enumerate(full[a][b]):
                        if c:
                            prod[k] += f * c
            # coordinates y in the new basis solve y U = prod
            coords = [
                sum(prod[k] * u_inv[k][t] for k in range(m)) for t in range(m)
            ]
            quads.extend([i, j, t, c] for t, c in enumerate(coords) if c)
    aug = [sum(x * int(e) for x, e in zip(row, spec["augmentation"])) for row in u]
    return {
        "basis": [f"b{i}" for i in range(m)],
        "identity": spec["identity"],
        "structure": quads,
        "augmentation": aug,
    }


def dense_specs(seed, base_rings):
    """[(file stem, base ring id, rebased spec)] for one seed."""
    rng = random.Random(seed)
    out = []
    for copy in range(DENSE_COPIES):
        for rid, spec in base_rings.items():
            m = len(spec["basis"])
            u, u_inv = change_of_basis(m, spec["identity"], rng)
            check_change_of_basis(u, u_inv, spec["identity"])
            stem = f"{rid.replace(':', '-')}-v{copy}"
            out.append((stem, rid, rebase(spec, u, u_inv)))
    return out


# -- inputs and reference rows -------------------------------------------------


def write_inputs(name, seed, workdir, refs):
    """Writes the corpus for one workload and seed into ``workdir``.

    Returns ``(corpus_path, expected)`` where ``expected`` lists, in corpus
    order, the CSV row each ring must produce.  Fixed ring sets are shuffled
    by the seed.  dense-specs lists its un-rebased rings once, then the
    rebased copies, whose rows must equal the un-rebased ring's row, ring id
    aside.
    """
    wl = WORKLOADS[name]
    rng = random.Random(seed)
    lines = []
    expected = []
    if wl["rings"] is not None:
        rings = list(wl["rings"])
        rng.shuffle(rings)
        table = refs[name]["rows"]
        for family, spec in rings:
            lines.append(f"{family} {spec}")
            expected.append(table[ring_id(family, spec)])
    else:
        table = refs["acceptance-corpus"]["rows"]
        base_rings = load_json(BASE_RINGS_PATH)
        for base_id in base_rings:
            lines.append(base_id.replace(":", " ", 1))
            expected.append(table[base_id])
        for stem, base_id, spec in dense_specs(seed, base_rings):
            with open(os.path.join(workdir, stem + ".json"), "w") as fh:
                json.dump(spec, fh)
            lines.append(f"ring {stem}.json")
            expected.append([f"ring:{stem}"] + table[base_id][1:])
    corpus = os.path.join(workdir, "corpus.txt")
    with open(corpus, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return corpus, expected


def check_rows(csv_text, expected):
    """Failed ring count of one sweep's CSV output against ``expected``.

    A ring fails when its row is missing, is not ``ok`` or differs from the
    reference row in any column.
    """
    rows = list(csv.reader(io.StringIO(csv_text)))
    got = {row[0]: row for row in rows[1:] if row}
    failed = 0
    for want in expected:
        row = got.get(want[0])
        if row is None or row[1] != "ok" or row != want:
            failed += 1
    return failed
