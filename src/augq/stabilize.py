"""Scan consecutive augmentation-ideal quotients for a stable tail.

The scan computes Q_1 .. Q_N once from a shared ideal-power chain, finds
the earliest index past which all the groups are pairwise isomorphic, and
cross-checks two exact facts along the way: the order bound |Q_n| <= d^r
(d the torsion exponent of Q_1, r the ideal rank) and the constancy of
every prime-power valuation row on the detected tail.  Either failing is
an implementation bug, not a property of the input, so it aborts loudly.

A detected tail is only ever a candidate: ``certified`` is always False
because no finite window proves the sequence stays put afterwards.
"""

import json
from math import log2

from .abgroup import FinAbGroup, _factorint, write_decimal
from .augring import QuotientResult, decode_int, encode_int
from .intlinalg import AugqError, _Record, quotient_invariants, smith_invariants

__all__ = [
    "ReportInconsistencyError",
    "StabilizationReport",
    "build_report",
    "detect_stabilization",
    "lambda_diagnostics",
    "quotient_sequence",
    "quotient_to_dict",
    "report_csv_rows",
    "report_from_dict",
    "report_from_json",
    "report_to_dict",
    "report_to_json",
    "verify_bound",
]

DEFAULT_MAX_N = 20
DEFAULT_MIN_WINDOW = 5


class ReportInconsistencyError(AugqError, AssertionError):
    """An exact invariant failed while assembling a report (a bug)."""

    prefix = "INTERNAL INVARIANT VIOLATION: "


class StabilizationReport(_Record):
    """Everything observed in one scan; field names match the wire format."""

    __slots__ = (
        "ring_id",
        "max_n",
        "d",
        "r",
        "quotients",
        "n0_candidate",
        "window",
        "certified",
        "bound_ok",
        "lambda_table",
    )


def quotient_sequence(ring, max_n=DEFAULT_MAX_N):
    """Q_1 .. Q_{max_n} from a single ideal-power run.

    Q_1 is I/I^2; every later Q_n is read off the step lattice C_n of the
    run, which is I^{n+1} in coordinates of a basis of I^n.  The run builds
    no lattice past I^2; every power has the rank of I^2, which is that of
    I or RankDropError was raised, since d·I^n ⊆ I^{n+1}.  Equal step
    lattices give one group, whose Smith form is taken once; past the
    chain's first period the steps repeat as the same objects.
    """
    steps = []
    ideal, square = ring.ideal_powers(max_n, steps=steps)
    groups = [FinAbGroup(quotient_invariants(ideal, square).factors)]
    by_step = {}
    for step in steps:
        group = by_step.get(step)
        if group is None:
            inv = smith_invariants(step.basis.data, step.rank)
            group = by_step[step] = FinAbGroup(inv.factors)
        groups.append(group)
    return [
        QuotientResult(
            n=n, group=group, order=group.order(), ideal_rank=square.rank
        )
        for n, group in enumerate(groups, 1)
    ]


def detect_stabilization(groups, min_window=DEFAULT_MIN_WINDOW):
    """Earliest index whose tail is constant, if the tail is long enough.

    Returns ``(n0, window)`` with 1-based n0 and window the tail length, or
    None when the constant tail is shorter than ``min_window``.
    """
    if min_window < 2:
        raise ValueError("min_window must be at least 2")
    groups = list(groups)
    n = len(groups)
    if n == 0:
        return None
    tail = 1
    while tail < n and groups[n - tail - 1] == groups[n - 1]:
        tail += 1
    if tail < min_window:
        return None
    return n - tail + 1, tail


def verify_bound(quotients, d, r):
    """Per-n check of |Q_n| <= d^r."""
    bound = d**r
    return [q.order <= bound for q in quotients]


def lambda_diagnostics(quotients, d, r, tail_start=None):
    """Valuation table of the prime-power multiples of every quotient.

    One row per prime p dividing d and shift s with p^s <= d^r (any other
    row is identically zero and omitted); each row is the sequence of
    valuations v_p(|p^s Q_n|) for n = 1..N, the sum of max(e - s, 0) over
    the p-exponents e of Q_n.  When ``tail_start`` is given, the second
    return value flags whether each row is constant from that index on;
    otherwise it is None.
    """
    bound = d**r
    # each valuation is evaluated once per distinct group
    position = {}
    where = [position.setdefault(q.group, len(position)) for q in quotients]
    table = {}
    for p in _factorint(d):
        # the largest s with p^s <= d^r, estimated from the logarithms (which
        # Python takes from the bit lengths) and then corrected exactly
        top = int(log2(bound) / log2(p))
        while p**top > bound:
            top -= 1
        while p ** (top + 1) <= bound:
            top += 1
        row = None
        for s in range(top + 1):
            # v_p(|p^s Q_n|) never rises with s, so a zero row stays zero
            if row is None or any(row):
                values = [g.p_power_valuation(p, s) for g in position]
                row = tuple([values[i] for i in where])
            table[(p, s)] = row
    if tail_start is None:
        return table, None
    flags = {
        key: len(set(row[tail_start - 1 :])) <= 1 for key, row in table.items()
    }
    return table, flags


def build_report(ring, ring_id, max_n=DEFAULT_MAX_N, min_window=DEFAULT_MIN_WINDOW):
    """Run the full scan on a validated ring and assemble the report.

    Raises ReportInconsistencyError if the order bound fails anywhere or a
    valuation row wobbles inside the detected tail; both facts are provable
    for any ring that passed validation, so a failure means the code is
    wrong, not the input.
    """
    quotients = quotient_sequence(ring, max_n)
    first = quotients[0].group.invariant_factors
    d = first[-1] if first else 1
    r = ring.free_rank()
    detected = detect_stabilization([q.group for q in quotients], min_window)
    n0, window = detected if detected else (None, None)
    bound_ok = verify_bound(quotients, d, r)
    table, flags = lambda_diagnostics(quotients, d, r, tail_start=n0)
    report = StabilizationReport(
        ring_id=ring_id,
        max_n=max_n,
        d=d,
        r=r,
        quotients=quotients,
        n0_candidate=n0,
        window=window,
        certified=False,
        bound_ok=bound_ok,
        lambda_table=table,
    )
    if not all(bound_ok):
        bad = [q.n for q, ok in zip(quotients, bound_ok) if not ok]
        raise ReportInconsistencyError(
            f"{ring_id}: order bound |Q_n| <= d^r fails at n={bad}; "
            "this is an implementation bug"
        )
    if flags is not None and not all(flags.values()):
        bad = sorted(k for k, ok in flags.items() if not ok)
        raise ReportInconsistencyError(
            f"{ring_id}: valuation rows {bad} are not constant on the "
            "detected tail; this is an implementation bug"
        )
    return report


# -- serialization ----------------------------------------------------------


def quotient_to_dict(q):
    return {
        "n": q.n,
        "group": [encode_int(f) for f in q.group.invariant_factors],
        "order": encode_int(q.order),
        "ideal_rank": q.ideal_rank,
    }


def report_to_dict(report):
    return {
        "ring_id": report.ring_id,
        "max_n": report.max_n,
        "d": encode_int(report.d),
        "r": report.r,
        "quotients": [quotient_to_dict(q) for q in report.quotients],
        "n0_candidate": report.n0_candidate,
        "window": report.window,
        "certified": report.certified,
        "bound_ok": list(report.bound_ok),
        "lambda_table": {
            f"{p},{s}": list(row)
            for (p, s), row in sorted(report.lambda_table.items())
        },
    }


def report_from_dict(d):
    quotients = [
        QuotientResult(
            n=q["n"],
            group=FinAbGroup([decode_int(f) for f in q["group"]]),
            order=decode_int(q["order"]),
            ideal_rank=q["ideal_rank"],
        )
        for q in d["quotients"]
    ]
    table = {}
    for key, row in d["lambda_table"].items():
        p, s = key.split(",")
        table[(decode_int(p), decode_int(s))] = tuple(row)
    return StabilizationReport(
        ring_id=d["ring_id"],
        max_n=d["max_n"],
        d=decode_int(d["d"]),
        r=d["r"],
        quotients=quotients,
        n0_candidate=d["n0_candidate"],
        window=d["window"],
        certified=d["certified"],
        bound_ok=list(d["bound_ok"]),
        lambda_table=table,
    )


def report_to_json(report):
    return json.dumps(report_to_dict(report), indent=2)


def report_from_json(text):
    return report_from_dict(json.loads(text))


CSV_HEADER = ["ring_id", "n", "invariants", "order", "bound_ok"]


def invariants_cell(group):
    """The invariant factors of ``group`` pipe-joined, as in every CSV."""
    return "|".join(write_decimal(f) for f in group.invariant_factors)


def report_csv_rows(report):
    """Flat per-n view; invariant factors pipe-joined, all numbers decimal."""
    rows = []
    for q, ok in zip(report.quotients, report.bound_ok):
        rows.append(
            [
                report.ring_id,
                str(q.n),
                invariants_cell(q.group),
                write_decimal(q.order),
                "true" if ok else "false",
            ]
        )
    return rows
