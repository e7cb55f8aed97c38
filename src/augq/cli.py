"""Command-line front end.

Six subcommands: validate, qn, stabilize, classify, marks, corpus.  Ring
inputs come either from a ring-spec JSON file or from a group spec plus a
family flag; outputs go to stdout (or --out) as an aligned table, JSON, or
CSV.  Table output is for humans and not a stable interface; JSON and CSV
are.  Identical invocations produce byte-identical output.

Run as the ``augq`` program with k usable CPUs, ``corpus`` takes rings in
the sweep process alongside k - 1 forked children, and its rows stay in
input order; a child that dies ends the sweep with exit 1.  ``main(argv)``
called in process keeps every ring in the calling process, so a caller
that patches this package's functions, such as a tracer, sees every call.

Exit codes: 0 success, 1 failed validation or a failed mathematical check,
2 parse/usage failure, 3 no stable window detected by ``stabilize``.  Every
error maps to its code through ``AugqError.exit_code``.
"""

import argparse
import csv
import io
import json
import os
import sys

from .abgroup import FinAbGroup, ValuationProfile, read_decimal, write_decimal
from .augring import MAX_N, AugmentedRing, encode_int
from .constructors import (
    CayleyGroup,
    CayleyTableError,
    burnside_ring,
    cayley_from_abelian,
    group_ring,
    parse_group_spec,
    rep_ring_abelian,
    rep_ring_dihedral,
    table_of_marks,
)
from .intlinalg import AugqError
from .stabilize import (
    CSV_HEADER,
    DEFAULT_MAX_N,
    DEFAULT_MIN_WINDOW,
    build_report,
    invariants_cell,
    quotient_csv_row,
    quotient_sequence,
    quotient_to_dict,
    report_csv_rows,
    report_to_dict,
)

__all__ = ["main", "build_parser"]

FAMILIES = ("group-ring", "burnside", "rep")


class CliError(AugqError):
    """Usage or input error detected by the CLI itself."""

    exit_code = 2


def _bounded_int(low, message, high=None):
    """An argparse type: a decimal integer from ``low`` up to ``high``."""

    def parse(text):
        n = read_decimal(text)
        if n is None:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if n < low:
            raise argparse.ArgumentTypeError(message)
        if high is not None and n > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}")
        return n

    return parse


_window_int = _bounded_int(2, "window must be at least 2")
_max_n = _bounded_int(1, "must be a positive integer", high=MAX_N)


def _add_common(sp, ring_source=True):
    if ring_source:
        sp.add_argument(
            "--ring",
            help="ring-spec JSON file, or a group spec built under --family",
        )
        sp.add_argument("--group", help="group spec (e.g. 1, C2xC4, D4, S3)")
        sp.add_argument(
            "--family",
            choices=FAMILIES,
            default="group-ring",
            help="ring family for group specs (default: group-ring)",
        )
    sp.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output format (default: table; only JSON and CSV are stable)",
    )
    sp.add_argument("--out", help="write output to this file instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="augq",
        description="Exact augmentation-ideal quotients of commutative "
        "augmented rings: validation, quotient scans, stabilization reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check the ring axioms")
    _add_common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("qn", help="list the quotients Q_1..Q_max_n")
    _add_common(sp)
    sp.add_argument("--max-n", type=_max_n, default=DEFAULT_MAX_N)
    sp.set_defaults(func=cmd_qn)

    sp = sub.add_parser("stabilize", help="scan for a stable quotient tail")
    _add_common(sp)
    sp.add_argument("--max-n", type=_max_n, default=DEFAULT_MAX_N)
    sp.add_argument(
        "--window",
        type=_window_int,
        default=DEFAULT_MIN_WINDOW,
        help="minimum constant-tail length to report a candidate (default 5)",
    )
    sp.set_defaults(func=cmd_stabilize)

    sp = sub.add_parser(
        "classify", help="rebuild a group from a valuation profile"
    )
    _add_common(sp, ring_source=False)
    sp.add_argument(
        "--profile",
        required=True,
        help='profile as inline JSON {"p,s": value, ...} or a path to one',
    )
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser(
        "marks", help="subgroup classes and the table of marks"
    )
    _add_common(sp, ring_source=False)
    sp.add_argument(
        "--group",
        required=True,
        help="group spec or Cayley-table JSON file",
    )
    sp.set_defaults(func=cmd_marks)

    sp = sub.add_parser(
        "corpus", help="stabilization sweep over a corpus file, as CSV"
    )
    sp.add_argument("corpus_file", help="one ring per line: '<family> <spec>' or 'ring <path.json>'")
    sp.add_argument("--max-n", type=_max_n, default=DEFAULT_MAX_N)
    sp.add_argument("--window", type=_window_int, default=DEFAULT_MIN_WINDOW)
    sp.add_argument("--out", help="write output to this file instead of stdout")
    sp.set_defaults(func=cmd_corpus)

    return parser


# -- input plumbing ----------------------------------------------------------


# what json.loads raises on bad text: JSONDecodeError, a ValueError for an
# integer past int()'s digit limit, or RecursionError for deep nesting
_JSON_ERRORS = (ValueError, RecursionError)


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in path
        raise CliError(f"cannot read {path}: {exc}")


def _load_json_file(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except _JSON_ERRORS as exc:
        raise CliError(f"{path}: malformed JSON: {exc}")


def _cayley_group(spec):
    g = parse_group_spec(spec)
    return g if isinstance(g, CayleyGroup) else cayley_from_abelian(g)


def _construct_family_ring(family, spec):
    if family == "burnside":
        return burnside_ring(_cayley_group(spec))
    m = read_decimal(spec[1:]) if spec.startswith("D") else None
    if family == "rep" and m is not None:
        return rep_ring_dihedral(m)
    g = parse_group_spec(spec)
    if family == "rep":
        if isinstance(g, FinAbGroup):
            return rep_ring_abelian(g)
        raise CliError(
            "the rep family accepts abelian specs and D<m> (for S3 use D3)"
        )
    if not isinstance(g, FinAbGroup):
        raise CliError("group rings are implemented for abelian groups only")
    return group_ring(g)


def _ring_source(kind, spec):
    """(ring_id, load) for a ring-spec path (kind "ring") or a group spec
    under a family; ``load()`` builds the ring."""
    if kind == "ring":
        stem = os.path.splitext(os.path.basename(spec))[0]
        return f"ring:{stem}", lambda: AugmentedRing.from_dict(_load_json_file(spec))
    return f"{kind}:{spec}", lambda: _construct_family_ring(kind, spec)


def _resolve_ring(args):
    """Returns (ring_id, ring) from --ring / --group / --family."""
    if args.ring and args.group:
        raise CliError("--ring and --group are mutually exclusive")
    spec = args.ring or args.group
    if not spec:
        raise CliError("one of --ring or --group is required")
    kind = args.family
    if args.ring and (os.path.isfile(spec) or spec.endswith(".json")):
        kind = "ring"
    ring_id, load = _ring_source(kind, spec)
    return ring_id, load()


def _emit(text, out_path):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out_path}: {exc}")
    else:
        sys.stdout.write(text)


def _format_table(headers, rows):
    """The lines of an aligned table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    return [
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        for row in [headers, *rows]
    ]


def _quotient_cells(q):
    """The cells of Q_n that open a row of the ``qn`` and ``stabilize``
    tables: n, the invariant factors as ``[2, 4]``, and the order."""
    factors = ", ".join(write_decimal(f) for f in q.group.invariant_factors)
    return [str(q.n), f"[{factors}]", write_decimal(q.order)]


def _format_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _render(args, value, header, rows, table):
    """Writes a command's output in ``args.format``: the object ``value()``
    as JSON, ``header`` and the ``rows()`` as CSV, or the ``table()`` lines.

    Only the chosen one is built: each writes its integers in its own order,
    and an integer too long to write fails the first writer that meets it.
    """
    if args.format == "json":
        text = json.dumps(value(), indent=2)
    elif args.format == "csv":
        text = _format_csv(header, rows())
    else:
        text = "\n".join(table())
    _emit(text, args.out)


# -- commands ----------------------------------------------------------------


def cmd_validate(args):
    ring_id, ring = _resolve_ring(args)
    report = ring.validate()
    _render(
        args,
        lambda: {
            "ring_id": ring_id,
            "checks": report.checks,
            "failures": report.failures,
            "passed": report.passed,
        },
        ["check", "passed"],
        lambda: [[k, "true" if v else "false"] for k, v in report.checks.items()],
        lambda: [f"ring: {ring_id}"]
        + [f"{k}: {'pass' if v else 'FAIL'}" for k, v in report.checks.items()]
        + [f"  {f}" for f in report.failures]
        + ["result: " + ("valid" if report.passed else "INVALID")],
    )
    return 0 if report.passed else 1


def _require_valid(ring_id, ring):
    report = ring.validate()
    if not report.passed:
        for f in report.failures:
            print(f"augq: {ring_id}: {f}", file=sys.stderr)
        raise AugqError(f"{ring_id} failed validation")


def cmd_qn(args):
    ring_id, ring = _resolve_ring(args)
    _require_valid(ring_id, ring)
    quotients = quotient_sequence(ring, args.max_n)
    _render(
        args,
        lambda: {
            "ring_id": ring_id,
            "max_n": args.max_n,
            "quotients": [quotient_to_dict(q) for q in quotients],
        },
        CSV_HEADER[:-1],
        lambda: [quotient_csv_row(ring_id, q) for q in quotients],
        lambda: [f"ring: {ring_id}"]
        + _format_table(
            ["n", "invariants", "order"], [_quotient_cells(q) for q in quotients]
        ),
    )
    return 0


def _stabilize_table(report, min_window):
    lines = [
        f"ring: {report.ring_id}",
        f"torsion exponent d: {write_decimal(report.d)}   free rank r: {report.r}   "
        f"bound d^r: {write_decimal(report.d ** report.r)}",
    ]
    if report.n0_candidate is None:
        lines.append(
            f"no stable tail of length >= {min_window} within n <= {report.max_n}"
        )
    else:
        lines.append(
            f"stable from n0 = {report.n0_candidate} (window {report.window}, "
            f"certified: {'yes' if report.certified else 'no'})"
        )
    rows = [
        _quotient_cells(q) + ["yes" if ok else "NO"]
        for q, ok in zip(report.quotients, report.bound_ok)
    ]
    lines += _format_table(["n", "invariants", "order", "bound"], rows)
    nonzero = [
        f"  p={p} s={s}: " + " ".join(str(x) for x in row)
        for (p, s), row in sorted(report.lambda_table.items())
        if any(row)
    ]
    if nonzero:
        lines += ["valuation rows v_p(|p^s Q_n|), n = 1..N:", *nonzero]
    return lines


def cmd_stabilize(args):
    ring_id, ring = _resolve_ring(args)
    _require_valid(ring_id, ring)
    report = build_report(ring, ring_id, max_n=args.max_n, min_window=args.window)
    _render(
        args,
        lambda: report_to_dict(report),
        CSV_HEADER,
        lambda: report_csv_rows(report),
        lambda: _stabilize_table(report, args.window),
    )
    return 0 if report.n0_candidate is not None else 3


def cmd_classify(args):
    raw = args.profile
    if raw.lstrip().startswith("{"):
        try:
            mapping = json.loads(raw)
        except _JSON_ERRORS as exc:
            raise CliError(f"malformed profile JSON: {exc}")
    else:
        mapping = _load_json_file(raw)
    if not isinstance(mapping, dict):
        raise CliError("profile must be a JSON object")
    profile = ValuationProfile.from_json_mapping(mapping)
    group = FinAbGroup.from_valuation_profile(profile)
    factors = group.invariant_factors
    _render(
        args,
        lambda: {"invariant_factors": [encode_int(f) for f in factors]},
        ["invariants"],
        lambda: [[invariants_cell(group)]],
        lambda: ["[" + ",".join(write_decimal(f) for f in factors) + "]"],
    )
    return 0


def cmd_marks(args):
    value = args.group
    if os.path.isfile(value) or value.endswith(".json"):
        stem = os.path.splitext(os.path.basename(value))[0]
        try:
            group = CayleyGroup.from_dict(_load_json_file(value), name=stem)
        except CayleyTableError as exc:
            raise CliError(f"{value}: {exc}")
    else:
        group = _cayley_group(value)
    marks = table_of_marks(group)
    labels = [f"H{i}" for i in range(len(marks.classes))]
    orders = marks.classes.orders()
    # class label, |H|, then the marks of H on each class
    rows = [
        [label, str(order), *map(str, row)]
        for label, order, row in zip(labels, orders, marks.values)
    ]
    _render(
        args,
        lambda: {
            "group_order": group.order,
            "labels": labels,
            "subgroup_orders": orders,
            "marks": marks.values,
        },
        ["class", "order", "marks"],
        lambda: [row[:2] + ["|".join(row[2:])] for row in rows],
        lambda: _format_table(["class", "|H|"] + labels, rows),
    )
    return 0


CORPUS_HEADER = [
    "ring_id",
    "status",
    "d",
    "r",
    "n0_candidate",
    "window",
    "bound_ok",
    "tail",
    "error",
]


def _corpus_entries(path):
    lines = _read_text(path).splitlines()
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise CliError(
                f"{path}:{lineno}: expected '<family> <spec>' or 'ring <path>'"
            )
        kind, spec = parts
        if kind == "ring":
            spec = os.path.join(base, spec) if not os.path.isabs(spec) else spec
        elif kind not in FAMILIES:
            raise CliError(
                f"{path}:{lineno}: unknown family {kind!r} "
                f"(expected one of {', '.join(FAMILIES)} or 'ring')"
            )
        entries.append((kind, spec))
    return entries


def _corpus_row(entry, max_n, window):
    """The CSV row of one corpus entry."""
    ring_id, load = _ring_source(*entry)
    row = {key: "" for key in CORPUS_HEADER}
    row["ring_id"] = ring_id
    try:
        ring = load()
        report = ring.validate()
        if not report.passed:
            row["status"] = "invalid"
            row["error"] = "; ".join(report.failures)
        else:
            rep = build_report(ring, ring_id, max_n=max_n, min_window=window)
            row["d"] = write_decimal(rep.d)
            row["r"] = str(rep.r)
            row["bound_ok"] = "true" if all(rep.bound_ok) else "false"
            if rep.n0_candidate is None:
                row["status"] = "inconclusive"
            else:
                row["status"] = "ok"
                row["n0_candidate"] = str(rep.n0_candidate)
                row["window"] = str(rep.window)
                tail_group = rep.quotients[-1].group
                row["tail"] = invariants_cell(tail_group)
    except AugqError as exc:
        row["status"] = "error"
        row["error"] = str(exc)
    return [row[key] for key in CORPUS_HEADER]


def _claims_pipe(count):
    """(read end, step): a pipe holding the claims on ``count`` rings.

    Each 4-byte record names a run of ``step`` consecutive rings by its
    first index.  All records go in with one write of at most PIPE_BUF
    bytes, which an empty pipe always takes whole, and the write end is
    closed: a read then returns one whole record or, when none are left,
    EOF, and a claim never waits on another process.
    """
    claims, fill = os.pipe()
    try:
        step = -(-count // (os.fpathconf(fill, "PC_PIPE_BUF") // 4))
        os.write(fill, b"".join(i.to_bytes(4, "little") for i in range(0, count, step)))
    finally:
        os.close(fill)
    return claims, step


def _claimed(claims, step, count):
    """The ring indices this process claims, one record at a time."""
    while record := os.read(claims, 4):
        start = int.from_bytes(record, "little")
        yield from range(start, min(start + step, count))


def _corpus_child(lifeline, out, claim_rows):
    """A forked child's work: its claimed rows, sent as JSON down ``out``.

    The sweep process holds the only write end of the ``lifeline`` pipe, so
    a read returns EOF when it exits, however it dies; without this a killed
    sweep's children would finish their rings and then fail to report them.
    """
    import signal
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the sweep process reports ^C
    threading.Thread(target=_exit_on_eof, args=(lifeline,), daemon=True).start()
    with open(out, "wb") as fh:
        fh.write(json.dumps(claim_rows()).encode())


def _exit_on_eof(fd):
    os.read(fd, 1)  # nothing is ever written: this returns at EOF
    os._exit(1)


def _child_failure(pid, status):
    """The message for a child that did not exit 0, or None."""
    code = os.waitstatus_to_exitcode(status)
    if code > 0:
        return f"corpus worker {pid} exited with status {code}"
    if code < 0:
        import signal

        return f"corpus worker {pid} was killed by {signal.Signals(-code).name}"
    return None


def _corpus_rows(entries, max_n, window, jobs):
    """``_corpus_row`` of every entry, in input order, over up to ``jobs``
    processes: this one and ``jobs - 1`` forked children.

    Every process claims the next unclaimed rings from one pipe
    (``_claims_pipe``) and works through them; each child sends back its
    ``[index, row]`` pairs as one JSON document on a pipe of its own
    and then ends with ``os._exit``, so it never returns into the caller's
    stack.  JSON, not pickle: the parent parses only bytes this program
    wrote, and nothing it reads is unpickled.  ``fork`` is safe here because
    this process has no other thread when it forks; a caller that started
    one gets the plain loop.  A child that was killed or exited non-zero
    ends the sweep with an ``AugqError`` (exit 1) naming it, after every
    child is reaped.
    """
    jobs = min(jobs, len(entries))
    threading = sys.modules.get("threading")  # not imported for this check
    threaded = threading is not None and threading.active_count() > 1
    if jobs < 2 or threaded or not hasattr(os, "fork"):
        return [_corpus_row(entry, max_n, window) for entry in entries]

    claims, step = _claims_pipe(len(entries))

    def claim_rows():
        return [
            (i, _corpus_row(entries[i], max_n, window))
            for i in _claimed(claims, step, len(entries))
        ]

    lifeline, alive = os.pipe()
    children = {}  # pid -> read end of the pipe the child sends its rows down
    try:
        for _ in range(jobs - 1):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(reader)
                os.close(writer)
                raise
            if pid == 0:
                code = 1
                try:
                    for fd in (alive, reader, *children.values()):
                        os.close(fd)
                    _corpus_child(lifeline, writer, claim_rows)
                    code = 0
                except BaseException:
                    sys.excepthook(*sys.exc_info())
                finally:
                    os._exit(code)
            os.close(writer)
            children[pid] = reader
        pairs = claim_rows()
        failures = []
        for pid in list(children):
            with open(children[pid], "rb", closefd=False) as fh:
                sent = fh.read()
            failure = _child_failure(pid, os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if failure:
                failures.append(failure)
            else:
                pairs += json.loads(sent)
    finally:
        for fd in (claims, lifeline, alive):
            os.close(fd)
        for pid, reader in children.items():
            os.close(reader)
            os.waitpid(pid, 0)  # it exits at once: its lifeline is closed
    if failures:
        raise AugqError("; ".join(failures))
    rows = [None] * len(entries)
    for i, row in pairs:
        rows[i] = row
    return rows


def cmd_corpus(args):
    entries = _corpus_entries(args.corpus_file)
    rows = _corpus_rows(entries, args.max_n, args.window, args.jobs)
    _emit(_format_csv(CORPUS_HEADER, rows), args.out)
    status = CORPUS_HEADER.index("status")
    return 0 if all(row[status] == "ok" for row in rows) else 1


def main(argv=None, *, jobs=1):
    """Runs one ``augq`` command; returns its exit code.

    ``jobs`` caps the processes ``corpus`` sweeps its rings in, the calling
    one included.  The default, 1, keeps every ring in the calling process,
    where a caller that patches this package's functions (a tracer, a test)
    sees every call.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    args.jobs = jobs
    try:
        if "window" in args and args.window > args.max_n:
            raise CliError("--window cannot exceed --max-n")
        return args.func(args)
    except AugqError as exc:
        print(f"augq: {exc.prefix}{exc}", file=sys.stderr)
        return exc.exit_code


def _program():
    """The ``augq`` program: ``main`` with corpus rings spread over the
    CPUs this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return main(jobs=cpus)


if __name__ == "__main__":
    sys.exit(_program())
