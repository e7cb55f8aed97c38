"""Seeded fuzz of the command line with mutated group specs, ring specs,
valuation profiles, Cayley-table files and corpus files.

Every call must end in one of the documented exit codes 0-3: an exception
that escapes ``main`` is a traceback for the user.  The order guard is
lowered to 16 so that no mutation builds a large ring.
"""

import json
import random

import pytest

from augq import FinAbGroup, burnside_ring, cayley_from_abelian, group_ring
from augq import rep_ring_dihedral, symmetric_group
from augq.cli import main

EXIT_CODES = (0, 1, 2, 3)
CALLS = 500  # per half; building the argument parser dominates each call

GROUP_SPECS = ("C2", "C2xC4", "D4", "S3", "1", "C12")
# ASCII digits and spec letters, plus a superscript, an Arabic-Indic and a
# mathematical-bold digit, and the separators int() would accept
SPEC_ALPHABET = "0123456789CDSx-_+ ²١𝟐"
FAMILIES = ("group-ring", "burnside", "rep")

# values a ring-spec field may be replaced by: in and out of range, decimal
# strings good and bad, and every other JSON type
FIELD_VALUES = (
    -1, 0, 1, 2, 3, 7, 2**64 + 1, True, None, 1.5, [], {}, [0, 0, 0, 1],
    "5", "-3", "1_0", "+5", " 7", "²", "١", "", "x", str(2**70),
)


@pytest.fixture(autouse=True)
def small_order_guard(monkeypatch):
    monkeypatch.setenv("AUGQ_MAX_ORDER", "16")


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a malformed option value
        return exc.code
    except Exception as exc:
        pytest.fail(f"augq {' '.join(argv)!r} raised {exc!r}")


def _mutate_text(rng, text, alphabet=SPEC_ALPHABET):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(3) if chars else 0
        if op == 0:
            chars.insert(i, rng.choice(alphabet))
        elif op == 1:
            del chars[min(i, len(chars) - 1)]
        else:
            chars[min(i, len(chars) - 1)] = rng.choice(alphabet)
    return "".join(chars)


def test_fuzz_group_specs(capsys):
    rng = random.Random(8)
    for _ in range(CALLS):
        spec = _mutate_text(rng, rng.choice(GROUP_SPECS))
        family = rng.choice(FAMILIES)
        argv = ["qn", f"--group={spec}", "--family", family, "--max-n", "2"]
        assert _exit_code(argv) in EXIT_CODES, argv
        capsys.readouterr()


def _base_specs():
    return [
        group_ring(FinAbGroup([2, 2])).to_dict(),
        burnside_ring(symmetric_group(3)).to_dict(),
        rep_ring_dihedral(4).to_dict(),
        # the dual numbers Z[x]/(x^2): a valid spec that fails validation
        {
            "basis": ["1", "x"],
            "identity": 0,
            "structure": [[0, 0, 0, 1], [0, 1, 1, 1]],
            "augmentation": [1, 0],
        },
    ]


def _mutate_spec(rng, spec):
    """Replace, drop or add one field, or one entry of a list field, at random."""
    spec = json.loads(json.dumps(spec))
    key = rng.choice(sorted(spec) + ["extra"])
    value = spec.get(key)
    op = rng.randrange(4)
    if op == 0:
        spec.pop(key, None)
    elif op == 1 or not isinstance(value, list) or not value:
        spec[key] = rng.choice(FIELD_VALUES)
    else:
        i = rng.randrange(len(value))
        entry = value[i]
        if isinstance(entry, list) and entry and op == 2:
            entry[rng.randrange(len(entry))] = rng.choice(FIELD_VALUES)
        elif op == 2:
            value[i] = rng.choice(FIELD_VALUES)
        else:
            value.insert(i, rng.choice(FIELD_VALUES))
    return spec


def test_fuzz_ring_specs(capsys, tmp_path):
    rng = random.Random(9)
    bases = _base_specs()
    path = tmp_path / "ring.json"
    commands = (
        ["validate"],
        ["qn", "--max-n", "3"],
        ["stabilize", "--max-n", "4", "--window", "2"],
    )
    for _ in range(CALLS // len(commands)):
        path.write_text(json.dumps(_mutate_spec(rng, rng.choice(bases))))
        for command in commands:
            argv = command + ["--ring", str(path), "--format", "json"]
            assert _exit_code(argv) in EXIT_CODES, (argv, path.read_text())
            capsys.readouterr()


# profiles of C2xC4xC3, C8xC9x(C5)^4 and the trivial group, as classify reads them
PROFILE_GROUPS = ((2, 4, 3), (8, 9, 5, 5, 5, 5), ())
PROFILE_ALPHABET = "0123456789,-_+ ²١"


def _mutate_profile(rng, profile):
    """Drop a key, replace a value, mutate a key's text or add a key "p,s"."""
    profile = dict(profile)
    keys = sorted(profile)
    op = rng.randrange(4) if keys else 3
    if op == 3:
        key = f"{rng.choice((2, 3, 4, 5, 7))},{rng.randrange(6)}"
        profile[key] = rng.choice(FIELD_VALUES + tuple(range(20)))
        return profile
    key = rng.choice(keys)
    if op == 0:
        del profile[key]
    elif op == 1:
        profile[key] = rng.choice(FIELD_VALUES)
    else:
        profile[_mutate_text(rng, key, PROFILE_ALPHABET)] = profile.pop(key)
    return profile


def test_fuzz_valuation_profiles(capsys):
    rng = random.Random(10)
    bases = [
        {f"{p},{s}": v for (p, s), v in FinAbGroup(orders).valuation_profile().items()}
        for orders in PROFILE_GROUPS
    ]
    for _ in range(CALLS):
        profile = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            profile = _mutate_profile(rng, profile)
        fmt = rng.choice(("table", "json", "csv"))
        argv = ["classify", "--profile", json.dumps(profile), "--format", fmt]
        assert _exit_code(argv) in EXIT_CODES, argv
        capsys.readouterr()


def _mutate_table(rng, spec):
    """Replace, drop or retype one row, replace one entry, or mistype "order"."""
    spec = json.loads(json.dumps(spec))
    table = spec["table"]
    op = rng.randrange(5) if table else 4
    if op == 4:
        spec["order"] = rng.choice(FIELD_VALUES)
        return spec
    i = rng.randrange(len(table))
    row = table[i]
    if op == 1:
        del table[i]
    elif op == 2 and isinstance(row, list):
        table[i] = rng.choice(([str(x) for x in row], dict.fromkeys(map(str, row))))
    elif op == 3 and isinstance(row, list) and row:
        row[rng.randrange(len(row))] = rng.choice(FIELD_VALUES)
    else:
        table[i] = rng.choice(FIELD_VALUES)
    return spec


def test_fuzz_cayley_tables(capsys, tmp_path):
    rng = random.Random(11)
    bases = [
        cayley_from_abelian(FinAbGroup([2])).to_dict(),
        cayley_from_abelian(FinAbGroup([2, 2])).to_dict(),
        symmetric_group(3).to_dict(),
    ]
    path = tmp_path / "group.json"
    for _ in range(CALLS):
        spec = rng.choice(bases)
        for _ in range(rng.randint(1, 2)):
            spec = _mutate_table(rng, spec)
        path.write_text(json.dumps(spec))
        fmt = rng.choice(("table", "json", "csv"))
        argv = ["marks", "--group", str(path), "--format", fmt]
        assert _exit_code(argv) in EXIT_CODES, (argv, path.read_text())
        capsys.readouterr()


CORPUS_LINES = (
    "group-ring C2", "burnside C3", "rep D3", "ring c2.json", "ring dual.json",
    "# comment", "",
)
# spec and path characters, whitespace, a NUL, a newline and a comment mark
CORPUS_ALPHABET = "0123456789CDSx-_. /#\t\0\n²"


def test_fuzz_corpus_files(capsys, tmp_path):
    rng = random.Random(12)
    (tmp_path / "c2.json").write_text(json.dumps(group_ring(FinAbGroup([2])).to_dict()))
    (tmp_path / "dual.json").write_text(json.dumps(_base_specs()[-1]))
    path = tmp_path / "corpus.txt"
    for _ in range(CALLS // 2):
        lines = [rng.choice(CORPUS_LINES) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(len(lines))
            lines[i] = _mutate_text(rng, lines[i], CORPUS_ALPHABET)
        text = "\n".join(lines)
        if rng.randrange(10) == 0:  # not UTF-8
            path.write_bytes(text.encode() + b"\xff")
        else:
            path.write_text(text)
        argv = ["corpus", str(path), "--max-n", "3", "--window", "2"]
        assert _exit_code(argv) in EXIT_CODES, (argv, path.read_bytes())
        capsys.readouterr()
