"""Command-line front end.

Exit codes: 0 success, 1 strict-mode verification failure or I/O error,
2 argument or parse errors, 3 multi-component (non-knot) input,
130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator

from .braid import BraidParseError, BraidWord, parse_braid, parse_family
from .gauss import MultiComponentError, emit_gauss_code, gauss_from_closure
from .invariants import bound_from_p, u_and_p

# search and unknotting are imported by the commands that run them, so
# that invariants, the one command that needs neither, never loads them.
if TYPE_CHECKING:
    from .search import ScanRecord
    from .unknotting import VerifyRow


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vknot",
        description="Invariants and unknotting sequences of virtual braid closures.")
    sub = parser.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariants",
                         help="compute invariants of a braid closure")
    source = inv.add_mutually_exclusive_group(required=True)
    source.add_argument("--braid", help='braid word, e.g. "v1 v2 1 2"')
    source.add_argument("--family", help="family spec vt:P,Q,N or ijk:I,J,K")
    inv.add_argument("--strands", type=int,
                     help="strand count for --braid (default: inferred)")
    inv.add_argument("--p", action="store_true", help="print the P polynomial")
    inv.add_argument("--u", action="store_true", help="print the u polynomial")
    inv.add_argument("--bound", action="store_true",
                     help="print the crossing-change lower bound")
    inv.add_argument("--gauss-code", action="store_true",
                     help="print the Gauss code")
    inv.add_argument("--json", action="store_true")
    inv.set_defaults(func=cmd_invariants)

    seq = sub.add_parser("unknot-seq",
                         help="print an explicit unknotting sequence")
    seq.add_argument("i", type=int)
    seq.add_argument("j", type=int)
    seq.add_argument("k", type=int)
    seq.add_argument("--verify", action="store_true",
                     help="re-check bounds, components, and u per state")
    seq.add_argument("--json", action="store_true")
    seq.set_defaults(func=cmd_unknot_seq)

    table = sub.add_parser("table",
                           help="tabulate lower-bound half-sums as CSV")
    table.add_argument("target", choices=["vt2"])
    table.add_argument("--max-p", type=int, default=8)
    table.add_argument("--csv", metavar="PATH",
                       help="write to PATH instead of stdout")
    table.set_defaults(func=cmd_table)

    scan = sub.add_parser("scan",
                          help="scan virtualization subsets of a torus braid")
    scan.add_argument("--p", type=int, required=True)
    scan.add_argument("--q", type=int, required=True)
    scan.add_argument("--limit", type=int,
                      help="stop after this many subsets")
    scan.add_argument("--nonzero-u", action="store_true",
                      help="emit only knot records with nonzero u")
    scan.add_argument("--jsonl", metavar="PATH",
                      help="write records to PATH instead of stdout")
    scan.set_defaults(func=cmd_scan)

    verify = sub.add_parser("verify",
                            help="re-derive the unknotting-number equalities")
    verify.add_argument("target", choices=["theorem2"])
    verify.add_argument("--max-i", type=int, default=12)
    verify.add_argument("--workers", type=int,
                        help="accepted and ignored: verify runs serially")
    verify.add_argument("--strict", action="store_true",
                        help="exit 1 when any row fails")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)
    return parser


def _resolve_word(args: argparse.Namespace) -> BraidWord:
    if args.family is not None:
        if args.strands is not None:
            raise BraidParseError("--strands only applies to --braid")
        return parse_family(args.family)
    return parse_braid(args.braid, args.strands)


def cmd_invariants(args: argparse.Namespace) -> int:
    diagram = gauss_from_closure(_resolve_word(args))
    selected = [name for name, wanted in (
        ("p", args.p), ("u", args.u), ("bound", args.bound),
        ("gauss_code", args.gauss_code)) if wanted]
    if not selected:
        selected = ["p", "u", "bound", "gauss_code"]
    values: dict = {}
    if selected != ["gauss_code"]:
        u, p = u_and_p(diagram)
        values.update(p=p, u=u, bound=bound_from_p(p))
    if "gauss_code" in selected:
        values["gauss_code"] = emit_gauss_code(diagram)
    if args.json:
        payload = {name: (values[name].to_json_dict() if name in ("p", "u")
                          else values[name]) for name in selected}
        print(json.dumps(payload, sort_keys=True))
        return 0
    if selected == ["bound"]:
        print(values["bound"])
        return 0
    labels = {"p": "P", "u": "u", "bound": "bound", "gauss_code": "gauss"}
    for name in selected:
        print(f"{labels[name]} = {values[name]}")
    return 0


def cmd_unknot_seq(args: argparse.Namespace) -> int:
    from .unknotting import _verify_sequence, unknotting_sequence

    sequence = unknotting_sequence(args.i, args.j, args.k)
    check = _verify_sequence(sequence) if args.verify else None
    if args.json:
        payload = sequence.to_json_dict()
        if check is not None:
            payload["verify"] = check.to_json_dict()
        print(json.dumps(payload, sort_keys=True))
        return 0
    for step in sequence.steps:
        print(f"{step.kind.value} {step.before} -> {step.after} "
              f"changes={step.changes}")
    print(f"total = {sequence.total_changes}")
    print(f"ops = {sequence.op_count}")
    if check is not None:
        print("verify: ok" if check.passed else f"verify: FAIL ({check.detail})")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    from .search import default_table_pairs, table_to_csv, table_vt2

    rows = table_vt2(default_table_pairs(args.max_p))
    _emit(args.csv, (table_to_csv(rows),))
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    from .search import _scan_subsets, scan_torus_virtualizations

    # refuses what the scan refuses, before an output file is opened
    texts = _scan_subsets(args.p, args.q, args.limit, str)
    records = scan_torus_virtualizations(args.p, args.q, args.limit)
    _emit(args.jsonl, _scan_lines(records, texts, args.nonzero_u))
    return 0


def _scan_lines(records: Iterable[ScanRecord], texts: Iterable[tuple[str, ...]],
                nonzero_u: bool) -> Iterator[str]:
    """Each record's JSON line as the record arrives, then the summary line.

    ``texts`` holds each record's subset as position texts, in record order;
    the scan draws both from ``search._scan_subsets``, so they pair up.  Records
    of one (components, u, P) value share its line text, its filter verdict
    and its share of the summary, so those are worked out once per class,
    keyed by ``record[1:]``.  Per record what is left is a lookup, a count
    and one join of the subset's texts.
    """
    from .search import ScanSummary

    classes: dict[tuple, list] = {}  # [head, tail, printed, first, count]
    join = ", ".join
    for record, text in zip(records, texts, strict=True):
        line = classes.get(key := record[1:])
        if line is None:
            line = classes[key] = [
                *record.json_parts(), not nonzero_u or record.has_nonzero_u, record, 0]
        line[4] += 1
        if line[2]:
            yield f"{line[0]}{join(text)}{line[1]}"  # one copy, no partial sum
    summary = ScanSummary()
    for *_, first, count in classes.values():
        summary.add(first, count)
    yield json.dumps({"summary": summary.to_json_dict()}, sort_keys=True) + "\n"


# Chunks per write.  With stdout unbuffered (python -u, PYTHONUNBUFFERED)
# each write is a write(2): a full (5,4) scan made 65 537 of them, one per
# line, and makes 129 in blocks.  A block of (5,4) lines is about 88 KB,
# and no more than one block is held at a time.
_BLOCK_LINES = 512


def _blocks(chunks: Iterable[str]) -> Iterator[str]:
    """The chunks, joined in order into blocks of ``_BLOCK_LINES`` each."""
    chunks = iter(chunks)
    while block := list(islice(chunks, _BLOCK_LINES)):
        yield "".join(block)


def _emit(path: str | None, chunks: Iterable[str]) -> None:
    """Write ``chunks`` in order to ``path`` or stdout, one write per block
    of ``_BLOCK_LINES`` chunks.  A chunk may be any text: a line, several,
    or part of one."""
    chunks = _blocks(chunks)
    if not path:
        sys.stdout.writelines(chunks)
    elif os.path.exists(path) and not os.path.isfile(path):
        # a device or a pipe cannot be swapped in by a rename
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        write_atomic(path, chunks)


def write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` so that it ends up complete or untouched.

    The text goes to a temporary file beside ``path``, which then replaces
    it in one rename; on any failure the temporary file is removed and an
    existing ``path`` keeps its old bytes.
    """
    directory, name = os.path.split(os.path.abspath(path))
    temp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def cmd_verify(args: argparse.Namespace) -> int:
    from .unknotting import verify_theorem2

    report = verify_theorem2(args.max_i)
    _emit(None, _json_rows(report.rows) if args.json else report._table_lines())
    if args.strict and not report.all_passed:
        return 1
    return 0


def _json_rows(rows: Iterable[VerifyRow]) -> Iterator[str]:
    """The bytes of ``json.dumps([row.to_json_dict() ...], sort_keys=True)``
    and a newline, as chunks: ``"["``, each row's object after its ``", "``
    separator, then ``"]\n"``.  One encoder serves every row; ``json.dumps``
    with ``sort_keys`` would build a new one per call."""
    encode = json.JSONEncoder(sort_keys=True).encode
    yield "["
    separator = ""
    for row in rows:
        yield separator + encode(row.to_json_dict())
        separator = ", "
    yield "]\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MultiComponentError as error:  # unknotting.NotAKnotError too
        print(f"error: {error}", file=sys.stderr)
        return 3
    except (BraidParseError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
