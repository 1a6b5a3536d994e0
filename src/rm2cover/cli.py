"""Command-line front end.

Functions are given as a catalog name (``fun_4``), a hex truth table
(16 digits for n=6, 32 for n=7) or an ANF string (``x1x2x3+x1x4x5``);
``--n`` overrides the variable count inferred from an ANF string; a
catalog or hex table of another variable count is an error.  ``--out``
is replaced atomically and keeps the mode ``open(path, "w")`` leaves.

Exit codes: 0 success / all claims confirmed, 1 usage or input errors,
2 refuted claims (or a search filter contradiction), 3 discrepancies
only, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile

from . import affine, claims, quadratic, search
from .catalog import catalog_function, catalog_names
from .core import AnfPolynomial, TruthTable, concatenate, truth_table_from_anf

DEFAULT_SEED = claims.DEFAULT_SEED

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not 2
        raise UsageError(message)


def resolve_function(spec: str, n: int | None = None) -> TruthTable:
    """Catalog name, hex truth table, or ANF string -> truth table.

    Hex is recognised at lengths 16 (n=6) and 32 (n=7) only; anything
    else is parsed as an ANF string, whose variable count ``n`` overrides;
    a catalog or hex table whose n differs from ``n`` raises ValueError.
    """
    s = spec.strip().lower()
    if spec in catalog_names():
        f = catalog_function(spec)
    elif len(s) in (16, 32) and all(c in "0123456789abcdef" for c in s):
        f = TruthTable.from_hex(s)
    else:
        f = truth_table_from_anf(AnfPolynomial.from_string(spec, n=n))
    if n not in (None, f.n):
        raise ValueError(f"{spec} is a function of {f.n} variables, not --n {n}")
    return f


@contextlib.contextmanager
def _output(path: str | None):
    """Stdout, or a temp file next to ``path`` that replaces it when the block exits normally."""
    if path is None:
        yield sys.stdout
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".rm2cover-")
    try:
        with os.fdopen(fd, "w") as handle:
            umask = os.umask(0)  # for the mode open(path, "w") leaves; reading the umask sets it
            os.umask(umask)
            os.fchmod(fd, os.stat(path).st_mode & 0o777 if os.path.exists(path) else 0o666 & ~umask)
            yield handle
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_text(path: str | None, text: str) -> None:
    with _output(path) as handle:
        handle.write(text)


def _profile_text(profile: quadratic.NlProfile, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(profile.as_json_dict(), indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["r", "count"])
        writer.writerows(profile.csv_rows())
        return out.getvalue()
    lines = [f"n={profile.n} forms={sum(profile.counts.values())}"]
    lines += [f"  nl={r:>3}  count={c}" for r, c in profile.csv_rows()]
    return "\n".join(lines) + "\n"


def _claims_csv(results: list[claims.ClaimResult]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["claim_id", "status", "item", "stated", "computed"])
    for res in results:
        d = res.details
        if "entries" in d:
            for r, entry in d["entries"].items():
                if isinstance(entry, dict) and "stated" in entry:
                    writer.writerow([res.claim_id, res.status, r, entry["stated"], entry.get("computed", "")])
        elif "stated" in d:
            writer.writerow([res.claim_id, res.status, d.get("function", ""), d["stated"], d.get("computed", "")])
        else:
            writer.writerow([res.claim_id, res.status, "", "", ""])
    return out.getvalue()


def build_parser() -> _Parser:
    parser = _Parser(prog="rm2cover", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_function_arg(p, name="function"):
        p.add_argument(name, help="catalog name, hex truth table, or ANF string")
        p.add_argument("--n", type=int, default=None, help="variable count: sets an ANF string's, checks a table's")

    p = sub.add_parser("nl2", help="exact second-order nonlinearity")
    add_function_arg(p)
    p.add_argument("--threshold", type=int, default=None, help="early-exit below this value (prints an upper bound)")

    p = sub.add_parser("profile", help="full coset-nonlinearity histogram")
    add_function_arg(p)
    p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
    p.add_argument("--out", default=None, help="write the report to this path (atomic)")

    p = sub.add_parser("fh", help="level set of quadratics at a given nonlinearity")
    add_function_arg(p)
    p.add_argument("r", type=int)
    p.add_argument("--format", choices=("json", "plain"), default="plain")
    p.add_argument("--out", default=None)

    p = sub.add_parser("equiv", help="search for an equivalence witness modulo degree-2 additions")
    add_function_arg(p, "function1")
    p.add_argument("function2")
    p.add_argument("--budget", type=int, default=affine.DEFAULT_SEARCH_BUDGET)
    p.add_argument("--out", default=None)

    p = sub.add_parser("concat-check", help="concatenation bounds and condition-2 relations for two halves")
    add_function_arg(p, "function1")
    p.add_argument("function2")
    p.add_argument("--exact", action="store_true", help="also compute nl2 of the concatenation")
    p.add_argument("--threshold", type=int, default=None, help="early-exit threshold for --exact")
    p.add_argument("--out", default=None)

    p = sub.add_parser("search", help="budgeted witness search for nl2 = 42")
    p.add_argument("--i1", type=int, choices=(4, 6), required=True)
    p.add_argument("--i2", type=int, choices=(4, 6), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--budget", type=int, default=50)
    p.add_argument("--out", default=None, help="write one record per line (jsonl) to this path")

    p = sub.add_parser("verify-all", help="recompute and verify every registered claim")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=3, help="instances per proposition spot check")
    p.add_argument(
        "--samples", type=int, default=4,
        help="candidates for the biconditional sample, rounded down to a multiple of 4, at least 4",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    return parser


def _cmd_nl2(args) -> int:
    f = resolve_function(args.function, args.n)
    value, exact = quadratic.min_coset_nonlinearity(f, threshold=args.threshold)
    if exact:
        print(value)
    else:
        print(f"<{args.threshold} (upper bound {value})")
    return 0


def _cmd_profile(args) -> int:
    f = resolve_function(args.function, args.n)
    profile = quadratic.nfh_profile(f)
    _write_text(args.out, _profile_text(profile, args.format))
    return 0


def _cmd_fh(args) -> int:
    f = resolve_function(args.function, args.n)
    level = quadratic.fh_set(f, args.r)
    if args.format == "json":
        text = json.dumps({"n": level.n, "r": level.r, "count": level.count, "bitset_hex": level.to_hex()}) + "\n"
    else:
        text = f"n={level.n} r={level.r} count={level.count}\n{level.to_hex()}\n"
    _write_text(args.out, text)
    return 0


def _cmd_equiv(args) -> int:
    f1 = resolve_function(args.function1, args.n)
    f2 = resolve_function(args.function2, args.n)
    result = affine.equivalence_search(f1, f2, budget=args.budget)
    payload = {
        "status": result.status,
        "nodes": result.nodes,
        "reason": result.reason,
        "witness": result.witness.as_json_dict() if result.witness else None,
    }
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_concat_check(args) -> int:
    if args.threshold is not None and not args.exact:
        raise UsageError("concat-check --threshold needs --exact")
    f1 = resolve_function(args.function1, args.n)
    f2 = resolve_function(args.function2, args.n)
    joined = concatenate(f1, f2)  # rejects halves that cannot be joined before any scan
    instances = claims.lemma2_instances(f1, f2)
    best = min(map(sum, instances), default=None)
    relations = search.condition2_relations(quadratic.coset_values(f1), quadratic.coset_values(f2))
    payload = {
        "n": f1.n,
        "f1": f1.to_hex(),
        "f2": f2.to_hex(),
        "concatenation_bound": {"best": best, "hypothesis_true_instances": len(instances)},
        "condition2": {"all_hold": all(r["holds"] for r in relations), "relations": relations},
    }
    if args.exact:
        value, exact = quadratic.min_coset_nonlinearity(joined, threshold=args.threshold)
        payload["nl2"] = {"value": value, "exact": exact}
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_search(args) -> int:
    cfg = search.SearchConfig(i1=args.i1, i2=args.i2, seed=args.seed, budget=args.budget)
    print(f"search i1={cfg.i1} i2={cfg.i2} seed={cfg.seed} budget={cfg.budget}", file=sys.stderr)
    with _output(args.out) as out:
        def on_record(record):
            out.write(json.dumps(record.as_json_dict()) + "\n")

        try:
            summary = search.witness_search(cfg, on_record=on_record)
        except search.FilterContradiction as exc:
            print(f"FILTER CONTRADICTION: {exc}", file=sys.stderr)
            if args.out:  # the records so far, then the contradicting candidate
                on_record(exc.record)
            return 2
    print(json.dumps({"summary": summary.as_json_dict()}))
    return 0


def _cmd_verify_all(args) -> int:
    print(f"verify-all seed={args.seed} trials={args.trials} samples={args.samples}", file=sys.stderr)
    results = claims.verify_all(seed=args.seed, trials=args.trials, thm1_samples=args.samples)
    summary = claims.summarize(results)
    if args.format == "csv":
        text = _claims_csv(results)
    else:
        text = json.dumps(
            {"seed": args.seed, "summary": summary, "claims": [r.as_json_dict() for r in results]},
            indent=2,
        ) + "\n"
    _write_text(args.out, text)
    if args.out:
        print(json.dumps({"summary": summary}))
    return claims.worst_exit_code(results)


_COMMANDS = {
    "nl2": _cmd_nl2,
    "profile": _cmd_profile,
    "fh": _cmd_fh,
    "equiv": _cmd_equiv,
    "concat-check": _cmd_concat_check,
    "search": _cmd_search,
    "verify-all": _cmd_verify_all,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # --out keeps its old file, and no temp file stays
        print("interrupted", file=sys.stderr)
        return 130


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
