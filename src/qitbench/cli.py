"""Command-line surface tying the pipeline together.

Subcommands: check, elaborate, enum, eq, fold, elim, construct,
examples.  SET parameters are instantiated per run with dynamic flags
(``--X a,b``); declarations stay carrier-generic.  Exit status: 0 on
accept/equal/success, 1 on reject/violation/mismatch, on an input file
that cannot be read or decoded, or when the reader of stdout goes away,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

from . import serialize
from .algebras import Algebra, satisfies
from .construction import build_fixed_point, compare_with_oracle, qw_from_colimit
from .errors import ParseError, QitError, UnknownOp
from .quotient import (
    EliminatorInput,
    build_universe,
    close_congruence,
    decide_eq,
    qwelim,
    qwrec,
)
from .schema import (
    EXAMPLE_NAMES,
    Accept,
    Derivation,
    QitDecl,
    SetParam,
    builtin_example,
    builtin_examples,
    check_decl,
    elaborate,
    parse_decl,
    rule_sequence,
)
from .sexpr import parse_term, show_term
from .sizes import SizeSig, SizeUniverse
from .terms import Arity, IndexedSignature, OpSym, Signature, SystemOfEquations


class UsageError(QitError):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    path: Optional[Path] = None
    depth: int = 3
    size_height: int = 3
    samples: int = 5
    carriers: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    fmt: str = "text"
    prefix: Optional[int] = None
    terms: Optional[tuple[str, str]] = None
    algebra: Optional[Path] = None
    steps: Optional[Path] = None
    compare_oracle: bool = False
    example: Optional[str] = None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qitbench",
        description="declare, check, and execute quotient inductive types at desk scale",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, *, takes_decl: bool = True) -> None:
        if takes_decl:
            sp.add_argument("path", type=Path, help="declaration file")
        sp.add_argument("-d", "--depth", type=int, default=3, help="term depth bound (default 3)")
        sp.add_argument("--size-height", type=int, default=3, dest="size_height",
                        help="size universe height (default 3)")
        sp.add_argument("--samples", type=int, default=5,
                        help="environments sampled per countable variable family")
        sp.add_argument("--prefix", type=int, default=None,
                        help="largest index materialized for indexed declarations")
        sp.add_argument("--format", choices=("text", "structured"), default="text", dest="fmt")

    common(sub.add_parser("check", help="judge a declaration, printing the derivation"))
    common(sub.add_parser("elaborate", help="export the signature and equation system"))
    common(sub.add_parser("enum", help="list the depth-bounded term universe"))

    eq = sub.add_parser("eq", help="decide equality of two terms in the quotient")
    common(eq)
    eq.add_argument("lhs", help="first term, s-expression syntax")
    eq.add_argument("rhs", help="second term, s-expression syntax")

    fold = sub.add_parser("fold", help="fold the quotient through an algebra")
    common(fold)
    fold.add_argument("--algebra", type=Path, required=True, help="algebra tables, JSON")

    elim = sub.add_parser("elim", help="dependent elimination with coherence report")
    common(elim)
    elim.add_argument("--steps", type=Path, default=None,
                      help="step tables, JSON (default: built-in parity eliminator)")

    construct = sub.add_parser("construct", help="build the staged fixed point")
    common(construct)
    construct.add_argument("--compare-oracle", action="store_true", dest="compare_oracle",
                           help="certify the colimit against the congruence quotient")

    examples = sub.add_parser("examples", help="list the built-in declaration library")
    examples.add_argument("example", nargs="?", default=None,
                          choices=list(EXAMPLE_NAMES) + [None],
                          help="print one entry's table")
    examples.add_argument("--format", choices=("text", "structured"), default="text", dest="fmt")

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser as it was, so one serves every main call
    return build_parser()


def _carrier_flags(extra: Sequence[str], parser: argparse.ArgumentParser) -> dict[str, tuple[str, ...]]:
    out: dict[str, tuple[str, ...]] = {}
    i = 0
    while i < len(extra):
        tok = extra[i]
        if not tok.startswith("--"):
            parser.error(f"unexpected argument {tok!r}")
        name, sep, val = tok[2:].partition("=")
        if not sep:
            if i + 1 >= len(extra):
                parser.error(f"--{name} expects a comma-separated carrier")
            val = extra[i + 1]
            i += 2
        else:
            i += 1
        if not name.isidentifier():
            parser.error(f"bad carrier flag --{name}")
        values = tuple(v for v in val.split(",") if v)
        if not values:
            parser.error(f"--{name} expects a comma-separated carrier")
        out[name] = values
    return out


def _config(args: argparse.Namespace, carriers: dict, parser: argparse.ArgumentParser) -> RunConfig:
    depth = getattr(args, "depth", 3)
    size_height = getattr(args, "size_height", 3)
    samples = getattr(args, "samples", 5)
    if depth < 0:
        parser.error("depth must be >= 0")
    if size_height < 1:
        parser.error("size height must be >= 1")
    if samples < 1:
        parser.error("samples must be >= 1")
    if carriers and args.command == "examples":
        parser.error("examples takes no carrier flags")
    terms = (args.lhs, args.rhs) if args.command == "eq" else None
    return RunConfig(
        command=args.command,
        path=getattr(args, "path", None),
        depth=depth,
        size_height=size_height,
        samples=samples,
        carriers=carriers,
        fmt=args.fmt,
        prefix=getattr(args, "prefix", None),
        terms=terms,
        algebra=getattr(args, "algebra", None),
        steps=getattr(args, "steps", None),
        compare_oracle=getattr(args, "compare_oracle", False),
        example=getattr(args, "example", None),
    )


# --- shared loading ---


def _load_decl(cfg: RunConfig) -> QitDecl:
    try:
        text = cfg.path.read_text()
    except OSError as e:
        raise QitError(str(e))
    try:
        return parse_decl(text)
    except ParseError as e:
        raise QitError(f"{cfg.path}:{e}")


def _elaborated(cfg: RunConfig):
    decl = _load_decl(cfg)
    setparams = {p.name for p in decl.params if isinstance(p.kind, SetParam)}
    unknown = set(cfg.carriers) - setparams
    if unknown:
        raise UsageError(f"{decl.name} has no SET parameter named {sorted(unknown)[0]}")
    sig, sys_ = elaborate(decl, cfg.carriers, prefix=cfg.prefix)
    return decl, sig, sys_


def _flat(sig) -> Signature:
    return sig.flatten() if isinstance(sig, IndexedSignature) else sig


def _arity_str(a: Arity) -> str:
    return str(a.count) if a.finite else "countable"


def _quotient(cfg: RunConfig):
    decl, sig, sys_ = _elaborated(cfg)
    flat = _flat(sig)
    return decl, flat, sys_, close_congruence(build_universe(flat, sys_, cfg.depth))


def _jsonable(v):
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    if isinstance(v, (str, int, bool)) or v is None:
        return v
    return show_term(v)


# --- commands ---


def _derivation_lines(d: Derivation, indent: int = 0) -> list[str]:
    lines = [f"{'  ' * indent}{d.rule}  {d.subject}"]
    for p in d.premises:
        if p.displayed:
            lines.extend(_derivation_lines(p, indent + 1))
    return lines


def _cmd_check(cfg: RunConfig) -> int:
    decl = _load_decl(cfg)
    report = check_decl(decl)
    if cfg.fmt == "structured":
        ctors = []
        for name, j in report.element + report.equality:
            if isinstance(j, Accept):
                ctors.append({"name": name, "status": "ACCEPT",
                              "rules": list(rule_sequence(j.derivation))})
            else:
                ctors.append({"name": name, "status": "REJECT", "rule": j.rule,
                              "line": j.position[0], "col": j.position[1],
                              "message": j.message})
        obj = {"decl": decl.name,
               "status": "ACCEPT" if report.ok else "REJECT",
               "constructors": ctors}
        print(serialize.dumps(obj), end="")
        return 0 if report.ok else 1
    print(f"{decl.name}: {'ACCEPT' if report.ok else 'REJECT'}")
    for name, j in report.element + report.equality:
        if isinstance(j, Accept):
            for line in _derivation_lines(j.derivation, 1):
                print(line)
        else:
            print(f"  REJECT {j.rule} at {j.position[0]}:{j.position[1]}: {j.message}")
    return 0 if report.ok else 1


def _cmd_elaborate(cfg: RunConfig) -> int:
    decl, sig, sys_ = _elaborated(cfg)
    if cfg.fmt == "structured":
        if isinstance(sig, IndexedSignature):
            sig_obj = serialize.indexed_signature_to_obj(sig)
        else:
            sig_obj = serialize.signature_to_obj(sig)
        print(serialize.dumps({"signature": sig_obj, "system": serialize.system_to_obj(sys_)}),
              end="")
        return 0
    if isinstance(sig, IndexedSignature):
        print(f"indices: {' '.join(sig.indices)}")
        for d in sig.ops:
            kids = " ".join(f"{s}*{_arity_str(a)}" for s, a in d.arities)
            print(f"op {d.op.show()} : {d.sort}" + (f" <- {kids}" if kids else ""))
    else:
        for d in sig.ops:
            print(f"op {d.op.show()} : {_arity_str(d.arity)}")
    for e in sys_.equations:
        print(f"eq {e.name} : {show_term(e.lhs)} = {show_term(e.rhs)}")
    return 0


def _cmd_enum(cfg: RunConfig) -> int:
    decl, sig, sys_ = _elaborated(cfg)
    uni = build_universe(_flat(sig), sys_, cfg.depth)
    if cfg.fmt == "structured":
        obj = {"decl": decl.name, "depth": cfg.depth,
               "terms": [show_term(t) for t in uni.terms],
               "skipped": uni.skipped}
        print(serialize.dumps(obj), end="")
        return 0
    for t in uni.terms:
        print(show_term(t))
    return 0


def _term_arg(name: str, text: str, sig: Signature):
    try:
        return parse_term(text, sig)
    except ParseError as e:
        raise QitError(f"{name} {e}")


def _cmd_eq(cfg: RunConfig) -> int:
    decl, flat, sys_, q = _quotient(cfg)
    a = _term_arg("lhs", cfg.terms[0], flat)
    b = _term_arg("rhs", cfg.terms[1], flat)
    verdict = decide_eq(q, a, b)
    if cfg.fmt == "structured":
        print(serialize.dumps({"lhs": show_term(a), "rhs": show_term(b), "verdict": verdict}),
              end="")
    else:
        print(verdict)
    return 0 if verdict == "EQUAL" else 1


@contextlib.contextmanager
def _table_file(path: Path):
    """Report a failure to read, decode or take apart the JSON tables in
    ``path`` as a QitError that names the file."""
    try:
        yield
    except OSError as e:
        raise QitError(str(e))
    except KeyError as e:
        raise QitError(f"{path}: missing key {e}")
    except (AttributeError, TypeError, ValueError) as e:
        raise QitError(f"{path}: {e}")


def _scalar(what: str, v):
    """v, or a ValueError if it is a JSON list or object: carrier values
    and tags are looked up as keys, and those would be unhashable."""
    if isinstance(v, (list, dict)):
        raise ValueError(f"{what} {json.dumps(v)} is not a JSON scalar")
    return v


def _scalars(what: str, values) -> tuple:
    return tuple(_scalar(what, v) for v in values)


def _algebra_from_file(path: Path, sig: Signature) -> Algebra:
    with _table_file(path):
        obj = serialize.loads(path.read_text())
        carrier = _scalars("carrier element", obj["carrier"])
        tables = {}
        for opname, entries in obj.get("ops", {}).items():
            op = OpSym.parse(opname)
            if not sig.has_op(op):
                raise UnknownOp(f"algebra file interprets unknown operator {opname}")
            tables[op] = {
                tuple(args): _scalar("table value", value) for args, value in entries
            }
    return Algebra(sig, carrier, tables)


def _countable(sys_: SystemOfEquations) -> bool:
    return any(isinstance(e.vars, Arity) and not e.vars.finite for e in sys_.equations)


def _cmd_fold(cfg: RunConfig) -> int:
    decl, flat, sys_, q = _quotient(cfg)
    alg = _algebra_from_file(cfg.algebra, flat)
    mode = cfg.samples if _countable(sys_) else "exhaustive"
    rep = satisfies(alg, sys_, mode)
    if not rep.ok:
        env = dict(rep.witness_env or ())
        print(f"VIOLATED {rep.witness_eq} at {env}")
        return 1
    if _countable(sys_):
        print(f"satisfied (sampled, {cfg.samples} environments per family); fold skipped")
        return 0
    res = qwrec(q, alg)
    if cfg.fmt == "structured":
        obj = {"values": [{"canon": show_term(c), "value": _jsonable(v)}
                          for c, v in zip(q.canon, res.values)],
               "hom_ok": res.hom_ok}
        print(serialize.dumps(obj), end="")
        return 0 if res.hom_ok else 1
    for c, v in zip(q.canon, res.values):
        print(f"{show_term(c)} -> {v}")
    print(f"hom: {'ok' if res.hom_ok else f'{len(res.hom_failures)} failures'}")
    return 0 if res.hom_ok else 1


def _parity_input() -> EliminatorInput:
    def steps(op, child_cls, child_tags):
        if not child_tags:
            return "even"
        flips = 1 + sum(1 for t in child_tags if t == "odd")
        return "odd" if flips % 2 else "even"

    return EliminatorInput(lambda cls: ("even", "odd"), steps)


def _input_from_file(path: Path) -> EliminatorInput:
    with _table_file(path):
        obj = serialize.loads(path.read_text())
        motive_obj = obj.get("motive", {})
        default = _scalars("motive tag", motive_obj.get("default", ()))
        per_class = {
            int(k): _scalars("motive tag", v) for k, v in motive_obj.items() if k != "default"
        }
        exact = {}
        by_tags = {}
        for entry in obj["steps"]:
            op = OpSym.parse(entry["op"])
            tags = _scalars("step tag", entry["tags"])
            value = _scalar("step value", entry["value"])
            if "children" in entry:
                exact[(op, tuple(entry["children"]), tags)] = value
            else:
                by_tags[(op, tags)] = value

    def motive(cls: int) -> tuple:
        return per_class.get(cls, default)

    def steps(op, child_cls, child_tags):
        key = (op, tuple(child_cls), tuple(child_tags))
        if key in exact:
            return exact[key]
        try:
            return by_tags[(op, tuple(child_tags))]
        except KeyError:
            raise QitError(f"no step entry for {op.show()} {list(child_cls)} {list(child_tags)}")

    return EliminatorInput(motive, steps)


def _cmd_elim(cfg: RunConfig) -> int:
    decl, flat, sys_, q = _quotient(cfg)
    inp = _input_from_file(cfg.steps) if cfg.steps else _parity_input()
    res = qwelim(q, inp)
    if cfg.fmt == "structured":
        obj = {"values": [{"canon": show_term(c), "value": _jsonable(v)}
                          for c, v in zip(q.canon, res.values)],
               "comp_ok": res.comp_ok,
               "instances_checked": res.instances_checked,
               "envs_checked": res.envs_checked}
        print(serialize.dumps(obj), end="")
        return 0 if res.comp_ok else 1
    for c, v in zip(q.canon, res.values):
        print(f"{show_term(c)} -> {v}")
    state = "ok" if res.comp_ok else f"{len(res.comp_failures)} failures"
    print(f"qwcomp: {state} ({res.instances_checked} instances, {res.envs_checked} environments)")
    return 0 if res.comp_ok else 1


def _cmd_construct(cfg: RunConfig) -> int:
    decl, sig, sys_ = _elaborated(cfg)
    flat = _flat(sig)
    u = SizeUniverse(SizeSig.minimal(), cfg.size_height)
    appx = build_fixed_point(flat, sys_, u, cfg.depth)
    qw = None
    if cfg.fmt == "structured":
        print(appx.export(), end="")
    else:
        print(appx.dump(), end="")
        qw = qw_from_colimit(appx)
        print(f"colimit: {len(qw.colimit.classes)} classes")
    if cfg.compare_oracle:
        q = close_congruence(build_universe(flat, sys_, cfg.depth))
        cmp = compare_with_oracle(qw if qw is not None else qw_from_colimit(appx), q)
        print(f"oracle: bijection over {len(cmp.class_pairs)} classes"
              f" (intro checked {cmp.intro_checked})")
    return 0


def _cmd_examples(cfg: RunConfig) -> int:
    if cfg.example is not None:
        entry = builtin_example(cfg.example)
        if cfg.fmt == "structured":
            obj = {"name": entry.name, "title": entry.title, "source": entry.source,
                   "table": list(entry.table.lines)}
            print(serialize.dumps(obj), end="")
        else:
            print(entry.table.render(), end="")
        return 0
    entries = builtin_examples()
    if cfg.fmt == "structured":
        obj = {"examples": [{"name": e.name, "title": e.title, "source": e.source,
                             "table": list(e.table.lines)} for e in entries]}
        print(serialize.dumps(obj), end="")
        return 0
    width = max(len(e.name) for e in entries)
    for e in entries:
        origin = "declaration" if e.source is not None else "library table"
        print(f"{e.name:<{width}}  {e.title} ({origin})")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "elaborate": _cmd_elaborate,
    "enum": _cmd_enum,
    "eq": _cmd_eq,
    "fold": _cmd_fold,
    "elim": _cmd_elim,
    "construct": _cmd_construct,
    "examples": _cmd_examples,
}


def run(cfg: RunConfig) -> int:
    return _COMMANDS[cfg.command](cfg)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args, extra = parser.parse_known_args(argv)
    carriers = _carrier_flags(extra, parser)
    cfg = _config(args, carriers, parser)
    try:
        status = run(cfg)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader went away (``| head``); send the unflushed rest
        # nowhere so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except QitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
