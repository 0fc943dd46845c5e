"""Command-line surface tying the pipeline together.

Subcommands: check, elaborate, enum, eq, fold, elim, construct,
examples.  SET parameters are instantiated per run with dynamic flags
(``--X a,b``); declarations stay carrier-generic.  Exit status: 0 on
accept/equal/success, 1 on reject/violation/mismatch, on an input file
that cannot be read or decoded, or when the reader of stdout goes away,
2 on usage errors, 3 when a command runs out of memory or of recursion
depth (an input nested too deeply): the last resort, caught in main.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

from . import serialize
from .algebras import Algebra, satisfies
from .construction import build_fixed_point, compare_with_oracle, qw_from_colimit
from .errors import NotSatisfying, ParseError, QitError, UnknownOp
from .quotient import (
    EliminatorInput,
    build_universe,
    close_congruence,
    decide_eq,
    qwelim,
    qwrec,
)
from .records import tagged
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
from .terms import Arity, IndexedSignature, OpSym, Signature


# perfbench/tracing.py wraps cli.satisfies by name and
# tests/test_tracing_targets.py checks that it exists; fold leaves the
# check to qwrec, so that span reads 0 until the trace moves into src/.
_TRACED_NAMES = (satisfies,)


class UsageError(QitError):
    pass


class Option(NamedTuple):
    flags: tuple[str, ...]
    type: Optional[type]
    choices: Optional[tuple[str, ...]]
    default: object
    least: Optional[int]  # the smallest value accepted
    help: Optional[str]


# the options that more than one command takes, each under its dest
OPTIONS = {
    "depth": Option(("-d", "--depth"), int, None, 3, 0, "term depth bound (default %(default)s)"),
    "size_height": Option(("--size-height",), int, None, 3, 1,
                          "size universe height (default %(default)s)"),
    "prefix": Option(("--prefix",), int, None, None, 0,
                     "largest index materialized for indexed declarations"),
    "fmt": Option(("--format",), None, ("text", "structured"), "text", None, None),
}


@tagged
class RunConfig(NamedTuple):
    """One parsed command line.  An option the command does not take is None."""

    command: str
    fmt: str
    path: Optional[Path] = None
    depth: Optional[int] = None
    size_height: Optional[int] = None
    prefix: Optional[int] = None
    carriers: Mapping[str, tuple[str, ...]] = MappingProxyType({})
    lhs: Optional[str] = None
    rhs: Optional[str] = None
    algebra: Optional[Path] = None
    steps: Optional[Path] = None
    compare_oracle: bool = False
    example: Optional[str] = None


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: --d must stay free to be the carrier flag of a
    # parameter d rather than read as --depth
    p = argparse.ArgumentParser(
        prog="qitbench",
        description="declare, check, and execute quotient inductive types at desk scale",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="command", required=True)
    sps = {}
    for command, (_, help_, options) in COMMANDS.items():
        sp = sps[command] = sub.add_parser(command, help=help_, allow_abbrev=False)
        if command != "examples":
            sp.add_argument("path", type=Path, help="declaration file")
        for name in options:
            o = OPTIONS[name]
            sp.add_argument(*o.flags, dest=name, type=o.type, choices=o.choices,
                            default=o.default, help=o.help)

    sps["eq"].add_argument("lhs", help="first term, s-expression syntax")
    sps["eq"].add_argument("rhs", help="second term, s-expression syntax")
    sps["fold"].add_argument("--algebra", type=Path, required=True, help="algebra tables, JSON")
    sps["elim"].add_argument("--steps", type=Path, default=None,
                             help="step tables, JSON (default: built-in parity eliminator)")
    sps["construct"].add_argument("--compare-oracle", action="store_true", dest="compare_oracle",
                                  help="certify the colimit against the congruence quotient")
    sps["examples"].add_argument("example", nargs="?", default=None,
                                 choices=list(EXAMPLE_NAMES) + [None],
                                 help="print one entry's table")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser as it was, so one serves every main call
    return build_parser()


def _split_carriers(
    argv: Sequence[str], parser: argparse.ArgumentParser
) -> tuple[list[str], list[tuple[str, Optional[str]]]]:
    """argv without its carrier flags, and each as (name, value or None).
    argparse does not know that they take a value, which would take a
    positional's place.  After the command, a --name that is none of its
    options is a carrier flag; the value follows '=' or is the next
    argument, unless that is an option.  An option of another command is
    a usage error, and so is a carrier flag to a command that does not
    elaborate."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    at = next((n for n, tok in enumerate(argv) if tok in sub.choices), len(argv))
    rest, tail, flags = list(argv[: at + 1]), list(argv[at + 1 :]), []
    if not tail:
        return rest, flags
    command = argv[at]
    options = {o for a in sub.choices[command]._actions for o in a.option_strings}
    known = {o for sp in sub.choices.values() for a in sp._actions for o in a.option_strings}
    foreign = known - options

    def option(tok: str) -> str:
        # the option tok names, as argparse reads it: a long one may
        # carry its value after '=', and a short one right after the flag
        return tok.partition("=")[0] if tok.startswith("--") else tok[:2]

    while tail:
        tok = tail.pop(0)
        if option(tok) in foreign:
            parser.error(f"{command} takes no {option(tok)}")
        if not tok.startswith("--") or option(tok) in options:
            rest.append(tok)
            continue
        name, eq, val = tok[2:].partition("=")
        if "--prefix" not in options:
            parser.error(f"{command} takes no carrier flag --{name}")
        if not eq:
            val = tail.pop(0) if tail and option(tail[0]) not in known else None
        flags.append((name, val))
    return rest, flags


def _carrier_flags(
    flags: Sequence[tuple[str, Optional[str]]], extra: Sequence[str], parser: argparse.ArgumentParser
) -> dict[str, tuple[str, ...]]:
    if extra:
        parser.error(f"unexpected argument {extra[0]!r}")
    out: dict[str, tuple[str, ...]] = {}
    for name, val in flags:
        if name in out:
            parser.error(f"--{name} given twice")
        if val is None:
            parser.error(f"--{name} expects a comma-separated carrier")
        if not name.isidentifier():
            parser.error(f"bad carrier flag --{name}")
        values = tuple(v for v in val.split(",") if v)
        if not values:
            parser.error(f"--{name} expects a comma-separated carrier")
        for v in values:
            if values.count(v) > 1:
                parser.error(f"--{name} lists {v!r} twice")
        out[name] = values
    return out


def _config(args: argparse.Namespace, carriers: dict, parser: argparse.ArgumentParser) -> RunConfig:
    # every parsed argument is the RunConfig field of its name
    for name in COMMANDS[args.command][2]:
        least, value = OPTIONS[name].least, getattr(args, name)
        if least is not None and value is not None and value < least:
            parser.error(f"{name.replace('_', ' ')} must be >= {least}")
    return RunConfig(**vars(args), carriers=carriers)


# --- shared loading ---


def _load_decl(cfg: RunConfig) -> QitDecl:
    try:
        text = cfg.path.read_text(encoding="utf-8")
    except OSError as e:
        raise QitError(str(e))
    except UnicodeDecodeError as e:
        raise QitError(f"{cfg.path}: {e}")
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
    if cfg.prefix is not None and decl.index_sort is None:
        raise UsageError(f"{cfg.command} --prefix: {decl.name} is not indexed")
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
    a = _term_arg("lhs", cfg.lhs, flat)
    b = _term_arg("rhs", cfg.rhs, flat)
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
    """v, or a ValueError if it is a JSON list or object or a boolean:
    carrier values and tags are looked up as keys, lists and objects
    would be unhashable, and true and false would pass for 1 and 0."""
    if isinstance(v, (list, dict)):
        raise ValueError(f"{what} {json.dumps(v)} is not a JSON scalar")
    if isinstance(v, bool):
        raise ValueError(f"{what} {json.dumps(v)} is a JSON boolean, not a string or number")
    return v


def _scalars(what: str, values) -> tuple:
    return tuple(_scalar(what, v) for v in values)


def _algebra_from_file(path: Path, sig: Signature) -> Algebra:
    with _table_file(path):
        obj = serialize.loads(path.read_text(encoding="utf-8"))
        carrier = _scalars("carrier element", obj["carrier"])
        members = set(carrier)
        tables = {}
        for opname, entries in obj.get("ops", {}).items():
            op = OpSym.parse(opname)
            if not sig.has_op(op):
                raise UnknownOp(f"algebra file interprets unknown operator {opname}")
            table = tables[op] = {}
            for args, value in entries:
                key, value = _scalars("table argument", args), _scalar("table value", value)
                for v in (*key, value):
                    if v not in members:
                        raise ValueError(f"{json.dumps(v)} in the {opname} table is not in the carrier")
                table[key] = value
        for decl in sig.ops:
            if decl.arity.finite:
                table = tables.get(decl.op, {})
                for key in itertools.product(carrier, repeat=decl.arity.count):
                    if key not in table:
                        raise ValueError(f"the {decl.op.show()} table has no entry for {json.dumps(list(key))}")
    return Algebra(sig, carrier, tables)


def _cmd_fold(cfg: RunConfig) -> int:
    decl, flat, sys_, q = _quotient(cfg)
    alg = _algebra_from_file(cfg.algebra, flat)
    try:
        res = qwrec(q, alg)
    except NotSatisfying as e:
        print(f"VIOLATED {e.report.witness_eq} at {dict(e.report.witness_env or ())}")
        return 1
    if cfg.fmt == "structured":
        obj = {"values": [{"canon": show_term(c), "value": v}
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
        obj = serialize.loads(path.read_text(encoding="utf-8"))
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
        obj = {"values": [{"canon": show_term(c), "value": v}
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
        sys.stdout.writelines(appx.export())
    else:
        sys.stdout.writelines(appx.dump())
        qw = qw_from_colimit(appx)
        print(f"colimit: {len(qw)} classes")
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


# each command: the function that runs it, its help line, and the
# options of OPTIONS that it reads.  The commands that take --prefix
# elaborate a declaration, and only they take carrier flags.
COMMANDS = {
    "check": (_cmd_check, "judge a declaration, printing the derivation", ("fmt",)),
    "elaborate": (_cmd_elaborate, "export the signature and equation system", ("prefix", "fmt")),
    "enum": (_cmd_enum, "list the depth-bounded term universe", ("depth", "prefix", "fmt")),
    "eq": (_cmd_eq, "decide equality of two terms in the quotient", ("depth", "prefix", "fmt")),
    "fold": (_cmd_fold, "fold the quotient through an algebra", ("depth", "prefix", "fmt")),
    "elim": (_cmd_elim, "dependent elimination with coherence report",
             ("depth", "prefix", "fmt")),
    "construct": (_cmd_construct, "build the staged fixed point",
                  ("depth", "size_height", "prefix", "fmt")),
    "examples": (_cmd_examples, "list the built-in declaration library", ("fmt",)),
}


def run(cfg: RunConfig) -> int:
    return COMMANDS[cfg.command][0](cfg)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    rest, flags = _split_carriers(sys.argv[1:] if argv is None else list(argv), parser)
    args, extra = parser.parse_known_args(rest)
    carriers = _carrier_flags(flags, extra, parser)
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
    except RecursionError:
        limit = sys.getrecursionlimit()
        print(f"error: ran out of recursion depth ({limit} frames): the input nests too deeply",
              file=sys.stderr)
        return 3
    except MemoryError:
        print("error: ran out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
