"""Command-line front end: JSON reports on stdout, human-readable text on stderr.

Exit codes: 0 when the result matches the expectation (or none was supplied),
1 when a violation or unexpected result was found, 2 on usage or parse errors
and on an input a size guard refuses (``UnsupportedSizeError``, its message
after ``error:``), 3 on an internal error (any other exception, reported on
one line, no traceback), and 141 (128 + SIGPIPE, as a shell reports a
process that SIGPIPE killed) with nothing on stderr when the reader closes
stdout before the report is written. ``--help`` and ``--version`` write no
report: into a closed stdout they exit 0, buffered or not, with nothing on
stderr. A closed stderr changes no exit code.
Reports are byte-identical for identical inputs and seeds.
Each command's handler imports the library modules it runs: importing this
module loads only ``pauli`` (with ``graphs``), and a command adds its own.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from typing import TYPE_CHECKING, Sequence

from . import __version__
from .pauli import Measurement

if TYPE_CHECKING:  # annotations only
    from .graphs import Graph

# the flip rules each --rules choice names in graphlhv.lhv
_RULES = {"standard": "STANDARD_RULES", "symmetric": "SYMMETRIC_RULES", "none": "NO_COMMUNICATION"}


class CommandError(Exception):
    """Usage-level failure; maps to exit code 2."""


def _size_mismatch(letters: int, nodes: int) -> CommandError:
    return CommandError(f"measurement has {letters} letters but the graph has {nodes} nodes")


def _graph_and_measurement(args: argparse.Namespace) -> tuple[Graph, dict, Measurement]:
    """Resolve --graph, a family spec like ring:12 or a path to a JSON file,
    and parse --measurement against it.

    Built, a family spec such as ring:99999999999 would exhaust memory, so a
    family with more nodes than the measurement has letters is refused from
    its integers alone. A smaller one is built first, so that the family's own
    parameter errors (ring:2) are the ones reported. A file is read once: the
    reported sha256 is that of its bytes, and the graph is parsed from them
    decoded as UTF-8 with universal newlines, as text mode reads a file, so a
    JSON error's line number counts \r and \r\n line ends too.
    """
    from . import graphs

    spec, raw = args.graph, args.measurement
    try:
        if os.path.exists(spec):
            with open(spec, "rb") as fh:
                data = fh.read()
            g = graphs.graph_from_json(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
            digest = hashlib.sha256(data).hexdigest()
            source = {"kind": "file", "path": spec, "sha256": digest}
        else:
            nodes = graphs.family_node_count(spec)
            if nodes > len(raw):
                raise _size_mismatch(len(raw), nodes)
            g = graphs.named_graph(spec)
            digest = hashlib.sha256(g.to_json().encode()).hexdigest()
            source = {"kind": "family", "spec": spec, "sha256": digest}
    except (ValueError, OSError) as exc:  # GraphFormatError, a directory, bad encoding
        raise CommandError(str(exc)) from exc
    try:
        m = Measurement(raw)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    if len(m) != g.n:
        raise _size_mismatch(len(m), g.n)
    return g, source, m


def _parse_subset(raw: str | None) -> list[int] | None:
    if raw is None:
        return None
    try:
        sites = [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise CommandError(f"bad subset {raw!r}: {exc}") from exc
    # A repeated site squares its Pauli to the identity, so a product over the
    # set (what product_report computes) would answer a different question.
    seen: set[int] = set()
    for j in sites:
        if j in seen:
            raise CommandError(f"bad subset {raw!r}: site {j} is repeated")
        seen.add(j)
    return sites


def _check_seed(seed: int) -> None:
    # numpy refuses a negative seed without naming the flag, and the exact
    # modes never reach numpy: refuse it in every mode, before any work.
    if seed < 0:
        raise CommandError(f"--seed must be a non-negative integer, got {seed}")


def _say(text: str) -> None:
    """Print a line on stderr; a closed stderr drops it and changes no exit code."""
    try:
        print(text, file=sys.stderr, flush=True)
    except BrokenPipeError:  # shutdown's flush then writes to devnull too
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stderr.fileno())


def _as_json(value: object) -> object:
    """The JSON form of a result value: a measurement is its letters, a value
    with ``to_json_dict`` is that dict, any other dataclass is its fields."""
    if isinstance(value, Measurement):  # a dataclass too, so tested first
        return value.letters
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if dataclasses.is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    raise TypeError(f"{type(value).__name__} has no JSON form")


def _emit(command: str, inputs: dict, result: object, ok: bool | None, human: str, texts=None) -> int:
    """Print the JSON report on stdout and the human line on stderr; return the exit code.
    ``texts`` holds JSON encoded beforehand for keys of the result: a list of string pieces is
    that key's value, byte for byte what the encoder would write; a dict applies to its value."""
    report = {
        "schema_version": 1,
        "tool": {"name": "graphlhv", "version": __version__},
        "command": command,
        "inputs": inputs,
        "result": result,
        "ok": ok,
    }

    def encode(value: object, texts: dict | list | None) -> list[str]:
        if not isinstance(texts, dict):
            # fresh dicts over frozen result values hold no cycle for the encoder's check to find
            return texts or [json.dumps(value, sort_keys=True, check_circular=False, default=_as_json)]
        fields = value if isinstance(value, dict) else _as_json(value)
        pieces = [piece for k, v in sorted(fields.items())  # as sort_keys orders them
                  for piece in (", ", json.dumps(k), ": ", *encode(v, texts.get(k)))]
        return ["{", *pieces[1:], "}"]

    sys.stdout.writelines([*encode(report, texts and {"result": texts}), "\n"])  # no joined copy
    sys.stdout.flush()  # a closed reader is met here, before the human line
    _say(human)
    return 0 if ok in (None, True) else 1


def _system_texts(cert) -> dict:
    """``_emit``'s texts for a ring certificate: its variables' texts, ", " between them."""
    pieces = [piece for text in cert.variable_texts for piece in (", ", text)]
    return {"system": {"variables": ["[", *pieces[1:], "]"]}}


def _orbit_flip_system(g: Graph, m: Measurement):
    """(certain subsets, orbit-flip system, its solution, orbits as sorted lists)."""
    from . import nogo

    subs = nogo.find_certain_submeasurements(g, m)
    system = nogo.site_invariance_system(g, m, subs)
    orbits = [list(v.sites) for v in system.variables]
    return subs, system, nogo.gf2_solve(system), orbits


def _cmd_oracle(args: argparse.Namespace) -> int:
    from . import oracle

    g, source, m = _graph_and_measurement(args)
    verdict = oracle.classify(g, m)
    return _emit(
        "oracle", {"graph": source, "measurement": str(m)}, verdict, None,
        f"{m}: {verdict}",
    )


def _cmd_lhv_run(args: argparse.Namespace) -> int:
    from . import lhv

    _check_seed(args.seed)
    g, source, m = _graph_and_measurement(args)
    subset = _parse_subset(args.subset)
    rules = getattr(lhv, _RULES[args.rules])
    try:
        rep = lhv.product_report(g, m, subset, rules, samples=args.samples, seed=args.seed)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    return _emit(
        "lhv run",
        {"graph": source, "measurement": str(m), "subset": list(rep.subset)},
        rep,
        None,
        f"product over {list(rep.subset)}: {rep.verdict} [{rep.mode}]",
    )


def _cmd_verify_sub(args: argparse.Namespace) -> int:
    from . import lhv, nogo

    g, source, m = _graph_and_measurement(args)
    # The report writes 2^|support|, refused past the interpreter's digit limit
    # (0: none; absent before 3.10.7); size <= 3 * limit fits, 8^limit < 10^limit.
    size = len(m.support())
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and size > 3 * limit and 1 << size >= 10 ** limit:
        raise CommandError(
            f"the report's subset count 2^{size} has more than {limit} digits, "
            "the interpreter's limit for integer string conversion"
        )
    rep = nogo.verify_all_submeasurements(g, m, getattr(lhv, _RULES[args.rules]))
    found = "clean" if rep.clean else "mismatch"
    ok = None if args.expect is None else args.expect == found
    human = (
        f"{rep.subsets_checked} subsets checked, {rep.deterministic_subsets} deterministic, "
        f"{len(rep.mismatches)} mismatches"
    )
    return _emit("verify-sub", {"graph": source, "measurement": str(m)}, rep, ok, human)


def _cmd_nogo_ring(args: argparse.Namespace) -> int:
    from . import nogo

    if args.f < 1 or args.f % 2 == 0:
        raise CommandError(f"--f must be an odd positive integer, got {args.f}")
    if args.d is not None and args.d < 0:
        raise CommandError(f"distance must be non-negative, got {args.d}")
    cert = nogo.certify_distance(12 * args.f, args.d)
    state = "inconsistent" if not cert.solution.consistent else "consistent"
    human = f"ring n={cert.n}, d={cert.d} (bound {cert.bound}): system {state}"
    if cert.solution.certificate is not None:
        human += f"; certificate uses equations {list(cert.solution.certificate)}"
    return _emit("nogo ring", {"f": args.f, "d": cert.d}, cert, cert.ok, human, _system_texts(cert))


def _cmd_nogo_site(args: argparse.Namespace) -> int:
    g, source, m = _graph_and_measurement(args)
    subs, system, solution, orbits = _orbit_flip_system(g, m)
    state = "consistent" if solution.consistent else "inconsistent"
    ok = None if args.expect is None else args.expect == state
    result = {
        "orbits": orbits,
        "certain_submeasurements": [
            {"sites": sites, "sign": sign} for sites, sign in subs
        ],
        "consistent": solution.consistent,
        "certificate": list(solution.certificate) if solution.certificate else None,
        "system": system,
        "model_class": "site-invariant sign flips over parity hidden variables "
                       "whose baseline product on any signed stabilizer word is +1",
    }
    return _emit(
        "nogo site-invariance", {"graph": source, "measurement": str(m)}, result, ok,
        f"orbit flip system is {state} ({len(orbits)} orbits)",
    )


def _cmd_chain_verify(args: argparse.Namespace) -> int:
    from . import chain_protocol

    _check_seed(args.seed)
    try:
        rep = chain_protocol.verify_chain_exhaustive(args.n, args.broadcast_y, args.sample, args.seed)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    human = (
        f"n={args.n} ({rep.mode}): {rep.deterministic_subs_checked} deterministic subs, "
        f"{len(rep.violations)} violations, {len(rep.overlap_violations)} overlap violations"
    )
    return _emit(
        "chain verify",
        {"n": args.n, "broadcast_y": args.broadcast_y, "sample": args.sample, "seed": args.seed},
        rep,
        rep.clean,
        human,
    )


def _cmd_chain_decompose(args: argparse.Namespace) -> int:
    from . import chain_protocol

    try:
        m = Measurement(args.measurement)
        chain_protocol.check_chain_length(len(m))
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    try:
        sentences = chain_protocol.decompose(m)
    except chain_protocol.NotStabilizerShaped as exc:
        return _emit(
            "chain decompose",
            {"measurement": str(m)},
            {"stabilizer_shaped": False, "reason": str(exc)},
            None,
            f"not stabilizer shaped: {exc}",
        )
    result = {
        "stabilizer_shaped": True,
        "sign": chain_protocol.decomposition_sign(sentences),
        "sentences": [
            {
                "left": s.left,
                "right": s.right,
                "left_virtual": s.left_virtual,
                "right_virtual": s.right_virtual,
                "words": [{"start": w.start, "letters": w.letters, "sign": w.sign} for w in s.words],
            }
            for s in sentences
        ],
    }
    human = " | ".join(
        "".join(w.letters for w in s.words) for s in sentences
    ) or "(identity)"
    return _emit(
        "chain decompose", {"measurement": str(m)}, result, None,
        f"sign {result['sign']:+d}: {human}",
    )


def _render_system(system) -> list[str]:
    """One line per equation: its variables' short names, primed from the
    second declared variable of a name on, ordered by site and observable."""
    from . import graphs

    names = []
    primes: dict[str, int] = {}
    for key in system.variables:
        base = key.short_name()
        primes[base] = c = primes.get(base, -1) + 1
        names.append(base + "'" * c)

    def order(i):
        key = system.variables[i]
        site = getattr(key, "site", None)
        if site is None:
            site = key.sites[0]
        return (site, key.observable)

    lines = []
    for eq in system.equations:
        terms = [names[i] for i in sorted(graphs._bit_indices(eq.row), key=order)]
        lines.append(f"[{eq.label}] {' * '.join(terms) or '1'} = {eq.sign:+d}")
    return lines


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from . import graphs, lhv, nogo, oracle

    if args.figure == "fig1":
        cert = nogo.certify_distance(12, 1)
        ok = (
            not cert.solution.consistent
            and cert.solution.certificate == tuple(range(5))
            and all(eq.row.bit_count() in (6, 7, 9) for eq in cert.system.equations)
        )
        result = cert.to_json_dict()
        result["constraints"] = _render_system(cert.system)
        human_lines = [
            "triangle-ring demonstration (n=12, d=1): five certain submeasurements",
            *result["constraints"],
            "multiplying all five equations gives 1 = -1"
            if ok else "UNEXPECTED: no contradiction found",
        ]
        human = "\n".join(human_lines)
        return _emit("reproduce fig1", {"figure": "fig1"}, result, ok, human, _system_texts(cert))

    g = graphs.grid(2, 3)
    m = Measurement("YYYYYY")
    rep = nogo.verify_all_submeasurements(g, m, lhv.STANDARD_RULES)
    target = next((c for c in rep.mismatches if c.sites == (1, 2, 3, 5)), None)
    _subs, system, solution, orbits = _orbit_flip_system(g, m)
    ok = (
        target is not None
        and target.oracle == oracle.Verdict.deterministic(-1)
        and target.lhv == oracle.Verdict.deterministic(1)
        and not solution.consistent
    )
    result = {
        "mismatches": rep.mismatches,
        "highlight": target,
        "orbits": orbits,
        "site_invariance_consistent": solution.consistent,
        "constraints": _render_system(system),
    }
    human = (
        "2x3 grid, all-Y global measurement: sites {1,2,3,5} give oracle -1 vs rules +1; "
        f"orbit flip system {'inconsistent' if not solution.consistent else 'consistent'}"
    )
    return _emit("reproduce fig2", {"figure": "fig2"}, result, ok, human)


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser; each subcommand's ``func`` is its handler's name."""
    parser = argparse.ArgumentParser(
        prog="graphlhv",
        description="Pauli measurements on graph states: exact predictions, "
                    "communication-assisted hidden-variable protocols, and "
                    "impossibility certificates.",
    )
    parser.add_argument("--version", action="version", version=f"graphlhv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # the two inputs of every command that reads a graph and a measurement
    graph_input = argparse.ArgumentParser(add_help=False)
    graph_input.add_argument("--graph", required=True)
    graph_input.add_argument("--measurement", required=True)

    p = sub.add_parser("oracle", parents=[graph_input], help="classify a measurement on a graph state")
    p.set_defaults(func="_cmd_oracle")

    lhv = sub.add_parser("lhv", help="run the hidden-variable protocol")
    lhv_sub = lhv.add_subparsers(dest="lhv_command", required=True)
    p = lhv_sub.add_parser("run", parents=[graph_input], help="verdict for the product over a subset of sites")
    p.add_argument("--subset", help="comma-separated sites, default: full support")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rules", choices=sorted(_RULES), default="standard")
    p.set_defaults(func="_cmd_lhv_run")

    p = sub.add_parser("verify-sub", parents=[graph_input], help="compare oracle and protocol on every subset")
    p.add_argument("--rules", choices=sorted(_RULES), default="standard")
    p.add_argument("--expect", choices=["clean", "mismatch"])
    p.set_defaults(func="_cmd_verify_sub")

    nogo = sub.add_parser("nogo", help="impossibility certificates")
    nogo_sub = nogo.add_subparsers(dest="nogo_command", required=True)
    p = nogo_sub.add_parser("ring", help="distance-bound contradiction on a ring")
    p.add_argument("--f", type=int, required=True, help="odd ring parameter (n = 12f)")
    p.add_argument("--d", type=int, help="communication distance, default: the bound")
    p.set_defaults(func="_cmd_nogo_ring")
    p = nogo_sub.add_parser("site-invariance", parents=[graph_input], help="orbit-flip contradiction")
    p.add_argument("--expect", choices=["consistent", "inconsistent"])
    p.set_defaults(func="_cmd_nogo_site")

    ch = sub.add_parser("chain", help="chain grammar and broadcast protocol")
    ch_sub = ch.add_subparsers(dest="chain_command", required=True)
    p = ch_sub.add_parser("verify", help="exhaustively verify all subcorrelations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--broadcast-y", action="store_true")
    p.set_defaults(func="_cmd_chain_verify")
    p = ch_sub.add_parser("decompose", help="parse a measurement into sentences")
    p.add_argument("--measurement", required=True)
    p.set_defaults(func="_cmd_chain_decompose")

    p = sub.add_parser("reproduce", help="canned demonstrations with built-in expectations")
    p.add_argument("figure", choices=["fig1", "fig2"])
    p.set_defaults(func="_cmd_reproduce")

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code (see the module docstring).

    The parser is built on the first call and reused by every later call in
    the process; parsing leaves no state in it, so a call never sees an
    earlier call's options. Each subcommand names its handler, which is looked
    up in this module's globals at call time, so a replaced ``_cmd_*``
    attribute is the one that runs.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    parsed_code = None  # argparse's exit code, once it has written help or usage
    try:
        try:
            args = _parser.parse_args(argv)
        except SystemExit as exc:  # --help or --version written, or a usage error
            parsed_code = int(exc.code or 0)
            sys.stdout.flush()
            return parsed_code
        return globals()[args.func](args)
    except BrokenPipeError:  # a closed stdout: its buffer, and shutdown's flush, go to devnull
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        # help text is no report, so argparse's code stands, as it does unbuffered
        return 141 if parsed_code is None else parsed_code
    except Exception as exc:
        from .graphs import UnsupportedSizeError

        if isinstance(exc, (CommandError, UnsupportedSizeError)):
            _say(f"error: {exc}")
            return 2
        # a failed invariant, not a verdict: keep it off code 1
        detail = " ".join(str(exc).split())
        _say(f"error: internal {type(exc).__name__}: {detail}")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
