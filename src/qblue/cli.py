"""Command-line driver: check / eval / energy / compile / fit / verify.

Exit codes: 0 ok, 1 usage, 2 parse error, 3 type error, 4 fit/compile
error, 5 dimension cap.  An input that exhausts the recursion limit or the
memory exits 1 with a one-line error naming the cause, not a traceback
(see ``main``).  With --json, reports and diagnostics are emitted as JSON
lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import linalg, trotter
from .circuit import format_circuit, parse_circuit
from .encodings import encode_for_compile
from .errors import (
    CompileError, DimensionCapError, EncodingError, LayoutError,
    NonHermitianError, ParseError, QBlueError, StateFormatError,
)
from .expr import Flag, OpType
from .fock import apply, format_state, parse_state
from .parser import parse, validate_program
from .typecheck import canonicalize, hermiticity_report, typecheck

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_TYPE = 3
EXIT_COMPILE = 4
EXIT_DIM = 5


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser():
    top = _ArgumentParser(prog="qblue",
                          description="Second-quantization Hamiltonian toolkit")
    top.add_argument("--json", action="store_true",
                     help="emit JSON-lines reports and diagnostics")
    sub = top.add_subparsers(dest="command", required=True)

    def add(cmd, help_text, needs_ham=True):
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("file", help="program file")
        if needs_ham:
            p.add_argument("ham", nargs="?", default=None,
                           help="definition name (defaults to the only one)")
        return p

    add("check", "typecheck each definition", needs_ham=False)

    p = add("eval", "apply a Hamiltonian to a state")
    p.add_argument("--state", required=True, help="state literal file")
    p.add_argument("--out", default=None)

    add("energy", "ground energy of a Hamiltonian")

    p = add("compile", "Trotterize and synthesize a digital circuit")
    p.add_argument("--t", type=float, required=True, help="evolution time")
    p.add_argument("--n", type=int, required=True, help="Trotter steps")
    p.add_argument("--encode", default="auto",
                   help="hp:<k>, jw, direct, or auto")
    p.add_argument("--out", default=None, help="circuit output file")

    p = add("fit", "fit onto an analog machine's templates")
    p.add_argument("--machine", default="ibm")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="compare a compiled circuit against "
                                      "the exact simulation")
    p.add_argument("circuit", help="circuit file")
    p.add_argument("file", help="program file")
    p.add_argument("ham", nargs="?", default=None)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--encode", default="auto")
    return top


def _emit(args, record: dict, text: str, stream=None):
    stream = stream or sys.stdout
    if args.json:
        print(json.dumps(record), file=stream)
    elif text:
        print(text, file=stream)


def _diagnostic(args, code: str, exc: Exception) -> None:
    record = {"level": "error", "code": code, "message": str(exc)}
    if isinstance(exc, LayoutError):
        record["path"] = exc.path
        if exc.left is not None:
            record["left_sites"] = [str(s) for s in exc.left]
        if exc.right is not None:
            record["right_sites"] = [str(s) for s in exc.right]
    if getattr(exc, "line", None) is not None:
        record["line"] = exc.line
        record["col"] = exc.col
    if args.json:
        print(json.dumps(record), file=sys.stderr)
    else:
        print(f"qblue: error: {record['message']}", file=sys.stderr)


def _load_program(path: str):
    source = Path(path).read_text()
    program = parse(source)
    validate_program(program)
    return program


def _pick_def(program, name):
    if name is None:
        if len(program.defs) != 1:
            raise _UsageError(
                "program has several definitions; name one explicitly "
                f"(choices: {', '.join(program.defs)})")
        return next(iter(program.defs.items()))
    if name not in program.defs:
        raise _UsageError(f"no definition named {name!r} "
                          f"(choices: {', '.join(program.defs)})")
    return name, program.defs[name]


def _parse_encoding(text: str):
    if text in ("auto", "jw", "direct"):
        return text, None
    if text.startswith("hp:"):
        return "hp", int(text.split(":", 1)[1])
    raise _UsageError(f"bad --encode value {text!r} "
                      "(expected auto, direct, jw, or hp:<k>)")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    program = _load_program(args.file)
    for name, e in program.defs.items():
        ty = typecheck(e, promote=False)
        if ty.flag is Flag.P:
            hermitian, method, _ = hermiticity_report(e)
            if hermitian:
                ty = OpType(Flag.H, ty.sites)
        else:
            hermitian, method = True, "structural"
        _emit(args, {"def": name, "type": str(ty), "flag": ty.flag.value,
                     "sites": [str(s) for s in ty.sites],
                     "hermitian": ty.flag is Flag.H,
                     "decided_by": method},
              f"{name} : {ty}  [{'hermitian' if ty.flag is Flag.H else 'not certified hermitian'}, {method}]")
    return EXIT_OK


def cmd_eval(args) -> int:
    program = _load_program(args.file)
    name, e = _pick_def(program, args.ham)
    state = parse_state(Path(args.state).read_text())
    result = apply(e, state)
    text = format_state(result)
    if args.out:
        Path(args.out).write_text(text)
    record = {"def": name, "zero": result.is_zero,
              "kets": [[k.amp.real, k.amp.imag, list(k.occ)]
                       for k in result.terms]}
    _emit(args, record, text.rstrip("\n") if not args.out else f"wrote {args.out}")
    return EXIT_OK


def cmd_energy(args) -> int:
    program = _load_program(args.file)
    name, e = _pick_def(program, args.ham)
    ty = typecheck(e)
    if ty.flag is not Flag.H:
        raise NonHermitianError(
            f"{name} certifies only flag p; ground energy needs a Hermitian "
            "operator")
    result = linalg.ground_energy(linalg.expr_to_matrix(e), program.layout)
    state_text = format_state(result.state)
    record = {"def": name, "energy": result.energy,
              "state": [[k.amp.real, k.amp.imag, list(k.occ)]
                        for k in result.state.terms]}
    _emit(args, record, f"energy {result.energy!r}\n{state_text.rstrip()}")
    return EXIT_OK


def cmd_compile(args) -> int:
    program = _load_program(args.file)
    name, e = _pick_def(program, args.ham)
    method, hp_level = _parse_encoding(args.encode)
    circuit, report = trotter.compile_digital(e, args.t, args.n,
                                              method, hp_level)
    text = format_circuit(circuit)
    record = {"def": name, "qubits": circuit.width, "gates": len(circuit),
              "t": args.t, "n": args.n, "encoding": report.to_dict()}
    if args.out:
        Path(args.out).write_text(text)
        Path(args.out + ".encoding.json").write_text(
            json.dumps(report.to_dict(), indent=2) + "\n")
        record["out"] = args.out
        _emit(args, record,
              f"wrote {args.out} ({circuit.width} qubits, "
              f"{len(circuit)} gates) and {args.out}.encoding.json")
    else:
        _emit(args, record, text.rstrip("\n"))
    return EXIT_OK


def cmd_fit(args) -> int:
    program = _load_program(args.file)
    name, e = _pick_def(program, args.ham)
    machine = trotter.MACHINES.get(args.machine)
    if machine is None:
        raise _UsageError(f"unknown machine {args.machine!r} "
                          f"(choices: {', '.join(trotter.MACHINES)})")
    spec = machine()
    hermitian, _, form = hermiticity_report(e)
    if not hermitian:
        raise CompileError(f"{name} certifies only flag p; machine fitting "
                           "needs a Hermitian operator")
    hs, _report = encode_for_compile(form)
    schedule = trotter.fit_machine(hs, spec)
    text = trotter.format_schedule(schedule)
    if args.out:
        Path(args.out).write_text(text)
    record = {"def": name, "machine": spec.name,
              "pairs": [[j, dict(slots)] for j, slots in schedule.assignments]}
    _emit(args, record, text.rstrip("\n") if not args.out else f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    program = _load_program(args.file)
    name, e = _pick_def(program, args.ham)
    circuit = parse_circuit(Path(args.circuit).read_text())
    method, hp_level = _parse_encoding(args.encode)
    hs, _report = encode_for_compile(canonicalize(e), method, hp_level)
    if hs.qubits != circuit.width:
        raise CompileError(
            f"circuit width {circuit.width} does not match the encoded "
            f"Hamiltonian ({hs.qubits} qubits)")
    distance = trotter.verify_circuit(circuit, hs, args.t)
    _emit(args, {"def": name, "t": args.t, "distance": distance},
          f"distance {distance!r}")
    return EXIT_OK


_COMMANDS = {
    "check": cmd_check,
    "eval": cmd_eval,
    "energy": cmd_energy,
    "compile": cmd_compile,
    "fit": cmd_fit,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    Sums, products and sum loops are n-ary nodes, so their length costs no
    recursion depth.  What still reaches the last handler is nesting: the
    parser recurses a few frames per level of parentheses or ``dag``, so
    about 250 levels exhaust Python's default limit of 1000 frames; and a
    product of large sums whose expansion does not fit in memory raises
    MemoryError.  Both exit 1 with one error line.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"qblue: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"qblue: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, StateFormatError) as exc:
        _diagnostic(args, "parse", exc)
        return EXIT_PARSE
    except (LayoutError, NonHermitianError) as exc:
        _diagnostic(args, "type", exc)
        return EXIT_TYPE
    except DimensionCapError as exc:
        _diagnostic(args, "dimension", exc)
        return EXIT_DIM
    except (CompileError, EncodingError) as exc:
        _diagnostic(args, "compile", exc)
        return EXIT_COMPILE
    except (QBlueError, ValueError, OSError) as exc:
        _diagnostic(args, "error", exc)
        return EXIT_USAGE
    except (RecursionError, MemoryError) as exc:
        cause = ("expression nests too deeply for the recursion limit"
                 if isinstance(exc, RecursionError) else "out of memory")
        _diagnostic(args, "error", QBlueError(cause))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
