"""Command-line driver: check / eval / energy / compile / fit / verify.

Exit codes: 0 ok, 1 usage, 2 parse error (``ParseError``), 3 type error
(``LayoutError`` or ``NonHermitianError``), 4 fit/compile error
(``CompileError``), 5 dimension cap or unit cap (``DimensionCapError``:
a matrix above DIM_CAP rows, or a canonical form, or any form built on the
way to it, of more than UNIT_CAP terms).
Parsing never exits 3 (a parsed program has one layout): exit 3 is
``energy`` of a flag-p program or ``eval`` of a state on another layout.
An input that exhausts the recursion limit or the memory exits 1 with a
one-line error naming the cause, not a traceback (see ``main``), as does an
``eval`` that overflows the float range.  --t and --n take the digits 0-9 of
``errors.NUMBER``, the number rule of every reader: nan, inf or another digit
is a usage error.  With --json, reports and diagnostics are emitted as JSON
lines, an argument error too (code ``usage``, no usage line).  One driver,
``_run``, reads the program, picks the definition (``check`` takes them all)
and calls ``cmd_<name>(args, name, e)`` for its record and a function that
builds its text.  --out writes the text and prints
``wrote <out>``, or the record under --json; ``compile --out`` also writes the
record's ``encoding`` report to ``<out>.encoding.json``.  Each file is
overwritten in place and cut to the written length when it is a regular file,
so a FIFO or a device takes the text too; a failed write removes the
regular files the command wrote and nothing else.  A reader that closes
stdout early (``| head -c 10``) ends the output quietly: the rest goes to
the null device, no diagnostic is printed, the exit code is the command's
own (0 when it succeeded), and written --out files stay.

``check`` reports as ``decided_by`` what decided each flag: ``structural``
when structural typing alone gives H, ``certificate`` when the exact
Hermiticity certificate of ``typecheck.hermiticity_report`` decides.

``compile``, ``fit`` and ``verify`` reach qubits by one step,
``trotter.encode_hermitian``: a program the certificate leaves at flag p
exits 4 before any circuit, schedule or matrix is built, and the site types
pick the encoding, so no command takes an encoding option.  ``fit`` fits
onto the one analog machine, ``trotter.IBM``.

``check``, ``eval``, ``compile`` and ``fit`` build no matrix; ``energy``
and ``verify`` build qblue's own sparse matrix (``linalg.Sparse``).  Every
command loads numpy and qblue only, never scipy.

``verify`` prints the distance of the circuit from e^{-i H t} on 4
normalized Gaussian states of fixed seed, at the best global phase
(``trotter.verify_circuit``): at most the operator-norm distance of the
two unitaries, so within the Trotter error's commutator bound.

``energy`` prints the ground energy and one normalized ground state,
computed from the sparse matrix of the definition
(``linalg.ground_energy``).  When the ground space is degenerate, the state
is one vector of that space, the same on every run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
import sys
from pathlib import Path

from . import linalg, trotter
from .circuit import format_circuit, parse_circuit
from .errors import (
    CompileError, DimensionCapError, LayoutError, NonHermitianError,
    ParseError, QBlueError, finite_float, natural,
)
from .expr import Flag
from .fock import apply, format_state, parse_state
from .parser import parse
from .typecheck import typecheck

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_TYPE = 3
EXIT_COMPILE = 4
EXIT_DIM = 5


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message, self)


class _UsageError(Exception):
    """A usage error; an argument error carries the parser whose usage line
    goes before it in plain text, a definition error no parser."""

    def __init__(self, message, parser=None):
        super().__init__(message)
        self.parser = parser


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and shared by later
    ones; parse_args keeps no state between calls."""
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

    add("energy", "ground energy and a ground state of a Hamiltonian (one "
                  "deterministic vector of a degenerate ground space)")

    p = add("compile", "Trotterize and synthesize a digital circuit")
    p.add_argument("--t", type=finite_float, required=True,
                   help="evolution time")
    p.add_argument("--n", type=natural, required=True, help="Trotter steps")
    p.add_argument("--out", default=None, help="circuit output file")

    p = add("fit", "fit onto the ibm analog machine's templates")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="compare a compiled circuit against "
                                      "the exact simulation")
    p.add_argument("circuit", help="circuit file")
    p.add_argument("file", help="program file")
    p.add_argument("ham", nargs="?", default=None)
    p.add_argument("--t", type=finite_float, required=True)
    return top


def _diagnostic(args, code: str, exc: Exception) -> None:
    record = {"level": "error", "code": code, "message": str(exc)}
    if isinstance(exc, LayoutError):
        record["path"] = exc.path
        record["left_sites"] = [str(s) for s in exc.left]
        record["right_sites"] = [str(s) for s in exc.right]
    if isinstance(exc, ParseError):
        record["line"] = exc.line
        record["col"] = exc.col
    if args.json:
        print(json.dumps(record), file=sys.stderr)
    else:
        print(f"qblue: error: {record['message']}", file=sys.stderr)


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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _kets(state) -> list:
    return [[k.amp.real, k.amp.imag, list(k.occ)] for k in state.terms]


def cmd_check(args, name, e):
    ty, method = typecheck(e)
    verdict = "hermitian" if ty.flag is Flag.H else "not certified hermitian"
    return ({"type": str(ty), "flag": ty.flag.value,
             "sites": [str(s) for s in ty.sites],
             "hermitian": ty.flag is Flag.H, "decided_by": method},
            lambda: f"{name} : {ty}  [{verdict}, {method}]")


def cmd_eval(args, name, e):
    result = apply(e, parse_state(Path(args.state).read_text()))
    return ({"zero": result.is_zero, "kets": _kets(result)},
            lambda: format_state(result))


def cmd_energy(args, name, e):
    if typecheck(e)[0].flag is not Flag.H:
        raise NonHermitianError(
            f"{name} certifies only flag p; ground energy needs a Hermitian "
            "operator")
    result = linalg.ground_energy(linalg.expr_to_sparse(e), e.layout)
    return ({"energy": result.energy, "state": _kets(result.state)},
            lambda: f"energy {result.energy!r}\n{format_state(result.state)}")


def cmd_compile(args, name, e):
    circuit, report = trotter.compile_digital(e, args.t, args.n)
    return ({"qubits": circuit.width, "gates": len(circuit), "t": args.t,
             "n": args.n, "encoding": report},
            lambda: format_circuit(circuit))


def cmd_fit(args, name, e):
    hs, _report = trotter.encode_hermitian(e)
    schedule = trotter.fit_machine(hs, trotter.IBM)
    return ({"machine": trotter.IBM.name,
             "pairs": [[j, dict(slots)] for j, slots in schedule]},
            lambda: trotter.format_schedule(schedule))


def cmd_verify(args, name, e):
    circuit = parse_circuit(Path(args.circuit).read_text())
    hs, _report = trotter.encode_hermitian(e)
    if hs.qubits != circuit.width:
        raise CompileError(
            f"circuit width {circuit.width} does not match the encoded "
            f"Hamiltonian ({hs.qubits} qubits)")
    distance = trotter.verify_circuit(circuit, hs, args.t)
    return ({"t": args.t, "distance": distance},
            lambda: f"distance {distance!r}")


_COMMANDS = {
    "check": cmd_check,
    "eval": cmd_eval,
    "energy": cmd_energy,
    "compile": cmd_compile,
    "fit": cmd_fit,
    "verify": cmd_verify,
}


def _run(args) -> int:
    """Read the program, run the command on the definitions it covers,
    write --out, then print: a failed write prints nothing and removes
    every regular file the command wrote.  Once written, the files stay,
    whatever becomes of the line printed after them.

    A file is written in place: opened without truncation, written from
    the start, then cut to the written length if it is a regular file; a
    FIFO or a device has no length to cut.  Truncating a file that holds
    data on open was a third of a compile of small chains on ext4.  The
    removal skips anything but a regular file, so a FIFO, a device or a
    symlink such as /dev/stdout stays."""
    program = parse(Path(args.file).read_text())
    picked = (program.defs.items() if args.command == "check"
              else [_pick_def(program, args.ham)])
    out = getattr(args, "out", None)
    for name, e in picked:
        record, text = _COMMANDS[args.command](args, name, e)
        record = {"def": name, **record}
        files = {out: text()} if out else {}
        if out and args.command == "compile":   # the report beside it
            files[out + ".encoding.json"] = json.dumps(
                record["encoding"], indent=2) + "\n"
            record["out"] = out
        written = []
        try:
            for path, data in files.items():
                fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
                written.append(path)
                with open(fd, "w") as f:
                    f.write(data)
                    if stat.S_ISREG(os.fstat(fd).st_mode):
                        f.truncate()
        except BaseException:
            for path in written:
                with contextlib.suppress(FileNotFoundError):
                    if stat.S_ISREG(os.lstat(path).st_mode):
                        os.unlink(path)
            raise
        if args.json:
            _print(json.dumps(record))
        elif out:
            _print(f"wrote {out}")
        elif shown := text().rstrip("\n"):
            _print(shown)
    return EXIT_OK


def _print(line: str) -> None:
    """Print one line of output.  Once the reader has closed stdout, the
    rest goes to the null device, so neither a later line nor the flush at
    exit fails."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    Sums, products and sum loops are n-ary nodes, so their length costs no
    recursion depth.  What still reaches the last handler is nesting: the
    parser recurses a few frames per level of parentheses or ``dag``, so
    about 250 levels exhaust Python's default limit of 1000 frames; that
    exits 1 with one error line, as does a MemoryError.  A product of large
    sums exits 5 on the unit cap, which bounds every form typing builds.
    """
    # parse_args sets --json on this namespace before a later argument fails
    args = argparse.Namespace(json=False)
    try:
        return _run(_build_parser().parse_args(argv, args))
    except _UsageError as exc:
        if args.json:
            _diagnostic(args, "usage", exc)
        else:
            if exc.parser:
                exc.parser.print_usage(sys.stderr)
            print(f"qblue: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        _diagnostic(args, "parse", exc)
        return EXIT_PARSE
    except (LayoutError, NonHermitianError) as exc:
        _diagnostic(args, "type", exc)
        return EXIT_TYPE
    except DimensionCapError as exc:
        _diagnostic(args, "dimension", exc)
        return EXIT_DIM
    except CompileError as exc:
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
