"""Batched SWIR execution: the default engine, lockstep lanes, the oracle.

Demonstrates the ``batched`` execution engine end to end:

1. select engines by name — ``"batched"`` (the default) or ``"ast"``
   (the reference interpreter, the bit-identity oracle);
2. run a whole sweep of input vectors through **one** generated-Python
   program with :meth:`run_batch`, each lane bit-identical to a
   standalone interpreter run (including lanes that fail);
3. inject per-lane stuck-at faults in the same batch call;
4. build a second engine for the same program and show it reusing the
   in-process compiled code.

Run:  PYTHONPATH=src python examples/engine_batched.py
"""

from repro.swir import DEFAULT_ENGINE, ENGINES, engine_batched
from repro.swir.ast import BinOp, Call, Const, Var
from repro.swir.builder import FunctionBuilder, ProgramBuilder
from repro.swir.engine import create_engine
from repro.swir.interp import Fault


def build_program():
    """A checksum kernel: per-word loop over an FPGA-assisted mix."""
    fb = FunctionBuilder("main", ["seed", "words"])
    fb.assign("acc", Var("seed"))
    fb.assign("w", Const(0))
    with fb.while_(BinOp("<", Var("w"), Var("words"))):
        fb.assign("acc", Call("mix", (BinOp("+", Var("acc"), Var("w")),)))
        fb.assign("w", BinOp("+", Var("w"), Const(1)))
    fb.ret(BinOp("&", Var("acc"), Const(0xFFFF)))

    mix = FunctionBuilder("mix", ["x"])
    mix.ret(BinOp("^", BinOp("*", Var("x"), Const(31)),
                  BinOp(">>", Var("x"), Const(3))))

    return ProgramBuilder().add(fb).add(mix).build()


def main() -> None:
    program = build_program()

    # --- Selection by name -------------------------------------------
    print(f"engines            : {', '.join(ENGINES)} "
          f"(default: {DEFAULT_ENGINE})")
    engine = create_engine(program)
    reference = create_engine(program, "ast")

    # --- A sweep as one batch ----------------------------------------
    # 100 (seed, words) points, one generated program, lockstep lanes.
    # Lane 7 is deliberately malformed (arity) and stays isolated.
    batch = [[seed, 1 + seed % 9] for seed in range(100)]
    batch[7] = [1, 2, 3]
    outcomes = engine.run_batch(batch)

    matched = 0
    for lane, outcome in zip(batch, outcomes):
        if not outcome.ok:
            continue
        expected = reference.run(list(lane))
        assert outcome.result.fingerprint() == expected.fingerprint()
        matched += 1
    print(f"batch lanes        : {len(batch)} "
          f"({matched} ok, bit-identical to the ast engine)")
    print(f"lane 7 (malformed) : error={outcomes[7].error!r}")

    # --- Per-lane fault injection ------------------------------------
    # Stuck-at faults on the accumulator assignment: one fault object
    # per lane, still a single batch call.
    sid = program.functions["main"].body[0].sid
    faults = [Fault(sid=sid, bit=lane % 8, stuck=lane % 2)
              for lane in range(8)]
    faulty = engine.run_batch([[seed, 4] for seed in range(8)], faults=faults)
    golden = engine.run_batch([[seed, 4] for seed in range(8)])
    detected = sum(
        1 for f, g in zip(faulty, golden)
        if f.ok and g.ok and f.result.returned != g.result.returned)
    print(f"fault lanes        : {len(faults)} injected, "
          f"{detected} observably detected")

    # --- The in-process code memo ------------------------------------
    # The translation is compiled once per program (keyed by its AST
    # fingerprint); a second engine only binds the cached code object.
    second = create_engine(program)
    code = engine_batched._CODE_CACHE[engine.program_key]
    assert engine_batched._CODE_CACHE[second.program_key] is code
    print(f"code memo          : second engine reused program "
          f"{second.program_key[:12]}...")


if __name__ == "__main__":
    main()
