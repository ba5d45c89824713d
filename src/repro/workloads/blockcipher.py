"""Block-cipher streaming workload ("blockcipher").

A third scenario with a completely different traffic shape: a secure
streaming link encrypts plaintext blocks through an AES-flavoured round
structure (key whitening, GF(2^8) byte substitution, byte rotation, a
linear mixing layer, final key sealing) and immediately decrypts them
through the inverse chain; the sink verifies every block round-trips
bit-exactly.  Tokens are small (one cipher block) but the task chain is
deep, so bus behaviour and the reconfiguration schedule stress the flow
differently from the imaging pipelines.

SOURCE -> WHITEN -> SUB -> ROT -> MIX -> SEAL ->
  UNSEAL -> INVMIX -> INVROT -> INVSUB -> UNWHITEN -> CHECK
(SOURCE also feeds the original plaintext straight to CHECK.)

The SUB and MIX byte datapaths are the FPGA candidates; their level-4
models are the GF(2^8) doubling step (``xtime``) and the affine S-box
step built on it.

numpy and the flow's graph, partition, trace and SWIR types are imported
inside the functions that use them, so registering the workload loads
none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.workloads.base import VerifyPlan, register_workload, validated_params

if TYPE_CHECKING:
    import numpy as np

    from repro.facerec.tracing import Trace
    from repro.platform.taskgraph import AppGraph

#: The modules this workload carries into the FPGA at level 3.
FPGA_TASKS = frozenset({"SUB", "MIX"})

#: Area proxies (equivalent gates) per task.
GATE_COUNTS = {
    "SOURCE": 2_000,
    "WHITEN": 4_000,
    "SUB": 12_000,
    "ROT": 3_000,
    "MIX": 10_000,
    "SEAL": 4_000,
    "UNSEAL": 4_000,
    "INVMIX": 10_000,
    "INVROT": 3_000,
    "INVSUB": 12_000,
    "UNWHITEN": 4_000,
    "CHECK": 2_000,
}


# -- the byte algebra -------------------------------------------------------------

def xtime(value: int) -> int:
    """GF(2^8) doubling (AES ``xtime``): the MIX/SUB primitive."""
    doubled = (value << 1) & 0xFF
    return doubled ^ 0x1B if value & 0x80 else doubled


def sub_byte(value: int) -> int:
    """The affine S-box step: ``xtime(x) ^ 0x63`` (invertible)."""
    return xtime(value) ^ 0x63


def _xtime_vec(block: np.ndarray) -> np.ndarray:
    import numpy as np

    doubled = (block.astype(np.int32) << 1) & 0xFF
    return (doubled ^ np.where(block & 0x80, 0x1B, 0)).astype(np.uint8)


def sub_bytes(block: np.ndarray) -> np.ndarray:
    import numpy as np

    return _xtime_vec(block) ^ np.uint8(0x63)


def mix_bytes(block: np.ndarray) -> np.ndarray:
    """Pairwise butterfly ``(a, b) -> (a ^ b, a)`` — linear, invertible."""
    out = block.copy()
    a, b = block[0::2], block[1::2]
    out[0::2] = a ^ b
    out[1::2] = a
    return out


def inv_mix_bytes(block: np.ndarray) -> np.ndarray:
    out = block.copy()
    p, q = block[0::2], block[1::2]
    out[0::2] = q
    out[1::2] = p ^ q
    return out


@dataclass(frozen=True)
class CipherEnv:
    """Key schedule and inverse tables of one cipher instance."""

    k0: np.ndarray          # whitening key
    k1: np.ndarray          # sealing key
    inv_sub: np.ndarray     # 256-entry inverse S-box table
    rotation: int
    block_words: int


def derive_env(block_words: int, key_seed: int, rotation: int) -> CipherEnv:
    """Derive the key schedule deterministically from ``key_seed``."""
    import numpy as np

    rng = np.random.default_rng(90_000 + key_seed)
    k0 = rng.integers(0, 256, block_words, dtype=np.uint8)
    k1 = rng.integers(0, 256, block_words, dtype=np.uint8)
    forward = np.array([sub_byte(x) for x in range(256)], dtype=np.uint8)
    inv = np.zeros(256, dtype=np.uint8)
    inv[forward] = np.arange(256, dtype=np.uint8)
    return CipherEnv(k0=k0, k1=k1, inv_sub=inv,
                     rotation=rotation % block_words, block_words=block_words)


class CipherReference:
    """Sequential golden model of the encrypt/decrypt round trip."""

    def __init__(self, env: CipherEnv):
        self.env = env

    def recognize(self, block: np.ndarray, trace: list | None = None):
        import numpy as np

        env = self.env

        def emit(stage: str, channel: str, token) -> None:
            if trace is not None:
                trace.append((stage, channel, token))

        w = block ^ env.k0
        emit("WHITEN", "c_w", w)
        s = sub_bytes(w)
        emit("SUB", "c_s", s)
        r = np.roll(s, env.rotation)
        emit("ROT", "c_r", r)
        m = mix_bytes(r)
        emit("MIX", "c_m", m)
        ct = m ^ env.k1
        emit("SEAL", "c_ct", ct)
        us = ct ^ env.k1
        emit("UNSEAL", "c_us", us)
        im = inv_mix_bytes(us)
        emit("INVMIX", "c_im", im)
        ir = np.roll(im, -env.rotation)
        emit("INVROT", "c_ir", ir)
        isub = env.inv_sub[ir]
        emit("INVSUB", "c_is", isub)
        dec = isub ^ env.k0
        emit("UNWHITEN", "c_dec", dec)
        mismatches = int(np.count_nonzero(dec != block))
        return (mismatches == 0, mismatches)


# -- the graph --------------------------------------------------------------------

def build_cipher_graph(env: CipherEnv) -> AppGraph:
    """The level-1 application graph of the streaming link."""
    import numpy as np

    from repro.platform.taskgraph import AppGraph, ChannelSpec, TaskSpec

    block_words = max(1, env.block_words // 4)
    graph = AppGraph("blockcipher")

    def byte_task(name: str, reads: str, writes: str, fn, ops_per_byte: int,
                  description: str) -> None:
        graph.add_task(TaskSpec(
            name=name,
            fn=lambda state, inputs: {writes: fn(inputs[reads])},
            reads=(reads,),
            writes=(writes,),
            ops_fn=lambda inputs: int(inputs[reads].size * ops_per_byte),
            gate_count=GATE_COUNTS[name],
            description=description,
        ))

    graph.add_task(TaskSpec(
        name="SOURCE",
        fn=lambda state, inputs: {
            "c_blk": inputs["__stimulus__"],
            "c_orig": inputs["__stimulus__"],
        },
        writes=("c_blk", "c_orig"),
        ops_fn=lambda inputs: env.block_words,
        gate_count=GATE_COUNTS["SOURCE"],
        description="plaintext block source (link ingress)",
    ))
    byte_task("WHITEN", "c_blk", "c_w", lambda b: b ^ env.k0, 2,
              "key whitening (xor round key 0)")
    byte_task("SUB", "c_w", "c_s", sub_bytes, 6,
              "GF(2^8) byte substitution (FPGA candidate)")
    byte_task("ROT", "c_s", "c_r", lambda b: np.roll(b, env.rotation), 1,
              "byte rotation (diffusion)")
    byte_task("MIX", "c_r", "c_m", mix_bytes, 3,
              "pairwise linear mixing layer (FPGA candidate)")
    byte_task("SEAL", "c_m", "c_ct", lambda b: b ^ env.k1, 2,
              "final key sealing -> ciphertext")
    byte_task("UNSEAL", "c_ct", "c_us", lambda b: b ^ env.k1, 2,
              "strip the sealing key")
    byte_task("INVMIX", "c_us", "c_im", inv_mix_bytes, 3,
              "inverse mixing layer")
    byte_task("INVROT", "c_im", "c_ir",
              lambda b: np.roll(b, -env.rotation), 1,
              "inverse byte rotation")
    byte_task("INVSUB", "c_ir", "c_is", lambda b: env.inv_sub[b], 6,
              "inverse byte substitution (table)")
    byte_task("UNWHITEN", "c_is", "c_dec", lambda b: b ^ env.k0, 2,
              "strip the whitening key -> recovered plaintext")
    graph.add_task(TaskSpec(
        name="CHECK",
        fn=lambda state, inputs: {
            "__result__": (
                bool((inputs["c_dec"] == inputs["c_orig"]).all()),
                int(np.count_nonzero(inputs["c_dec"] != inputs["c_orig"])),
            )
        },
        reads=("c_dec", "c_orig"),
        writes=(),
        ops_fn=lambda inputs: int(inputs["c_dec"].size * 2),
        gate_count=GATE_COUNTS["CHECK"],
        description="round-trip verifier (link egress)",
    ))

    for name, src, dst in (
        ("c_blk", "SOURCE", "WHITEN"),
        ("c_orig", "SOURCE", "CHECK"),
        ("c_w", "WHITEN", "SUB"),
        ("c_s", "SUB", "ROT"),
        ("c_r", "ROT", "MIX"),
        ("c_m", "MIX", "SEAL"),
        ("c_ct", "SEAL", "UNSEAL"),
        ("c_us", "UNSEAL", "INVMIX"),
        ("c_im", "INVMIX", "INVROT"),
        ("c_ir", "INVROT", "INVSUB"),
        ("c_is", "INVSUB", "UNWHITEN"),
        ("c_dec", "UNWHITEN", "CHECK"),
    ):
        graph.add_channel(ChannelSpec(name, src, dst, block_words))

    graph.validate()
    return graph


# -- level-4 datapaths ------------------------------------------------------------

def xtime_step_function():
    """GF(2^8) doubling: shift, conditional reduction, byte mask."""
    from repro.swir.ast import BinOp, Const, Var
    from repro.swir.builder import FunctionBuilder

    fb = FunctionBuilder("xtime_step", ["b"])
    fb.assign("d", BinOp("<<", Var("b"), Const(1)))
    with fb.if_(BinOp("!=", BinOp("&", Var("b"), Const(128)), Const(0))):
        fb.assign("d", BinOp("^", Var("d"), Const(0x1B)))
    fb.ret(BinOp("&", Var("d"), Const(0xFF)))
    return fb.build()


def sbox_step_function():
    """The affine S-box step: ``xtime(b) ^ 0x63`` (inlined doubling)."""
    from repro.swir.ast import BinOp, Const, Var
    from repro.swir.builder import FunctionBuilder

    fb = FunctionBuilder("sbox_step", ["b"])
    fb.assign("d", BinOp("<<", Var("b"), Const(1)))
    with fb.if_(BinOp("!=", BinOp("&", Var("b"), Const(128)), Const(0))):
        fb.assign("d", BinOp("^", Var("d"), Const(0x1B)))
    fb.assign("d", BinOp("&", Var("d"), Const(0xFF)))
    fb.ret(BinOp("^", Var("d"), Const(0x63)))
    return fb.build()


# -- the workload -----------------------------------------------------------------

@register_workload
class BlockCipherWorkload:
    """Encrypt/decrypt round-trip over a streaming block cipher."""

    name = "blockcipher"
    description = "AES-flavoured streaming encrypt/decrypt round-trip link"
    source_task = "SOURCE"
    reference_channels = ("c_w", "c_s", "c_r", "c_m", "c_ct", "c_us",
                          "c_im", "c_ir", "c_is", "c_dec")
    min_accuracy = 1.0
    conformance_overrides = {
        "frames": 2, "params": {"block_words": 8},
    }
    #: bump when results change (retires repro.store entries)
    revision = 1

    #: Datapath width of the synthesised accelerators.
    WIDTH = 16

    #: ``spec.params`` knobs and their defaults.
    DEFAULT_PARAMS = {"block_words": 16, "key_seed": 77, "rotation": 3}

    def config(self, spec: Any) -> dict:
        params = validated_params(self.name, spec.params, self.DEFAULT_PARAMS)
        if params["block_words"] < 4 or params["block_words"] % 2:
            raise ValueError("block_words must be an even integer >= 4")
        if params["rotation"] < 0:
            raise ValueError("rotation must be >= 0")
        return params

    def build_environment(self, spec: Any) -> CipherEnv:
        p = self.config(spec)
        return derive_env(p["block_words"], p["key_seed"], p["rotation"])

    def build_graph(self, spec: Any, environment: CipherEnv) -> AppGraph:
        return build_cipher_graph(environment)

    def reference_model(self, spec: Any, environment: CipherEnv):
        return CipherReference(environment)

    def shots(self, spec: Any) -> list[int]:
        return list(range(spec.frames))

    def sample_inputs(self, spec: Any, shots: list) -> list:
        import numpy as np

        p = self.config(spec)
        rng = np.random.default_rng(spec.seed)
        return [rng.integers(0, 256, p["block_words"], dtype=np.uint8)
                for __ in shots]

    def reference_trace(self, spec: Any, environment: CipherEnv,
                        inputs: list) -> Trace:
        from repro.facerec.tracing import Trace

        model = self.reference_model(spec, environment)
        events: list = []
        for block in inputs:
            model.recognize(block, trace=events)
        return Trace.from_reference_events("reference", events)

    def partitions(self, graph: AppGraph) -> dict:
        from repro.platform.partition import Partition, Side

        hw = {"SUB", "MIX", "INVSUB", "INVMIX"}
        assignment = {
            name: (Side.HW if name in hw else Side.SW) for name in graph.tasks
        }
        return {
            "timed": Partition(graph, dict(assignment), set()),
            "reconfigurable": Partition(graph, dict(assignment),
                                        set(FPGA_TASKS)),
        }

    def verify_plan(self, spec: Any) -> VerifyPlan:
        return VerifyPlan(
            functions={
                "XTIME_STEP": xtime_step_function(),
                "SBOX_STEP": sbox_step_function(),
            },
            reference_impls={
                "XTIME_STEP": lambda b: xtime(b),
                "SBOX_STEP": lambda b: sub_byte(b),
            },
            test_inputs={
                "XTIME_STEP": [{"b": v} for v in (0, 1, 0x53, 0x7F, 0x80,
                                                  0xCA, 0xFF)],
                "SBOX_STEP": [{"b": v} for v in (0, 1, 0x63, 0x80, 0xFF)],
            },
            width=self.WIDTH,
        )

    def score(self, shots: list, results: dict) -> float:
        verdicts = results.get("CHECK", [])
        if not verdicts:
            return 0.0
        hits = sum(1 for v in verdicts if v is not None and v[0])
        return hits / len(verdicts)
