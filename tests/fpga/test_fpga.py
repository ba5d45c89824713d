"""Tests for the embedded-FPGA model: contexts, device, controller, mapper."""

import pytest

from repro.fpga import (
    BitstreamModel,
    Configuration,
    ContextError,
    ContextMapper,
    FpgaDevice,
    ReconfigController,
)
from repro.kernel import Simulator
from repro.platform import Bus, Memory
from repro.platform.architecture import BURST_WORDS, CONFIG_STORE_BASE
from repro.platform.bus import CYCLE_PS, OVERHEAD_CYCLES


GATES = {"DISTANCE": 12_000, "ROOT": 5_000, "EDGE": 9_000}
BSM = BitstreamModel()
STORE_LATENCY_PS = 1_000


def make_device(sim, capacity=20_000, contexts=("config1", "config2")):
    """A device on a bus whose read-only configuration store holds the
    bitstreams, wired as ``Architecture`` wires it."""
    bus = Bus("amba", sim)
    store = Memory("config_store", sim, CONFIG_STORE_BASE, 1 << 22,
                   latency_ps=STORE_LATENCY_PS, readonly=True)
    bus.attach("config_store", CONFIG_STORE_BASE, store.size_bytes, store)
    device = FpgaDevice("efpga", sim, capacity, bus,
                        config_store_base=CONFIG_STORE_BASE,
                        burst_len=BURST_WORDS)
    if "config1" in contexts:
        device.define_context(
            Configuration.build("config1", {"DISTANCE"}, GATES, BSM))
    if "config2" in contexts:
        device.define_context(
            Configuration.build("config2", {"ROOT"}, GATES, BSM))
    return device


class TestBitstreamModel:
    def test_words_scale_with_gates(self):
        assert BSM.words_for_gates(10_000) > BSM.words_for_gates(1_000)

    def test_overhead_floor(self):
        assert BSM.words_for_gates(0) == BSM.overhead_bits // BSM.word_bits

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BSM.words_for_gates(-1)

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            BitstreamModel(bits_per_gate=0)


class TestConfiguration:
    def test_build_from_gate_counts(self):
        ctx = Configuration.build("c", {"DISTANCE", "ROOT"}, GATES, BSM)
        assert ctx.gate_count == 17_000
        assert ctx.provides("ROOT")
        assert not ctx.provides("EDGE")

    def test_empty_context_rejected(self):
        with pytest.raises(ContextError):
            Configuration("c", frozenset(), 100, 100)

    def test_str_mentions_functions(self):
        ctx = Configuration.build("c1", {"ROOT"}, GATES, BSM)
        assert "ROOT" in str(ctx)


class TestDevice:
    def test_capacity_enforced(self):
        sim = Simulator()
        device = make_device(sim, capacity=1_000, contexts=())
        with pytest.raises(ContextError):
            device.define_context(
                Configuration.build("big", {"DISTANCE"}, GATES, BSM))

    def test_duplicate_context_rejected(self):
        sim = Simulator()
        device = make_device(sim)
        with pytest.raises(ContextError):
            device.define_context(
                Configuration.build("config1", {"ROOT"}, GATES, BSM))

    def test_reconfigure_loads_and_takes_time(self):
        sim = Simulator()
        device = make_device(sim)
        times = []

        def driver():
            yield from device.reconfigure("config1")
            times.append(sim.now_ps)
            assert device.provides("DISTANCE")
            assert not device.provides("ROOT")

        sim.spawn("d", driver())
        sim.run()
        ctx = device.contexts["config1"]
        # Per burst of up to 64 words: arbitration and address cycles,
        # then one bus cycle and one store latency per word.
        bus = device.bus
        bursts = -(-ctx.bitstream_words // device.burst_len)
        overhead_ps = OVERHEAD_CYCLES * CYCLE_PS
        word_ps = CYCLE_PS + STORE_LATENCY_PS
        assert times == [bursts * overhead_ps + ctx.bitstream_words * word_ps]
        assert bus.stats.words_by_kind == {"bitstream": ctx.bitstream_words}
        assert device.stats.reconfigurations == 1
        assert device.stats.bitstream_words == ctx.bitstream_words

    def test_reload_same_context_is_free(self):
        sim = Simulator()
        device = make_device(sim)

        def driver():
            yield from device.reconfigure("config1")
            t1 = sim.now_ps
            yield from device.reconfigure("config1")
            assert sim.now_ps == t1

        sim.spawn("d", driver())
        sim.run()
        assert device.stats.reconfigurations == 1

    def test_unknown_context(self):
        sim = Simulator()
        device = make_device(sim)

        def driver():
            yield from device.reconfigure("nope")

        sim.spawn("d", driver())
        with pytest.raises(Exception):
            sim.run()

    def test_context_of(self):
        sim = Simulator()
        device = make_device(sim)
        assert device.context_of("ROOT").name == "config2"
        assert device.context_of("EDGE") is None

    def test_report(self):
        sim = Simulator()
        device = make_device(sim)
        report = device.report()
        assert report["contexts"] == ["config1", "config2"]
        assert report["loaded"] is None


class TestController:
    def test_demand_driven_switching(self):
        sim = Simulator()
        device = make_device(sim)
        controller = ReconfigController(device)

        def driver():
            yield from controller.ensure_loaded("DISTANCE")
            yield from controller.ensure_loaded("DISTANCE")  # no switch
            yield from controller.ensure_loaded("ROOT")      # switch
            yield from controller.ensure_loaded("DISTANCE")  # switch back

        sim.spawn("d", driver())
        sim.run()
        assert sum(event.switched for event in controller.journal) == 3
        assert [event.function for event in controller.journal] == [
            "DISTANCE", "DISTANCE", "ROOT", "DISTANCE"]
        assert controller.consistency_violations == []

    def test_faulty_instrumentation_detected(self):
        sim = Simulator()
        device = make_device(sim)
        controller = ReconfigController(device, skip_functions={"ROOT"})

        def driver():
            yield from controller.ensure_loaded("DISTANCE")
            yield from controller.ensure_loaded("ROOT")  # skipped: violation

        sim.spawn("d", driver())
        sim.run()
        assert controller.consistency_violations == ["ROOT"]

    def test_unmapped_function_rejected(self):
        sim = Simulator()
        device = make_device(sim)
        controller = ReconfigController(device)

        def driver():
            yield from controller.ensure_loaded("EDGE")

        sim.spawn("d", driver())
        with pytest.raises(Exception):
            sim.run()


class TestMapper:
    def test_count_switches(self):
        mapper = ContextMapper({"A": 1_000, "B": 1_000}, capacity_gates=30_000)
        blocks = [["A"], ["B"]]
        assert mapper.evaluate(blocks, ["A", "B", "A", "B"]).switches == 4
        assert mapper.evaluate(blocks, ["A", "A", "B", "B"]).switches == 2
        assert mapper.evaluate(blocks, []).switches == 0

    def test_single_context_minimises_switches(self):
        mapper = ContextMapper(GATES, capacity_gates=30_000)
        schedule = ["DISTANCE", "ROOT"] * 5
        best = mapper.best(["DISTANCE", "ROOT"], schedule)
        # Everything fits one context: one download total.
        assert best.context_count == 1
        assert best.switches == 1

    def test_capacity_forces_split(self):
        mapper = ContextMapper(GATES, capacity_gates=13_000)
        schedule = ["DISTANCE", "ROOT"] * 3
        best = mapper.best(["DISTANCE", "ROOT"], schedule)
        assert best.context_count == 2
        assert best.switches == 6

    def test_infeasible_rejected(self):
        mapper = ContextMapper(GATES, capacity_gates=1_000)
        with pytest.raises(ContextError):
            mapper.best(["DISTANCE"], ["DISTANCE"])

    def test_explore_sorted_by_download(self):
        mapper = ContextMapper(GATES, capacity_gates=30_000)
        choices = mapper.explore(["DISTANCE", "ROOT"],
                                 ["DISTANCE", "ROOT"] * 4)
        downloads = [c.downloaded_words for c in choices]
        assert downloads == sorted(downloads)

    def test_unknown_task(self):
        mapper = ContextMapper(GATES, capacity_gates=30_000)
        with pytest.raises(ContextError):
            mapper.explore(["NOPE"], [])

    def test_evaluate_infeasible(self):
        mapper = ContextMapper(GATES, capacity_gates=13_000)
        with pytest.raises(ContextError):
            mapper.evaluate([["DISTANCE", "ROOT"]], ["DISTANCE"])
