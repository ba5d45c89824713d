"""Tests for modules."""

from repro.kernel import Fifo, Module, NS, Simulator, wait


class TestModule:
    def test_spawn_registers_process(self):
        sim = Simulator()
        mod = Module("m", sim)
        ran = []

        def behaviour():
            yield wait(1, NS)
            ran.append(True)

        proc = mod.spawn("main", behaviour())
        assert proc in mod.processes
        assert proc.name == "m.main"
        sim.run()
        assert ran == [True]

    def test_module_pipeline_end_to_end(self):
        """Two modules talking through a FIFO each is bound to."""
        sim = Simulator()

        class Producer(Module):
            def __init__(self, name, sim, out):
                super().__init__(name, sim)
                self.out = out
                self.spawn("run", self.run())

            def run(self):
                for i in range(5):
                    yield from self.out.put(i * i)

        class Consumer(Module):
            def __init__(self, name, sim, inp):
                super().__init__(name, sim)
                self.inp = inp
                self.received = []
                self.spawn("run", self.run())

            def run(self):
                for _ in range(5):
                    item = yield from self.inp.get()
                    self.received.append(item)

        link = Fifo("link", sim, capacity=2)
        Producer("producer", sim, link)
        consumer = Consumer("consumer", sim, link)
        sim.run()
        assert consumer.received == [0, 1, 4, 9, 16]
