"""Outside-in tracing of one ``hilbhodge`` command.

Run as a script, this stands in for ``python -m hilbhodge.cli``::

    python3 perfbench/tracer.py SPANS_FILE SPAWN_TIME -- <hilbhodge argv>

It imports ``hilbhodge.cli``, wraps the public functions of every module
where the caller looks them up (``engine.hilb_series``,
``cli.load_dataset``, ``TriSeries.__mul__``, ...), runs the command, and
writes the spans it kept in memory to SPANS_FILE (in ``marshal`` format,
which is fast to write) when the command ends.
The package's source is not modified.  ``SPAWN_TIME`` is the parent's
``time.perf_counter()`` just before the spawn; on Linux that clock is
system-wide, so the difference to the end of the import is interpreter
start plus ``import hilbhodge.cli``.

A span is ``(name, start, end, parent index, busy seconds)``, with
parent -1 at the top; the command id is the file's.  Busy time equals
``end - start`` except for generators, whose span runs from creation to
exhaustion but is busy only inside ``next()``.  ``layers.py`` turns the
spans into per-layer metrics.
"""

from __future__ import annotations

import json
import marshal
import sys
import time
from fractions import Fraction
from types import FunctionType, SimpleNamespace

GENERATOR = "partitions.bounded_compositions"


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    return abs(value).bit_length()


class Tracer:
    """Spans and counters of one process, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = [-1]  # open spans; -1 is the root
        self.counters = {"mul_terms_out": 0, "coeff_max_bits": 0, "compositions": 0}
        self.sym_inputs: set = set()

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, end - start)
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        spans, stack, clock, counters = self.spans, self.stack, time.perf_counter, self.counters

        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            start = clock()
            spans.append((name, start, start, parent, 0.0))  # until the generator is done
            inner = fn(*args, **kwargs)
            busy = clock() - start

            def consume():
                nonlocal busy
                try:
                    while True:
                        stack.append(index)
                        t0 = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            busy += clock() - t0
                            stack.pop()
                        counters["compositions"] += 1
                        yield item
                finally:
                    spans[index] = (name, start, clock(), parent, busy)

            return consume()

        return traced

    # -- counters taken where the spans close ----------------------------------

    def _terms_out(self, args, result) -> None:
        if hasattr(result, "__len__"):
            self.counters["mul_terms_out"] += len(result)

    def _coeff_bits(self, args, result) -> None:
        terms = getattr(result, "sorted_terms", None)
        if terms is not None:
            bits = max((_bits(v) for _, v in terms()), default=0)
            self.counters["coeff_max_bits"] = max(self.counters["coeff_max_bits"], bits)

    def _sym_input(self, args, result) -> None:
        self.sym_inputs.add(repr(args))  # a SurfaceDiamond's repr shows its entries

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap ``owner.attr`` if it exists; a function a later version drops reads 0."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        wrapped = self.wrap_generator(name, fn) if name == GENERATOR else self.wrap(name, fn, after)
        setattr(owner, attr, wrapped)
        if attr == "__mul__" and getattr(owner, "__rmul__", None) is fn:
            owner.__rmul__ = wrapped

    def install(self) -> None:
        """Wrap every layer's public functions where their callers look them up."""
        from hilbhodge import cli, engine
        from hilbhodge.series import TriSeries

        self._patch(TriSeries, "__mul__", "series.mul", self._terms_out)
        for method in ("invert", "int_pow", "substitute"):
            self._patch(TriSeries, method, f"series.{method}")
        self._patch(TriSeries, "exp", "series.exp", self._coeff_bits)
        self._patch(engine, "euler_product", "series.euler_product", self._coeff_bits)

        after = {"sym_power_twisted_hodge": self._sym_input, "super_sym_series": self._coeff_bits}
        for name in engine.__all__:
            if isinstance(getattr(engine, name, None), FunctionType):
                self._patch(engine, name, f"engine.{name}", after.get(name))
        for name in ("partitions", "nested_index_set", "bounded_compositions"):
            self._patch(engine, name, f"partitions.{name}")

        self._patch(cli, "load_dataset", "surfaces.load_dataset")
        self._patch(cli, "preset", "surfaces.preset")
        self._patch(cli, "naive_mul", "oracles.naive_mul")
        self._patch(cli, "super_sym_multiset", "oracles.super_sym_multiset")
        for name in ("render_diamond", "render_latex", "render_json", "render_poly",
                     "_render", "_series_yt_payload"):
            self._patch(cli, name, f"cli.{name}")
        if getattr(cli, "json", None) is json:
            cli.json = SimpleNamespace(
                dumps=self.wrap("cli.json.dumps", json.dumps),
                loads=self.wrap("cli.json.loads", json.loads),
            )

    def dump(self, path: str, import_s: float) -> None:
        record = {
            "import_s": import_s,
            "spans": self.spans,
            "counters": dict(self.counters, sym_distinct=len(self.sym_inputs)),
        }
        with open(path, "wb") as fh:
            marshal.dump(record, fh)


def main(argv: list[str]) -> int:
    spans_path, spawn_time, separator, *command = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE SPAWN_TIME -- ARGV...")
    from hilbhodge import cli

    import_s = time.perf_counter() - float(spawn_time)
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(command)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, import_s)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
