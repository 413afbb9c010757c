"""The three workloads: seeded command sequences with their output checks.

Each builder writes its datasets into ``workdir`` and returns the list of
:class:`Command` the harness runs in order.  Building a workload is part
of set-up: it computes every reference the checks need, through routes
other than the Euler product the CLI takes (see ``checks``).  Why each
workload exists is recorded in ``README.md`` beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from random import Random

import checks
import gen
from hilbhodge import cli, engine, surfaces

SMALL_N = 4  # orders the partition route checks in every series output
FORMATS = ("diamond", "latex", "json", "poly")
RENDER = {
    "diamond": lambda poly, n: cli.render_diamond(poly),
    "latex": lambda poly, n: cli.render_latex(poly),
    "json": cli.render_json,
    "poly": lambda poly, n: cli.render_poly(poly),
}


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: checks.Check
    rc: int = 0
    group: str | None = None  # commands of one group print identical bytes


class Source:
    """A dataset as the CLI names it (``--preset`` / ``--input``) and its table."""

    def __init__(self, flag: str, value: str, dataset=None):
        self.args = (flag, value)
        self._dataset = dataset

    @classmethod
    def preset(cls, name: str) -> "Source":
        return cls("--preset", name)

    @classmethod
    def file(cls, workdir: Path, name: str, data: dict) -> "Source":
        path = workdir / f"{name}.json"
        path.write_text(gen.dumps(data))
        return cls("--input", str(path), surfaces.load_dataset(path))

    def dataset(self, need: int):
        if self._dataset is None:
            return surfaces.preset(self.args[1], max_power=need)
        return self._dataset

    def table(self, need: int):
        return self.dataset(need).table

    def grids(self, need: int) -> list:
        return [d.rows() for d in self.table(need).diamonds()]


def _hodge(source: Source, n: int) -> dict:
    return dict(engine.hilb_via_partitions(source.table(n), n).items())


def _small(source: Source, trunc: int) -> dict[int, dict]:
    return {n: _hodge(source, n) for n in range(min(trunc, SMALL_N) + 1)}


def _small_betti(source: Source, trunc: int) -> dict[int, list[int]]:
    untwisted = source.table(0).diamond(0)
    return {
        n: engine.hilb_via_partitions(
            surfaces.TwistedTable.constant(untwisted, n), n
        ).collapse_total_degree()
        for n in range(min(trunc, SMALL_N) + 1)
    }


def hilb_series_command(source: Source, trunc: int, fmt: str = "json") -> Command:
    argv = ("hilb", *source.args, "-N", str(trunc), "--format", fmt)
    if fmt == "json":
        return Command(argv, checks.hilb_series_check(source.grids(trunc), trunc, _small(source, trunc)))
    head = "".join(
        f"t^{n}:\n{RENDER[fmt](engine.HodgePolynomial(hodge, 2 * n), n)}\n"
        for n, hodge in _small(source, trunc).items()
    )
    if trunc <= SMALL_N:
        return Command(argv, checks.exact_check(head))
    if fmt == "diamond":
        return Command(argv, checks.diamond_series_check(source.grids(trunc), trunc, head))
    raise ValueError(f"no check for hilb -N {trunc} --format {fmt}")


def chiy_command(source: Source, trunc: int, method: str, fmt: str = "json",
                 group: str | None = None) -> Command:
    check = checks.chiy_check(source.grids(trunc), trunc, _small(source, trunc), fmt)
    argv = ("chiy", *source.args, "-N", str(trunc), "--method", method, "--format", fmt)
    return Command(argv, check, group=group)


def betti_command(source: Source, trunc: int, fmt: str = "json") -> Command:
    betti = source.dataset(0).betti
    check = checks.betti_check(betti, trunc, _small_betti(source, trunc), fmt)
    return Command(("betti", *source.args, "-N", str(trunc), "--format", fmt), check)


def verify_command(source: Source, trunc: int) -> Command:
    return Command(("verify", *source.args, "-N", str(trunc)), checks.verify_check)


# -- workloads --------------------------------------------------------------------


# The latency quantiles of the series and verify mixes fall in the middle
# of one command's samples, not between two commands, where a small shift
# in either would move them.  Ranked by cost, series runs betti at ranks 4
# and 5 of 8 (the median) and hilb -N 21 at ranks 7 and 8 (the 90th
# percentile); verify has three commands whose costs sit well apart.


def build_series(seed: int, workdir: Path) -> list[Command]:
    """Deep Euler products with large outputs; partitions and strata are not used."""
    data = gen.twisted_dataset(Random(f"series-{seed}"), "twisted16", 16)
    twisted = Source.file(workdir, "twisted16", data)
    torus, k3 = Source.preset("torus"), Source.preset("k3")
    betti, deepest = betti_command(torus, 40), hilb_series_command(torus, 21)
    return [
        chiy_command(k3, 30, "product"),
        hilb_series_command(twisted, 16),
        hilb_series_command(k3, 16, "diamond"),
        betti,
        chiy_command(k3, 24, "hodge"),
        deepest,
        betti,
        deepest,
    ]


def build_verify(seed: int, workdir: Path) -> list[Command]:
    """Every two-route identity: strata, Sym tables, the rational exp route."""
    data = gen.twisted_dataset(Random(f"verify-{seed}"), "twisted12", 12)
    twisted = Source.file(workdir, "twisted12", data)
    return [
        verify_command(twisted, 12),
        verify_command(Source.preset("torus"), 12),
        verify_command(Source.preset("k3"), 14),
    ]


QUERY_PRESETS = ("k3", "torus", "hopf", "enriques", "bielliptic_ord2", "kodaira_secondary", "p2")
DEFORM_PRESETS = ("k3", "torus", "enriques", "bielliptic_ord2", "bielliptic_ord3", "p2")
OMEGA_TRIVIAL = ("k3", "torus")


def build_queries(seed: int, workdir: Path) -> list[Command]:
    """About 100 single-answer commands: every subcommand and format, a few errors."""
    rng = Random(f"queries-{seed}")
    inputs = [
        Source.file(workdir, name, gen.twisted_dataset(rng, name, 6, nested=True))
        for name in ("twisted_a", "twisted_b")
    ]
    p2_o1 = Source.file(workdir, "p2_o1", gen.p2_o1_dataset(6))
    sources = [Source.preset(name) for name in QUERY_PRESETS] + inputs + [p2_o1]
    commands: list[Command] = []

    def pick() -> Source:
        return rng.choice(sources)

    for fmt in FORMATS:
        for _ in range(6):
            src, n = pick(), rng.randint(1, 3)
            poly = engine.HodgePolynomial(_hodge(src, n), 2 * n)
            commands.append(Command(("hilb", *src.args, "-n", str(n), "--format", fmt),
                                    checks.exact_check(RENDER[fmt](poly, n) + "\n")))
        for _ in range(2):
            commands.append(hilb_series_command(pick(), rng.randint(2, SMALL_N), fmt))
        for _ in range(3):
            src, a, k = pick(), rng.randint(1, 3), rng.randint(0, 2)
            poly = engine.HodgePolynomial(checks.sym_power(src.grids(k)[k], a), 2 * a)
            argv = ("sym", *src.args, "-a", str(a), "-k", str(k), "--format", fmt)
            commands.append(Command(argv, checks.exact_check(RENDER[fmt](poly, a) + "\n")))
        for _ in range(2):
            src, n = pick(), rng.randint(1, 2)
            ds = src.dataset(n)
            poly = engine.nested_via_strata(ds.table, ds.nested_or_main(), n)
            commands.append(Command(("nested", *src.args, "-n", str(n), "--format", fmt),
                                    checks.exact_check(RENDER[fmt](poly, n) + "\n")))

    for fmt in ("json", "poly"):
        for i in range(2):
            src, trunc = pick(), rng.randint(3, 4)
            group = f"chiy-{fmt}-{i}"
            commands += [chiy_command(src, trunc, m, fmt, group) for m in ("product", "exp", "hodge")]

    for fmt in ("json", "text"):
        for _ in range(4):
            commands.append(betti_command(pick(), rng.choice((4, 6)), fmt))
        for _ in range(4):
            src, n = pick(), rng.randint(1, 3)
            want = engine.HodgePolynomial(_hodge(src, n), 2 * n).collapse_hodge_degree()
            commands.append(Command(("hh", *src.args, "-n", str(n), "--format", fmt),
                                    checks.dims_check(want, fmt, "hh")))
        for _ in range(4):
            src = rng.choice([Source.preset(name) for name in DEFORM_PRESETS] + [p2_o1])
            n = rng.randint(3, 4)
            want = dict(enumerate(engine.deformation_closed_forms(src.dataset(n).deformation, n)))
            if src.args[1] in OMEGA_TRIVIAL:  # h^q(T) is the h^{2n-1,q} column there
                hodge = _hodge(src, n)
                want = {q: hodge.get((2 * n - 1, q), 0) for q in range(4)}
            commands.append(Command(("deform", *src.args, "-n", str(n), "--format", fmt),
                                    checks.dims_check(want, fmt, "deform")))

    for _ in range(4):
        commands.append(verify_command(pick(), 3))

    bad_parse = workdir / "bad_parse.json"
    bad_parse.write_text('{"name": "broken", ')
    bad_schema = workdir / "bad_schema.json"
    bad_schema.write_text(gen.dumps({"name": "negative", "max_power": 0,
                                     "diamonds": [[[1, 0, 0], [0, -1, 0], [0, 0, 1]]]}))
    twisted = rng.choice(inputs)
    errors = [
        (2, ("hilb", *twisted.args, "-n", "8")),
        (2, ("chiy", *twisted.args, "-N", "9")),
        (1, ("hilb", "--input", str(bad_parse), "-n", "1")),
        (1, ("hilb", "--input", str(bad_schema), "-n", "1")),
        (1, ("hilb", "--preset", "k3", "-n", "1", "--format", "xml")),
        (1, ("deform", "--preset", "hopf", "-n", "2")),
    ]
    commands += [Command(argv, checks.empty_check, rc=rc) for rc, argv in errors]

    rng.shuffle(commands)
    return commands


WORKLOADS = {"series": build_series, "verify": build_verify, "queries": build_queries}
